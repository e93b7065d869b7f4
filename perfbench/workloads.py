"""Workloads and metrics of the allz benchmark.

Every workload runs one `allz` command through `allz.cli.main`. The
benchmark seed becomes the campaigns' master seed; the program only ever
sees the generated config and input files.
"""

from __future__ import annotations

DEFAULT_SEED = 0

# Campaign configs, as `allz campaign --config` reads them (master_seed and
# trials are filled in per run). parallel7 is sample7 with two workers, so
# its records must be byte-identical to sample7's.
_SAMPLE7 = {
    "digits": 7,
    "base_mode": "random",
    "strategy": "allz",
    "bound": 9999,
    "workers": 1,
    "retry_limit": 0,
}

WORKLOADS = {
    "sample7": {
        "why": "7-digit allz with bound 9999: case sampling and is_probable_prime dominate",
        "config": _SAMPLE7,
        "trials": {"standard": 2000, "tiny": 600},
    },
    "retry12": {
        "why": "12-digit square bases, traditional, 3 retries: factorize and the order oracle dominate",
        "config": {
            "digits": 12,
            "base_mode": "perfect_square",
            "strategy": "traditional",
            "bound": None,
            "workers": 1,
            "retry_limit": 3,
        },
        "trials": {"standard": 1200, "tiny": 100},
    },
    "report": {
        "why": "report over mixed JSONL parts: record decode, compute_metrics and render, no numtheory",
        "config": None,
        "trials": None,
    },
    "parallel7": {
        "why": "sample7 on 2 pool workers: the only run of the multiprocessing block/pickle path",
        "config": {**_SAMPLE7, "workers": 2},
        "trials": {"standard": 2000, "tiny": 600},
    },
}

# The report workload's input: one campaign per part. Together they cover
# digit classes, all three strategies, both base modes, bounds and retries,
# so int, string, bool and null values all occur in the records.
REPORT_PARTS = (
    {"digits": 4, "base_mode": "random", "strategy": "allz", "bound": None, "retry_limit": 0, "trials": 2000},
    {"digits": 5, "base_mode": "perfect_square", "strategy": "dong2023", "bound": None, "retry_limit": 2, "trials": 1500},
    {"digits": 7, "base_mode": "random", "strategy": "traditional", "bound": None, "retry_limit": 3, "trials": 1500},
    {"digits": 7, "base_mode": "perfect_square", "strategy": "allz", "bound": 99, "retry_limit": 0, "trials": 1500},
    {"digits": 9, "base_mode": "random", "strategy": "allz", "bound": 9, "retry_limit": 1, "trials": 1000},
    {"digits": 10, "base_mode": "random", "strategy": "dong2023", "bound": None, "retry_limit": 0, "trials": 1000},
    {"digits": 12, "base_mode": "perfect_square", "strategy": "allz", "bound": 9999, "retry_limit": 1, "trials": 1000},
)
# A tiny run divides every part's trial count by this.
TINY_REPORT_DIVISOR = 20

# End-to-end metrics: (name, unit, better). Failures are not a metric here
# (a metric must never be 0); they are the result's `failed` of `attempted`.
END_TO_END = (
    ("trials_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

CAMPAIGNS = ("sample7", "retry12", "parallel7")
SERIAL = ("sample7", "retry12")

# Per-layer metrics of the traced run: (name, unit, better, layer, the
# end-to-end metric it should move, the workloads it should move it on).
# Every workload prints every metric; one whose layer a workload does not
# run reads 0 there.
PER_LAYER = (
    ("campaign.sample_semiprime.us_per_trial", "us/trial", "lower", "campaign", "trials_per_s", ("sample7", "retry12")),
    ("campaign.random_prime.calls_per_trial", "calls/trial", "lower", "campaign", "trials_per_s", ("sample7",)),
    ("campaign.random_prime.calls", "count", "lower", "campaign", "trials_per_s", ("sample7",)),
    ("campaign.semiprime_accept_ratio", "ratio", "higher", "campaign", "trials_per_s", ("sample7",)),
    ("campaign.semiprime_pairs_accepted", "count", "higher", "campaign", "trials_per_s", ("sample7",)),
    ("campaign.semiprime_pairs_drawn", "count", "lower", "campaign", "trials_per_s", ("sample7",)),
    ("campaign.rng_draws_per_trial", "draws/trial", "lower", "campaign", "trials_per_s", ("sample7",)),
    ("campaign.rng_draws", "count", "lower", "campaign", "trials_per_s", ("sample7",)),
    ("numtheory.is_probable_prime.calls_per_trial", "calls/trial", "lower", "numtheory", "trials_per_s", ("sample7",)),
    ("numtheory.is_probable_prime.calls", "count", "lower", "numtheory", "trials_per_s", ("sample7",)),
    ("numtheory.is_probable_prime.self_us_per_call", "us/call", "lower", "numtheory", "trials_per_s", ("sample7",)),
    ("numtheory.distinct_primes_bounded.us_per_trial", "us/trial", "lower", "numtheory", "trials_per_s", ("sample7",)),
    ("numtheory.distinct_primes_bounded.calls", "count", "lower", "numtheory", "trials_per_s", ("sample7",)),
    ("numtheory.factorize.calls_per_trial", "calls/trial", "lower", "numtheory", "trials_per_s", ("retry12",)),
    ("numtheory.factorize.calls", "count", "lower", "numtheory", "trials_per_s", ("retry12",)),
    ("numtheory.factorize.us_per_call_p50", "us/call", "lower", "numtheory", "trials_per_s", ("retry12",)),
    ("numtheory.factorize.us_per_call_p99", "us/call", "lower", "numtheory", "trials_per_s", ("retry12",)),
    ("period_oracle.multiplicative_order.self_us_per_call_p50", "us/call", "lower", "period_oracle", "trials_per_s", ("retry12",)),
    ("period_oracle.multiplicative_order.self_us_per_call_p99", "us/call", "lower", "period_oracle", "trials_per_s", ("retry12",)),
    ("period_oracle.multiplicative_order.calls", "count", "lower", "period_oracle", "trials_per_s", ("retry12",)),
    ("period_oracle.carmichael_exponent.us_per_call", "us/call", "lower", "period_oracle", "trials_per_s", ("retry12",)),
    ("period_oracle.carmichael_exponent.calls", "count", "lower", "period_oracle", "trials_per_s", ("retry12",)),
    ("campaign.run_trial.calls_per_trial", "calls/trial", "lower", "campaign", "trials_per_s", ("retry12",)),
    ("campaign.run_trial.calls", "count", "lower", "campaign", "trials_per_s", ("retry12",)),
    ("campaign.run_trial.self_us_per_call", "us/call", "lower", "campaign", "trials_per_s", ("retry12",)),
    ("campaign.sample_base.us_per_trial", "us/trial", "lower", "campaign", "trials_per_s", ("retry12",)),
    ("campaign.sample_base.calls", "count", "lower", "campaign", "trials_per_s", ("retry12",)),
    ("campaign.retry_yield", "ratio", "higher", "campaign", "trials_per_s", ("retry12",)),
    ("campaign.cases_resolved_by_retry", "count", "higher", "campaign", "trials_per_s", ("retry12",)),
    ("campaign.cases_retried", "count", "lower", "campaign", "trials_per_s", ("retry12",)),
    ("strategies.all_z.self_us_per_call", "us/call", "lower", "strategies", "trials_per_s", ("sample7",)),
    ("strategies.all_z.calls", "count", "lower", "strategies", "trials_per_s", ("sample7",)),
    ("strategies.traditional_shor.self_us_per_call", "us/call", "lower", "strategies", "trials_per_s", ("retry12",)),
    ("strategies.traditional_shor.calls", "count", "lower", "strategies", "trials_per_s", ("retry12",)),
    ("strategies.gcd_per_trial", "gcd/trial", "lower", "strategies", "trials_per_s", ("sample7", "retry12")),
    ("strategies.gcd_count", "count", "lower", "strategies", "trials_per_s", ("sample7", "retry12")),
    ("strategies.success_ratio", "ratio", "higher", "strategies", "trials_per_s", ("sample7", "retry12")),
    ("strategies.successes", "count", "higher", "strategies", "trials_per_s", ("sample7", "retry12")),
    ("strategies.attempts", "count", "lower", "strategies", "trials_per_s", ("sample7", "retry12")),
    ("cli.record_json_line.us_per_record", "us/record", "lower", "cli", "trials_per_s peak_rss_mib", CAMPAIGNS),
    ("cli.record_json_line.calls", "count", "lower", "cli", "trials_per_s peak_rss_mib", CAMPAIGNS),
    ("cli.decode.us_per_record", "us/record", "lower", "cli", "trials_per_s", ("report",)),
    ("cli.decode.calls", "count", "lower", "cli", "trials_per_s", ("report",)),
    ("campaign.compute_metrics.us_per_record", "us/record", "lower", "campaign", "trials_per_s", ("report",)),
    ("cli.report.self_us_per_record", "us/record", "lower", "cli", "trials_per_s", ("report",)),
    ("campaign.run_campaign.s", "s", "lower", "campaign", "trials_per_s", ("parallel7", "sample7")),
    ("trace.records_per_round", "count", "higher", "benchmark", "trials_per_s", ("sample7", "retry12", "report", "parallel7")),
    ("trace.untraced_trials_per_s", "1/s", "higher", "benchmark", "trials_per_s", ("sample7", "retry12", "report", "parallel7")),
    ("trace.traced_trials_per_s", "1/s", "higher", "benchmark", "trials_per_s", ("sample7", "retry12", "report", "parallel7")),
    ("trace.overhead_ratio", "ratio", "lower", "benchmark", "trials_per_s", ("sample7", "retry12", "report", "parallel7")),
)

# Ratios printed with their base: ratio -> (numerator, denominator).
RATIO_BASES = {
    "campaign.semiprime_accept_ratio": ("campaign.semiprime_pairs_accepted", "campaign.semiprime_pairs_drawn"),
    "campaign.retry_yield": ("campaign.cases_resolved_by_retry", "campaign.cases_retried"),
    "strategies.success_ratio": ("strategies.successes", "strategies.attempts"),
    "strategies.gcd_per_trial": ("strategies.gcd_count", "trace.records_per_round"),
    "trace.overhead_ratio": ("trace.untraced_trials_per_s", "trace.traced_trials_per_s"),
}
