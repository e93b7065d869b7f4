"""The allz benchmark: one workload, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample7 --seed 0 --seconds 10 --trace 0

The workload's command runs in a fresh interpreter (perfbench/child.py)
through `allz.cli.main` for `--seconds`, in rounds of one command each.
Outside the timed rounds every output is checked independently. The last
line printed is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a traced run with `--trace 1`. Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import verify
from calibrate import NOMINAL_S, kernel_seconds
from workloads import (
    CAMPAIGNS,
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    RATIO_BASES,
    REPORT_PARTS,
    SERIAL,
    TINY_REPORT_DIVISOR,
    WORKLOADS,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
SPANS_DIR = ".perfbench_out"
SETUP_SAMPLES = 25
# The workload process may overrun --seconds by one round; past this grace it is killed.
CHILD_GRACE_S = 100
# Import time of the CLI module in a fresh interpreter, which every CLI call pays.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); "
    "t = time.perf_counter(); import allz.cli; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, child crashed or hung)."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def calibrated(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, at the nominal speed."""
    return seconds * NOMINAL_S / kernel_s


def measure_setup() -> list[tuple[float, float]]:
    """(seconds to import allz.cli, kernel seconds), once per fresh interpreter.

    The kernel runs here, warm, between the probes: in a fresh interpreter
    its first runs are slow and vary. The first import is discarded, since
    it may compile bytecode caches.
    """
    samples = []
    allowed = os.sched_getaffinity(0)
    # Pinned to one CPU (the probes inherit it), a short-lived interpreter's
    # import time varies far less than when the scheduler moves it.
    os.sched_setaffinity(0, {max(allowed)})
    try:
        kernel_seconds()  # a process's first kernel run is slower
        kernel_before = kernel_seconds()
        for _ in range(SETUP_SAMPLES + 1):
            out = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, timeout=60
            )
            if out.returncode != 0:
                raise BenchError(f"importing allz.cli failed:\n{out.stderr}")
            kernel_after = kernel_seconds()
            samples.append((float(out.stdout), (kernel_before + kernel_after) / 2))
            kernel_before = kernel_after
    finally:
        os.sched_setaffinity(0, allowed)
    return samples[1:]


def _cli_in_process(argv: list[str]) -> int:
    from allz import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)


def campaign_config(workload: str, seed: int, size: str) -> dict:
    spec = WORKLOADS[workload]
    return {**spec["config"], "trials": spec["trials"][size], "master_seed": seed}


def report_part_configs(seed: int, size: str) -> list[dict]:
    parts = []
    for index, part in enumerate(REPORT_PARTS):
        trials = part["trials"] if size == "standard" else part["trials"] // TINY_REPORT_DIVISOR
        parts.append({**part, "trials": trials, "workers": 1, "master_seed": seed * 16 + index})
    return parts


def run_child(work: str, spec: dict) -> dict:
    """Run the timed rounds in a fresh interpreter; its result as a dict."""
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    # A session of its own, so a hung child is killed with its pool workers.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path, result_path],
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=spec["seconds"] + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("workload process overran its time and was killed") from None
    if code != 0:
        raise BenchError(f"workload process exited with {code}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _quantiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, records: list[dict], trials: int, rounds: list[dict], folds: list[dict]) -> dict:
    """Per-layer metrics from the traced rounds' spans and the records.

    Counts come from the first traced round (every round runs the same
    config, so they repeat exactly); times are averaged over all traced rounds.
    """
    calls = folds[0]["calls"]
    n_folds = len(folds)
    total_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    dists: dict[str, list[float]] = {}
    for fold in folds:
        for name, value in fold["total_s"].items():
            total_s[name] = total_s.get(name, 0.0) + value
        for name, value in fold["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, values in fold["dists"].items():
            dists.setdefault(name, []).extend(values)

    def count(name):
        return calls.get(name, 0)

    def us_per_trial(name):
        return _ratio(total_s.get(name, 0.0) * 1e6, trials * n_folds)

    def us_per_call(seconds: dict, name):
        return _ratio(seconds.get(name, 0.0) * 1e6, count(name) * n_folds)

    m = {}
    drawn = count("campaign.random_prime") // 2
    accepted = count("campaign.sample_semiprime")
    m["campaign.sample_semiprime.us_per_trial"] = us_per_trial("campaign.sample_semiprime")
    m["campaign.random_prime.calls_per_trial"] = _ratio(count("campaign.random_prime"), trials)
    m["campaign.random_prime.calls"] = count("campaign.random_prime")
    m["campaign.semiprime_accept_ratio"] = _ratio(accepted, drawn)
    m["campaign.semiprime_pairs_accepted"] = accepted
    m["campaign.semiprime_pairs_drawn"] = drawn
    m["campaign.rng_draws_per_trial"] = _ratio(count("campaign.RandomStream.next_raw"), trials)
    m["campaign.rng_draws"] = count("campaign.RandomStream.next_raw")
    m["numtheory.is_probable_prime.calls_per_trial"] = _ratio(count("numtheory.is_probable_prime"), trials)
    m["numtheory.is_probable_prime.calls"] = count("numtheory.is_probable_prime")
    m["numtheory.is_probable_prime.self_us_per_call"] = us_per_call(self_s, "numtheory.is_probable_prime")
    m["numtheory.distinct_primes_bounded.us_per_trial"] = us_per_trial("numtheory.distinct_primes_bounded")
    m["numtheory.distinct_primes_bounded.calls"] = count("numtheory.distinct_primes_bounded")
    m["numtheory.factorize.calls_per_trial"] = _ratio(count("numtheory.factorize"), trials)
    m["numtheory.factorize.calls"] = count("numtheory.factorize")
    factorize_us = [v * 1e6 for v in dists.get("numtheory.factorize", [])]
    m["numtheory.factorize.us_per_call_p50"] = _percentile(factorize_us, 50)
    m["numtheory.factorize.us_per_call_p99"] = _percentile(factorize_us, 99)
    order_us = [v * 1e6 for v in dists.get("period_oracle.multiplicative_order", [])]
    m["period_oracle.multiplicative_order.self_us_per_call_p50"] = _percentile(order_us, 50)
    m["period_oracle.multiplicative_order.self_us_per_call_p99"] = _percentile(order_us, 99)
    m["period_oracle.multiplicative_order.calls"] = count("period_oracle.multiplicative_order")
    m["period_oracle.carmichael_exponent.us_per_call"] = us_per_call(total_s, "period_oracle.carmichael_exponent")
    m["period_oracle.carmichael_exponent.calls"] = count("period_oracle.carmichael_exponent")
    m["campaign.run_trial.calls_per_trial"] = _ratio(count("campaign.run_trial"), trials)
    m["campaign.run_trial.calls"] = count("campaign.run_trial")
    m["campaign.run_trial.self_us_per_call"] = us_per_call(self_s, "campaign.run_trial")
    m["campaign.sample_base.us_per_trial"] = us_per_trial("campaign.sample_base")
    m["campaign.sample_base.calls"] = count("campaign.sample_base")
    m["strategies.all_z.self_us_per_call"] = us_per_call(self_s, "strategies.all_z")
    m["strategies.all_z.calls"] = count("strategies.all_z")
    m["strategies.traditional_shor.self_us_per_call"] = us_per_call(self_s, "strategies.traditional_shor")
    m["strategies.traditional_shor.calls"] = count("strategies.traditional_shor")
    # Retry and strategy outcomes come from the records, so they cover pool
    # workers too. The report workload runs no strategy: they read 0 there.
    campaign = workload in CAMPAIGNS
    retried = sum(rec["attempts_used"] > 1 for rec in records) if campaign else 0
    rescued = sum(rec["resolved"] and rec["attempts_used"] > 1 for rec in records) if campaign else 0
    attempts = sum(rec["attempts_used"] for rec in records) if campaign else 0
    successes = sum(rec["resolved"] for rec in records) if campaign else 0
    gcds = sum(rec["gcd_count"] for rec in records) if campaign else 0
    m["campaign.retry_yield"] = _ratio(rescued, retried)
    m["campaign.cases_resolved_by_retry"] = rescued
    m["campaign.cases_retried"] = retried
    m["strategies.gcd_per_trial"] = _ratio(gcds, trials) if campaign else 0.0
    m["strategies.gcd_count"] = gcds
    m["strategies.success_ratio"] = _ratio(successes, attempts)
    m["strategies.successes"] = successes
    m["strategies.attempts"] = attempts
    m["cli.record_json_line.us_per_record"] = us_per_trial("cli.record_json_line")
    m["cli.record_json_line.calls"] = count("cli.record_json_line")
    m["cli.decode.us_per_record"] = us_per_trial("cli.decode")
    m["cli.decode.calls"] = count("cli.decode")
    m["campaign.compute_metrics.us_per_record"] = us_per_trial("campaign.compute_metrics")
    m["cli.report.self_us_per_record"] = (
        _ratio(self_s.get("cli.main", 0.0) * 1e6, trials * n_folds) if workload == "report" else 0.0
    )
    m["campaign.run_campaign.s"] = _ratio(total_s.get("campaign.run_campaign", 0.0), n_folds)
    untraced = statistics.median(calibrated(r["seconds"], r["kernel_s"]) for r in rounds if not r["traced"])
    traced = statistics.median(calibrated(r["seconds"], r["kernel_s"]) for r in rounds if r["traced"])
    m["trace.records_per_round"] = trials
    m["trace.untraced_trials_per_s"] = trials / untraced
    m["trace.traced_trials_per_s"] = trials / traced
    m["trace.overhead_ratio"] = traced / untraced
    return m


def trace_problems(workload: str, records: list[dict], trials: int, folds: list[dict], restored: bool) -> list[str]:
    """Invariants of the traced rounds: exact repeat, case structure, restore."""
    problems = []
    if not restored:
        problems.append("tracing left allz modified")
    if any(fold["calls"] != folds[0]["calls"] for fold in folds):
        problems.append("call counts differ between traced rounds")
    calls = folds[0]["calls"]
    if workload in SERIAL:
        if calls.get("campaign.sample_semiprime") != trials:
            problems.append("a serial run must open each case with one sample_semiprime call")
        per_case = dict(folds[0]["run_trials_per_case"])
        expected = {rec["case_id"]: rec["attempts_used"] for rec in records}
        if per_case != expected:
            problems.append("run_trial spans per case differ from the records' attempts_used")
    if workload == "report" and calls.get("cli.decode") != trials:
        problems.append("report must decode each record once")
    return problems


def prepare_report(work: str, seed: int, size: str, digests: dict):
    """Make the report workload's input parts with campaigns, and check them.

    Returns (argv, output path, input records, bad-record problems,
    whole-output problems).
    """
    inputs, records, bad, whole = [], [], [], []
    joined = hashlib.sha256()
    for index, config in enumerate(report_part_configs(seed, size)):
        cfg_path = os.path.join(work, f"part{index}.json")
        part_path = os.path.join(work, f"part{index}.jsonl")
        _write_config(cfg_path, config)
        if _cli_in_process(["campaign", "--config", cfg_path, "--out", part_path]) != 0:
            raise BenchError(f"generating report part {index} failed")
        part_records, part_bad, part_whole = verify.check_campaign_file(part_path, config)
        records.extend(part_records)
        bad.extend(part_bad)
        whole.extend(part_whole)
        inputs.append(part_path)
        with open(part_path, "rb") as handle:
            joined.update(handle.read())
    if digests and joined.hexdigest() != digests["report_input"]:
        whole.append("report input digest differs from the committed one")
    output = os.path.join(work, "report.json")
    return ["report", "--in", *inputs, "--format", "json", "--out", output], output, records, bad, whole


def count_failures(rounds: list[dict], want: str, trials: int, n_bad: int, whole: list[str]):
    """(failed operations, problems) over all rounds.

    A round fails all its records when it exited non-zero, when its output
    differs from the checked output (`want`), or when a whole-output check
    failed; otherwise only the records that failed their checks.
    """
    failed, problems = 0, []
    for rnd in rounds:
        if rnd["exit"] != 0:
            problems.append(f"a round exited with {rnd['exit']}")
        elif rnd["sha256"] != want:
            problems.append("a round's output differs from the checked one")
        round_ok = rnd["exit"] == 0 and rnd["sha256"] == want and not whole
        failed += min(trials, n_bad) if round_ok else trials
    return failed, problems


def end_to_end(workload: str, trials: int, rounds: list[dict], setup: list, result: dict):
    """(end-to-end metrics, lines describing them)."""
    rates = [trials / calibrated(r["seconds"], r["kernel_s"]) for r in rounds]
    setup_s = [calibrated(seconds, kernel_s) for seconds, kernel_s in setup]
    metrics = {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": max(result["peak_rss_kib"], result["peak_worker_rss_kib"]) / 1024,
    }
    unit_of_work = "records" if workload == "report" else "trials"
    q1, q2, q3 = _quantiles(rates)
    lines = [
        f"trials_per_s = {q2:.1f} 1/s calibrated (median of {len(rates)} rounds of {trials} "
        f"{unit_of_work}; quartiles {q1:.1f} .. {q3:.1f}; uncalibrated median "
        f"{statistics.median(trials / r['seconds'] for r in rounds):.1f})"
    ]
    q1, q2, q3 = _quantiles(setup_s)
    lines.append(
        f"setup_s = {q2:.6f} s calibrated (median of {len(setup_s)} imports of allz.cli; "
        f"quartiles {q1:.6f} .. {q3:.6f}; uncalibrated median "
        f"{statistics.median(s for s, _ in setup):.6f})"
    )
    lines.append(
        f"peak_rss_mib = {metrics['peak_rss_mib']:.3f} MiB (workload process "
        f"{result['peak_rss_kib'] / 1024:.3f}, largest pool worker "
        f"{result['peak_worker_rss_kib'] / 1024:.3f})"
    )
    lines.append(f"calibration kernel median {statistics.median(r['kernel_s'] for r in rounds):.6f} s")
    return metrics, lines


def layer_lines(metrics: dict) -> list[str]:
    """One line per per-layer metric; a ratio with its numerator/denominator."""
    lines = []
    for name, unit, *_ in PER_LAYER:
        text = f"{name} = {metrics[name]} {unit}"
        if name in RATIO_BASES:
            num, den = RATIO_BASES[name]
            text += f" ({metrics[num]}/{metrics[den]})"
        lines.append(text)
    return lines


def run_workload(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Run one workload and check it: (result object, human-readable lines)."""
    if not os.path.isfile(os.path.join("src", "allz", "cli.py")):
        raise BenchError("no allz source under ./src; run from the root of a checkout")
    sys.path.insert(0, os.path.abspath("src"))
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    digests = expected["sha256"][args.size] if args.seed == expected["default_seed"] else {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        setup = measure_setup()
        if args.workload == "report":
            argv, output, records, bad, whole = prepare_report(work, args.seed, args.size, digests)
            trials = len(records)
        else:
            config = campaign_config(args.workload, args.seed, args.size)
            cfg_path = os.path.join(work, "config.json")
            _write_config(cfg_path, config)
            output = os.path.join(work, "records.jsonl")
            argv = ["campaign", "--config", cfg_path, "--out", output]
            trials = config["trials"]
        spans_out = None
        if args.trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans_out = os.path.join(SPANS_DIR, f"spans-{args.workload}.tsv.gz")
        spec = {
            "argv": argv,
            "output": output,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans_out": spans_out,
            "kernel_procs": 1 if args.workload == "report" else config["workers"],
        }
        result = run_child(work, spec)
        rounds = result["rounds"]

        # Output checks, outside the timed rounds. The last round's output is
        # checked in full; every round must be byte-identical to it and, for
        # the default seed, to the committed digest.
        if args.workload == "report":
            whole.extend(verify.report_problems(output, records))
        else:
            records, bad, whole = verify.check_campaign_file(output, config)
        want = digests.get(args.workload, rounds[-1]["sha256"])
        if rounds[-1]["sha256"] != want:
            whole.append(f"{args.workload} output digest differs from the committed one")
        if args.workload == "parallel7":
            serial_cfg = os.path.join(work, "serial.json")
            serial_out = os.path.join(work, "serial.jsonl")
            _write_config(serial_cfg, {**config, "workers": 1})
            code = _cli_in_process(["campaign", "--config", serial_cfg, "--out", serial_out])
            if code != 0 or verify.sha256_file(serial_out) != rounds[-1]["sha256"]:
                whole.append("parallel7 records differ from the serial (sample7) records")
        if args.trace:
            whole.extend(trace_problems(args.workload, records, trials, result["folds"], result["restored"]))
        failed, round_problems = count_failures(rounds, want, trials, len(bad), whole)
        problems = whole + round_problems + bad
        attempted = trials * len(rounds)

        if args.trace:
            metrics = layer_metrics(args.workload, records, trials, rounds, result["folds"])
            units = {name: unit for name, unit, *_ in PER_LAYER}
            lines = layer_lines(metrics)
        else:
            metrics, lines = end_to_end(args.workload, trials, rounds, setup, result)
            units = {name: unit for name, unit, _ in END_TO_END}
        lines.append(f"error_frac = {failed / attempted:.6f} ({failed}/{attempted} operations failed)")
        lines.extend(f"problem: {p}" for p in problems[:20])
        obj = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        return obj, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("standard", "tiny"), default="standard", help="tiny: the self-check's small inputs"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        obj, lines = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(obj))
    return 0 if obj["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
