"""Command-line front end.

Subcommands: `factor` (one instance end to end), `order` (period query),
`campaign` (seeded Monte Carlo batch writing JSONL), `report` (aggregate
one or more JSONL result files), and `verify-paper` (replay the embedded
reference failure cases).

Exit codes are uniform across subcommands: 0 success, 1 method failure or
verification mismatch, 2 invalid input, 3 I/O or internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import sys
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .campaign import (
    BASE_MODES,
    BOUND_CLASSES,
    STRATEGIES,
    BadLine,
    CampaignConfig,
    CampaignStats,
    RandomStream,
    RecordTally,
    TrialRecord,
    campaign_blocks,
    case_seed,
    decode_chunk,
    merge_stats,
    ratio,
    read_chunks,
    run_strategy,
    sample_base,
    # Unused here, but kept: tests import them and perfbench/child.py patches them on allz.cli.
    compute_metrics,
    record_json_line,
    run_campaign,
)
from .fixtures import REFERENCE_FAILURE_CASES
from .numtheory import PRIMALITY_LIMIT, is_probable_prime
from .period_oracle import multiplicative_order
from .strategies import FactorOutcome, all_z

EXIT_OK = 0
EXIT_METHOD_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_IO_ERROR = 3

_BOUND_CLASS_LABELS = {
    "1": "z <= 9",
    "2": "z <= 99",
    "3": "z <= 999",
    "4": "z <= 9999",
    "inf": "unbounded",
}


def _fixed6(value: Fraction) -> str:
    """Exact 6-decimal fixed-point rendering, the magnitude rounded half up."""
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scaled = (num * 2_000_000 + den) // (2 * den)
    return f"{sign}{scaled // 1_000_000}.{scaled % 1_000_000:06d}"


def _rate(numerator: int, denominator: int) -> str:
    return f"{numerator}/{denominator} ({_fixed6(ratio(numerator, denominator))})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allz",
        description="Factor semiprimes from a known multiplicative order via "
        "generalized period decomposition, and benchmark the strategies at scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor one composite from its order")
    p_factor.add_argument("n", type=int, help="composite modulus, >= 6")
    group = p_factor.add_mutually_exclusive_group()
    group.add_argument("--base", type=int, help="explicit base a with 2 <= a < n")
    group.add_argument(
        "--auto-base",
        choices=BASE_MODES,
        dest="auto_base",
        help="sample the base instead of giving one (default: random)",
    )
    p_factor.add_argument("--strategy", choices=STRATEGIES, default="allz")
    p_factor.add_argument("--bound", type=int, help="divisor bound for the allz strategy")
    p_factor.add_argument("--seed", type=int, default=0, help="seed for --auto-base sampling")

    p_order = sub.add_parser("order", help="multiplicative order of a mod n")
    p_order.add_argument("n", type=int)
    p_order.add_argument("a", type=int)

    p_camp = sub.add_parser("campaign", help="run a seeded Monte Carlo campaign")
    p_camp.add_argument("--config", help="JSON file with CampaignConfig fields")
    p_camp.add_argument("--digits", type=int)
    p_camp.add_argument("--trials", type=int)
    p_camp.add_argument("--base-mode", choices=BASE_MODES, dest="base_mode")
    p_camp.add_argument("--strategy", choices=STRATEGIES)
    p_camp.add_argument("--bound", type=int)
    p_camp.add_argument("--seed", type=int, dest="master_seed")
    p_camp.add_argument("--workers", type=int)
    p_camp.add_argument("--retries", type=int, dest="retry_limit")
    p_camp.add_argument("--out", help="JSONL output path for the trial records")

    p_report = sub.add_parser("report", help="aggregate JSONL result files")
    p_report.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="FILE")
    p_report.add_argument("--format", choices=("csv", "json"), default="json")
    p_report.add_argument("--out", help="artifact output path (stdout summary always prints)")

    sub.add_parser("verify-paper", help="replay the embedded reference failure cases")
    return parser


def _strategy_outcome(
    strategy: str, n: int, a: int, bound: int | None
) -> tuple[FactorOutcome, int | None, dict[str, int] | None]:
    """Run one CLI instance; returns (outcome, order, order factorization)."""
    period = None
    if math.gcd(a, n) == 1:
        period = multiplicative_order(a, n)
    outcome = run_strategy(strategy, n, a, period, bound)
    if period is None:
        return outcome, None, None
    factors = {str(p): e for p, e in period.factors}
    return outcome, period.order, factors


def _cmd_factor(args: argparse.Namespace) -> int:
    n = args.n
    if n < 6:
        print(f"error: {n} is below the smallest supported modulus 6", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if n >= PRIMALITY_LIMIT:
        print(f"error: {n} is not below the supported limit 2**64", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.bound is not None and args.bound < 2:
        print(f"error: bound must be >= 2, got {args.bound}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if is_probable_prime(n):
        print(f"error: {n} is prime; nothing to factor", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if args.base is not None:
        a = args.base
        if not 2 <= a < n:
            print(f"error: base must satisfy 2 <= a < n, got {a}", file=sys.stderr)
            return EXIT_INVALID_INPUT
    else:
        try:
            a = sample_base(n, args.auto_base or "random", RandomStream(case_seed(args.seed, 0)))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
    outcome, order, order_factors = _strategy_outcome(args.strategy, n, a, args.bound)
    payload = {
        "status": outcome.status,
        "n": n,
        "a": a,
        "strategy": args.strategy,
        "bound": args.bound,
        "r": order,
        "r_factors": order_factors,
        "factor": outcome.factor,
        "cofactor": n // outcome.factor if outcome.factor else None,
        "witness": outcome.witness._asdict() if outcome.witness else None,
        "attempts": [att._asdict() for att in outcome.attempts],
        "gcd_count": outcome.gcd_count,
    }
    print(json.dumps(payload))
    return EXIT_OK if outcome.status == "success" else EXIT_METHOD_FAILURE


def _cmd_order(args: argparse.Namespace) -> int:
    n, a = args.n, args.a
    if n < 2 or not 1 <= a < n:
        print(f"error: need n >= 2 and 1 <= a < n, got n={n}, a={a}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if n >= PRIMALITY_LIMIT:
        print(f"error: {n} is not below the supported limit 2**64", file=sys.stderr)
        return EXIT_INVALID_INPUT
    shared = math.gcd(a, n)
    if shared > 1:
        print(f"error: a and n share the factor {shared}; no order exists", file=sys.stderr)
        return EXIT_INVALID_INPUT
    record = multiplicative_order(a, n)
    print(
        json.dumps(
            {"n": n, "a": a, "r": record.order, "factors": {str(p): e for p, e in record.factors}}
        )
    )
    return EXIT_OK


_CONFIG_KEYS = tuple(CampaignConfig.__dataclass_fields__)


def _load_campaign_config(args: argparse.Namespace) -> CampaignConfig:
    values: dict[str, Any] = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(data)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for required in ("digits", "trials"):
        if required not in values:
            raise ValueError(f"missing required campaign setting {required!r}")
    config = CampaignConfig(**values)
    config.validate()
    return config


def _stats_summary_lines(stats: CampaignStats, header: str) -> list[str]:
    lines = [header]
    lines.append(f"  trials: {stats.trials}")
    lines.append(f"  successes: {stats.successes}")
    lines.append(f"  failures: {stats.failures}")
    lines.append(f"  success rate: {_rate(stats.successes, stats.trials)}")
    if stats.failures_by_reason:
        parts = [f"{k}={v}" for k, v in sorted(stats.failures_by_reason.items())]
        lines.append(f"  failures by reason: {' '.join(parts)}")
    lines.append(f"  mean gcd count: {_fixed6(stats.mean_gcd_count)}")
    lines.append(f"  mean r digits: {_fixed6(stats.mean_r_digits)}")
    lines.append(f"  mean distinct primes of r: {_fixed6(stats.mean_r_distinct_primes)}")
    lines.append(f"  fallback successes: {stats.fallback_success_count}")
    lines.append("  cumulative success by divisor bound class:")
    for cls_name in BOUND_CLASSES:
        count = stats.cumulative_success_by_bound.get(cls_name, 0)
        lines.append(
            f"    {_BOUND_CLASS_LABELS[cls_name]}: {_rate(count, stats.trials)}"
        )
    if stats.attempts_per_success_histogram:
        parts = [f"{k}:{v}" for k, v in sorted(stats.attempts_per_success_histogram.items())]
        lines.append(f"  attempts per success (with retries): {' '.join(parts)}")
    return lines


def _campaign_failed(out: str | None, message: str) -> int:
    """Report a campaign cut short and remove its partial results file."""
    # A partial file would read as a smaller campaign that ran to the end.
    if out and os.path.isfile(out):
        with contextlib.suppress(OSError):
            os.remove(out)
    print(f"error: {message}", file=sys.stderr)
    return EXIT_IO_ERROR


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        config = _load_campaign_config(args)
    # A config nested too deeply for the JSON decoder raises RecursionError.
    except (ValueError, TypeError, OSError, RecursionError) as exc:
        print(f"error: invalid campaign configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    # Opened before the first case runs, so an unwritable path costs nothing.
    try:
        handle = open(args.out, "wb") if args.out else None
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    # Each block's bytes are written as the block arrives; nothing else is kept.
    stats = CampaignStats()
    try:
        with handle or contextlib.nullcontext(), contextlib.closing(campaign_blocks(config)) as blocks:
            for chunk, block_stats in blocks:
                if handle is not None:
                    handle.write(chunk)
                stats = merge_stats(stats, block_stats)
    except RuntimeError as exc:
        return _campaign_failed(args.out, f"internal sampling failure: {exc}")
    except OSError as exc:
        return _campaign_failed(args.out, f"campaign I/O failure: {exc}")
    header = (
        f"campaign: digits={config.digits} trials={config.trials} "
        f"strategy={config.strategy} base_mode={config.base_mode} "
        f"bound={config.bound} seed={config.master_seed}"
    )
    for line in _stats_summary_lines(stats, header):
        print(line)
    return EXIT_OK


class _MalformedLine(Exception):
    def __init__(self, path: str, lineno: int) -> None:
        super().__init__(f"{path}:{lineno}: malformed record line")
        self.path = path
        self.lineno = lineno


# A failure row: what `failure_cases` lists, led by its sort key. Read by
# field index, which costs less than the named tuple's attribute lookups.
_FAILURE_ROW_FIELDS = ("digits", "n", "a", "case_id", "r", "failed_z", "fallback_tried")
_failure_row = operator.itemgetter(*map(TrialRecord._fields.index, _FAILURE_ROW_FIELDS))


def _fold_inputs(paths: Iterable[str]) -> tuple[CampaignStats, list[tuple]]:
    """The stats of every record in the files, and their failure rows sorted.

    Each chunk of lines is decoded, tallied and dropped as it is read, so
    only the failure rows grow with the input.
    """
    tally = RecordTally()
    failures = []
    for path in paths:
        with open(path, "rb") as handle:
            lineno = 1  # of the chunk's first line
            for chunk in read_chunks(handle):
                try:
                    records = decode_chunk(chunk)
                except BadLine as exc:
                    raise _MalformedLine(path, lineno + exc.index) from exc.__cause__
                lineno += len(records)
                tally.add(records)
                failures += [_failure_row(r) for r in records if r.status == "failure"]
    failures.sort(key=operator.itemgetter(0, 1, 2, 3))
    return tally.stats(), failures


def _success_by_digits(stats: CampaignStats) -> dict[str, dict[str, dict[str, Any]]]:
    cells: dict[tuple[int, str], list[int]] = {}
    for (digits, strategy, status), count in stats.outcomes_by_digits_strategy.items():
        cell = cells.setdefault((digits, strategy), [0, 0])
        cell[0] += count
        if status == "success":
            cell[1] += count
    table: dict[str, dict[str, dict[str, Any]]] = {}
    for (digits, strategy), (trials, successes) in sorted(cells.items()):
        table.setdefault(str(digits), {})[strategy] = {
            "trials": trials,
            "successes": successes,
            "rate": _fixed6(Fraction(successes, trials)),
        }
    return table


# One `failure_cases` row as json.dump(indent=2, sort_keys=True) lays it out.
_FAILURE_CASE_JSON = (
    '    {{\n      "a": {},\n      "digits": {},\n      "fail_factors": {},\n'
    '      "fallback_tried": {},\n      "n": {},\n      "r": {}\n    }}'
)


def _write_json_report(
    stats: CampaignStats, table: dict[str, Any], failures: list[tuple], handle
) -> None:
    """The report, byte for byte as json.dump(..., indent=2, sort_keys=True)
    and a line end write it, with the `failure_cases` rows written one at
    a time instead of built as one list of dicts."""
    even = stats.even_r_count
    summary = {
        "totals": {
            "trials": stats.trials,
            "successes": stats.successes,
            "failures": stats.failures,
            "success_rate": _fixed6(stats.success_rate),
        },
        "success_by_digits": table,
        "cumulative_success_by_bound": {
            cls_name: stats.cumulative_success_by_bound.get(cls_name, 0)
            for cls_name in BOUND_CLASSES
        },
        "r_structure": {
            "mean_r_digits": _fixed6(stats.mean_r_digits),
            "mean_r_distinct_primes": _fixed6(stats.mean_r_distinct_primes),
            "even_r_count": even,
            "half_power_minus_one_count": stats.half_power_minus_one_count,
            "half_power_minus_one_given_even_r": _fixed6(
                ratio(stats.half_power_minus_one_count, even)
            ),
        },
        "failures_by_reason": dict(sorted(stats.failures_by_reason.items())),
        "fallback_successes": stats.fallback_success_count,
        "failure_cases": [],
    }
    head, opening, tail = json.dumps(summary, indent=2, sort_keys=True).partition(
        '"failure_cases": ['
    )
    handle.write(head + opening)
    separator = "\n"
    for digits, n, a, _, r, failed_z, fallback_tried in failures:
        factors = (
            "[\n        " + ",\n        ".join(map(str, failed_z)) + "\n      ]" if failed_z else "[]"
        )
        flag = "true" if fallback_tried else "false"
        handle.write(separator + _FAILURE_CASE_JSON.format(a, digits, factors, flag, n, r))
        separator = ",\n"
    if failures:
        handle.write("\n  ")
    handle.write(tail + "\n")


def _write_failure_csv(failures: list[tuple], handle) -> None:
    # Imported only here, so no other command pays its import.
    import csv

    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["digits", "n", "a", "r", "fail_factors", "fallback_tried"])
    for digits, n, a, _, r, failed_z, fallback_tried in failures:
        writer.writerow(
            [
                digits,
                n,
                a,
                r,
                ", ".join(str(z) for z in failed_z),
                "true" if fallback_tried else "false",
            ]
        )


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        stats, failures = _fold_inputs(args.inputs)
    except _MalformedLine as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    for line in _stats_summary_lines(stats, f"report over {stats.trials} records"):
        print(line)
    table = _success_by_digits(stats)
    if table:
        print("  success rate by digits and strategy:")
        for digits, by_strategy in table.items():
            for strategy, cell in by_strategy.items():
                print(
                    f"    digits={digits} {strategy}: "
                    f"{_rate(cell['successes'], cell['trials'])}"
                )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                if args.format == "csv":
                    _write_failure_csv(failures, handle)
                else:
                    _write_json_report(stats, table, failures, handle)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR
    return EXIT_OK


def _cmd_verify_paper() -> int:
    total = len(REFERENCE_FAILURE_CASES)
    passed = 0
    for index, case in enumerate(REFERENCE_FAILURE_CASES, start=1):
        period = multiplicative_order(case.a, case.n)
        outcome = all_z(case.n, case.a, period)
        problems = []
        if period.order != case.expected_r:
            problems.append(f"order {period.order} != expected {case.expected_r}")
        if outcome.status != "failure":
            problems.append(f"status {outcome.status} != expected failure")
        if outcome.failed_z != case.expected_fail_factors:
            problems.append(
                f"fail factors {outcome.failed_z} != expected {case.expected_fail_factors}"
            )
        if outcome.fallback_tried != case.expects_fallback:
            problems.append(
                f"fallback_tried {outcome.fallback_tried} != {case.expects_fallback}"
            )
        label = (
            f"row {index:02d}/{total} digits={case.digits} n={case.n} a={case.a} "
            f"r={case.expected_r} fail={{{', '.join(map(str, case.expected_fail_factors))}}} "
            f"fallback={'yes' if case.expects_fallback else 'no'}"
        )
        if problems:
            print(f"{label} MISMATCH: {'; '.join(problems)}")
            return EXIT_METHOD_FAILURE
        print(f"{label} ok")
        passed += 1
    print(f"{passed}/{total} rows verified")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "factor":
            return _cmd_factor(args)
        if args.command == "order":
            return _cmd_order(args)
    except ArithmeticError as exc:  # Brent rho ran out of parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "report":
        return _cmd_report(args)
    return _cmd_verify_paper()


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
