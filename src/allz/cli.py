"""Command-line front end.

Subcommands: `factor` (one instance end to end), `order` (period query),
`campaign` (seeded Monte Carlo batch writing JSONL), `report` (aggregate
one or more JSONL result files), and `verify-paper` (replay the embedded
reference failure cases).

Exit codes are uniform across subcommands: 0 success, 1 method failure or
verification mismatch, 2 invalid input, 3 I/O or internal error (standard
output that cannot be written included), and 128 + the signal when
Ctrl-C, SIGTERM or SIGHUP stops a command (130, 143 or 129).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import operator
import os
import stat
import sys
from typing import IO, Any, ContextManager, Iterable, Iterator, Sequence

from .campaign import (
    BASE_MODES,
    BOUND_CLASSES,
    STRATEGIES,
    CampaignConfig,
    CampaignStats,
    RandomStream,
    RecordTally,
    TrialRecord,
    campaign_blocks,
    case_seed,
    merge_stats,
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


class _StdoutFailed(Exception):
    """A write or flush of standard output failed; the OSError is the cause."""


def _emit(*lines: str) -> None:
    """Write each line, with its line end, to standard output; with no line,
    flush it. Every command's output, the help text and the final flush go
    through here, so a failure to write reaches `main` as one
    `_StdoutFailed`. With fd 1 closed the interpreter has no standard
    output (None), and writing to it fails as a closed descriptor does."""
    try:
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        if lines:
            sys.stdout.write("".join(line + "\n" for line in lines))
        else:
            sys.stdout.flush()
    except OSError as exc:
        raise _StdoutFailed from exc


def _stdout_failed(exc: OSError) -> int:
    """Exit 3 when standard output cannot be written: quietly when its reader
    has gone (EPIPE), with one line on standard error otherwise."""
    # The interpreter flushes standard output once more at exit. Pointed at
    # the null device, as the docs on SIGPIPE advise, that flush cannot fail.
    if sys.stdout is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
    if not isinstance(exc, BrokenPipeError):
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
    return EXIT_IO_ERROR


class _Stopped(BaseException):
    """SIGTERM or SIGHUP, raised where it lands in a command so that it
    takes the Ctrl-C path; `args[0]` is the signal."""


def _stop(signum: int, frame: Any) -> None:
    raise _Stopped(signum)


_BOUND_CLASS_LABELS = {
    "1": "z <= 9",
    "2": "z <= 99",
    "3": "z <= 999",
    "4": "z <= 9999",
    "inf": "unbounded",
}


def _fixed6_ratio(numerator: int, denominator: int) -> str:
    """numerator / denominator (denominator >= 0) in exact 6-decimal fixed
    point, the magnitude rounded half up; the empty ratio 0/0 renders as 0.
    Rendered from the integers, so no command loads `fractions`."""
    if not denominator:
        return "0.000000"
    sign = "-" if numerator < 0 else ""
    scaled = (abs(numerator) * 2_000_000 + denominator) // (2 * denominator)
    return f"{sign}{scaled // 1_000_000}.{scaled % 1_000_000:06d}"


def _rate(numerator: int, denominator: int) -> str:
    return f"{numerator}/{denominator} ({_fixed6_ratio(numerator, denominator)})"


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' included, whose help always goes
    to standard output through `_emit`: argparse's own writer drops a failed
    write, which would read as success. The help is flushed at once, as
    argparse exits right after it, before `main` can flush."""

    def print_help(self, file=None) -> None:
        _emit(self.format_help().removesuffix("\n"))
        _emit()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_report.add_argument(
        "--in", dest="inputs", nargs="+", action="extend", required=True, metavar="FILE"
    )
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
    _emit(json.dumps(payload))
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
    _emit(
        json.dumps(
            {"n": n, "a": a, "r": record.order, "factors": {str(p): e for p, e in record.factors}}
        )
    )
    return EXIT_OK


_CONFIG_KEYS = CampaignConfig._fields


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
    lines.append(f"  mean gcd count: {_fixed6_ratio(stats.gcd_count_sum, stats.trials)}")
    lines.append(f"  mean r digits: {_fixed6_ratio(stats.r_digits_sum, stats.r_count)}")
    lines.append(
        "  mean distinct primes of r: "
        f"{_fixed6_ratio(stats.r_distinct_primes_sum, stats.r_count)}"
    )
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


# Temporary names `_open_results` tries before it gives up.
_TEMP_NAME_TRIES = 100


def _open_results(path: str, mode: str, **text: str) -> ContextManager[IO]:
    """A command's `--out` `path`, links resolved, opened now with `open`'s
    `mode` ("w" or "wb") and `text` options; the block it is used in writes it.

    A regular or new file is written as a temporary file beside it,
    `path.<pid>.tmp`, or `path.<pid>.<k>.tmp` past a stale file of that
    name, which is left as it is. The block's end renames it over `path`
    with the permission bits of the file it replaces; an exception that
    leaves the block removes it, so the file is whole or absent. Any other
    existing path, a FIFO or a device, is written straight into.
    """
    if not path:
        # No file has the empty name; `realpath` would turn it into the
        # working directory. The error is the one `open` raises.
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    target = os.path.realpath(path)
    try:
        kind = os.stat(target).st_mode
    except FileNotFoundError:
        kind = stat.S_IFREG  # a new file
    if stat.S_ISDIR(kind):
        raise IsADirectoryError("it is a directory")
    if not stat.S_ISREG(kind):
        return open(target, mode, **text)
    stem = f"{target}.{os.getpid()}"
    for k in range(_TEMP_NAME_TRIES):
        partial = f"{stem}.{k}.tmp" if k else f"{stem}.tmp"
        with contextlib.suppress(FileExistsError):
            return _renamed_over(open(partial, "x" + mode[1:], **text), partial, target)
    raise FileExistsError(f"{stem}.tmp and {_TEMP_NAME_TRIES - 1} more temporary names exist")


@contextlib.contextmanager
def _renamed_over(handle: IO, partial: str, target: str) -> Iterator[IO]:
    """`handle`, on the temporary file `partial`, renamed over `target` at the end."""
    try:
        with handle:
            yield handle
        with contextlib.suppress(FileNotFoundError):
            os.chmod(partial, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(partial, target)
    except BaseException:
        # Only that file: one from an earlier run stays as it was.
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        config = _load_campaign_config(args)
    # A config nested too deeply for the JSON decoder raises RecursionError.
    except (ValueError, TypeError, OSError, RecursionError) as exc:
        print(f"error: invalid campaign configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    # Opened before the first case runs, so an unwritable path costs nothing.
    try:
        results = contextlib.nullcontext() if args.out is None else _open_results(args.out, "wb")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    # Each block's bytes are written as the block arrives; nothing else is kept.
    stats = CampaignStats()
    try:
        with results as handle, contextlib.closing(campaign_blocks(config)) as blocks:
            for chunk, block_stats in blocks:
                if handle is not None:
                    handle.write(chunk)
                stats = merge_stats(stats, block_stats)
    except RuntimeError as exc:
        print(f"error: internal sampling failure: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except OSError as exc:
        print(f"error: campaign I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    header = (
        f"campaign: digits={config.digits} trials={config.trials} "
        f"strategy={config.strategy} base_mode={config.base_mode} "
        f"bound={config.bound} seed={config.master_seed}"
    )
    _emit(*_stats_summary_lines(stats, header))
    return EXIT_OK


# A failure row: what `failure_cases` lists, led by its sort key. Read by
# field index, which costs less than the named tuple's attribute lookups.
_FAILURE_ROW_FIELDS = ("digits", "n", "a", "case_id", "r", "failed_z", "fallback_tried")
_failure_row = operator.itemgetter(*map(TrialRecord._fields.index, _FAILURE_ROW_FIELDS))


def _fold_inputs(chunks: Iterable[list[TrialRecord]]) -> tuple[CampaignStats, list[tuple]]:
    """The stats of every record in the chunks, and their failure rows sorted.

    Each chunk's records are tallied and dropped as they arrive, so only
    the failure rows grow with the input.
    """
    tally = RecordTally()
    failures = []
    for records in chunks:
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
            "rate": _fixed6_ratio(successes, trials),
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
            "success_rate": _fixed6_ratio(stats.successes, stats.trials),
        },
        "success_by_digits": table,
        "cumulative_success_by_bound": {
            cls_name: stats.cumulative_success_by_bound.get(cls_name, 0)
            for cls_name in BOUND_CLASSES
        },
        "r_structure": {
            "mean_r_digits": _fixed6_ratio(stats.r_digits_sum, stats.r_count),
            "mean_r_distinct_primes": _fixed6_ratio(stats.r_distinct_primes_sum, stats.r_count),
            "even_r_count": even,
            "half_power_minus_one_count": stats.half_power_minus_one_count,
            "half_power_minus_one_given_even_r": _fixed6_ratio(
                stats.half_power_minus_one_count, even
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
    from .fanout import BadLine, decode_inputs  # only `report` compiles the reader

    try:
        stats, failures = _fold_inputs(decode_inputs(args.inputs))
    except BadLine as exc:
        print(f"error: {exc.path}:{exc.index + 1}: malformed record line", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    lines = _stats_summary_lines(stats, f"report over {stats.trials} records")
    table = _success_by_digits(stats)
    if table:
        lines.append("  success rate by digits and strategy:")
        for digits, by_strategy in table.items():
            for strategy, cell in by_strategy.items():
                lines.append(
                    f"    digits={digits} {strategy}: "
                    f"{_rate(cell['successes'], cell['trials'])}"
                )
    _emit(*lines)
    if args.out is not None:
        try:
            with _open_results(args.out, "w", encoding="utf-8", newline="\n") as handle:
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
            _emit(f"{label} MISMATCH: {'; '.join(problems)}")
            return EXIT_METHOD_FAILURE
        _emit(f"{label} ok")
        passed += 1
    _emit(f"{passed}/{total} rows verified")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run_command(build_parser().parse_args(argv))
    except _StdoutFailed as failed:
        return _stdout_failed(failed.__cause__)


def _run_command(args: argparse.Namespace) -> int:
    # SIGTERM and SIGHUP take the Ctrl-C path up to the final flush, and a helper
    # stops as its reader closes. Imported only here, so module import skips it.
    import signal

    handlers = {signum: signal.signal(signum, _stop) for signum in (signal.SIGTERM, signal.SIGHUP)}
    try:
        code = _dispatch(args)
        _emit()
        return code
    except KeyboardInterrupt:
        stopped, how = signal.SIGINT, "interrupted"
    except _Stopped as exc:
        stopped = signal.Signals(exc.args[0])
        how = f"stopped by {stopped.name}"
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    print(f"error: {args.command} {how}", file=sys.stderr)
    return 128 + stopped


def _dispatch(args: argparse.Namespace) -> int:
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
