"""Run one workload's timed rounds in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC.json holds the argv for `allz.cli.main`, the output file to hash after
each round, the measuring time and whether to trace. Each round calls
`allz.cli.main` in-process with stdout captured; only that call is timed.
The calibration kernel runs between rounds, so each round has the machine's
speed measured right before and right after it; for a pool workload it runs
on as many processes at once as there are workers.
With tracing on, untraced and traced rounds alternate, so both run the same
config in the same process and their outputs can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback
from array import array

from calibrate import kernel_seconds
from verify import sha256_file

# Wrapped functions, as each consuming module looks them up:
# (module, attribute, span name). Several lookups of one function share a
# span name, so a layer's calls are counted whichever module makes them.
FUNCTION_TARGETS = (
    ("allz.cli", "run_campaign", "campaign.run_campaign"),
    ("allz.cli", "compute_metrics", "campaign.compute_metrics"),
    ("allz.cli", "record_json_line", "cli.record_json_line"),
    ("allz.campaign", "sample_semiprime", "campaign.sample_semiprime"),
    ("allz.campaign", "random_prime", "campaign.random_prime"),
    ("allz.campaign", "sample_base", "campaign.sample_base"),
    ("allz.campaign", "run_trial", "campaign.run_trial"),
    ("allz.campaign", "compute_metrics", "campaign.compute_metrics"),
    ("allz.campaign", "is_probable_prime", "numtheory.is_probable_prime"),
    ("allz.campaign", "factorize", "numtheory.factorize"),
    ("allz.campaign", "carmichael_exponent", "period_oracle.carmichael_exponent"),
    ("allz.campaign", "multiplicative_order", "period_oracle.multiplicative_order"),
    ("allz.campaign", "all_z", "strategies.all_z"),
    ("allz.campaign", "traditional_shor", "strategies.traditional_shor"),
    ("allz.campaign", "dong2023", "strategies.dong2023"),
    ("allz.numtheory", "is_probable_prime", "numtheory.is_probable_prime"),
    ("allz.period_oracle", "is_probable_prime", "numtheory.is_probable_prime"),
    ("allz.period_oracle", "factorize", "numtheory.factorize"),
    ("allz.strategies", "distinct_primes_bounded", "numtheory.distinct_primes_bounded"),
)
# Methods wrapped on their class: (module, class, attribute, span name).
METHOD_TARGETS = (
    ("allz.campaign", "RandomStream", "next_raw", "campaign.RandomStream.next_raw"),
    ("allz.campaign", "TrialRecord", "from_json_dict", "cli.decode"),
)
ROOT_SPAN = "cli.main"
# A case opens with its one sample_semiprime call; these spans run outside
# any case, so they close the current one on entry and on exit.
CASE_OPENER = "campaign.sample_semiprime"
CASE_FREE = frozenset({"campaign.run_campaign", "campaign.compute_metrics", ROOT_SPAN})
# Spans whose per-call distribution is reported: name -> "total" or "self".
DISTRIBUTIONS = {
    "numtheory.factorize": "total",
    "period_oracle.multiplicative_order": "self",
}


def allz_snapshot() -> dict:
    """Every attribute of every allz module and of the classes they define."""
    snap = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "allz" and not mod_name.startswith("allz."):
            continue
        for attr, value in vars(mod).items():
            snap[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    snap[(mod_name, attr, cattr)] = cvalue
    return snap


def snapshot_equal(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


class Tracer:
    """In-memory spans (name, start, end, parent, case) from wrapped calls.

    Spans are appended to flat arrays while a round runs; `fold` turns one
    round's spans into per-name totals and clears the arrays. Calls made in
    another process (forked pool workers inherit the wrappers) pass straight
    through unrecorded.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._stack = [-1]
        self._case = -1
        self._kept: tuple | None = None
        self._new_arrays()

    def _new_arrays(self) -> None:
        self.name_ids = array("i")
        self.parents = array("q")
        self.cases = array("q")
        self.starts = array("d")
        self.ends = array("d")

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        opens_case = name == CASE_OPENER
        case_free = name in CASE_FREE
        pid = self._pid
        getpid = os.getpid
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if getpid() != pid:
                return fn(*args, **kwargs)
            if opens_case:
                tracer._case += 1
            elif case_free:
                tracer._case = -1
            idx = len(tracer.starts)
            tracer.name_ids.append(nid)
            tracer.parents.append(stack[-1])
            tracer.cases.append(tracer._case)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
                if case_free:
                    tracer._case = -1

        return traced

    def install(self) -> None:
        for mod_name, attr, name in FUNCTION_TARGETS:
            self._patch(sys.modules[mod_name], attr, name)
        for mod_name, cls_name, attr, name in METHOD_TARGETS:
            self._patch(getattr(sys.modules[mod_name], cls_name), attr, name)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__))
        else:
            replacement = self.wrap(name, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fold(self) -> dict:
        """Per-name calls, total and self seconds of this round's spans.

        Also counts run_trial spans per case id (-1: outside any case). The
        first folded round's spans stay in memory for `write_spans`; later
        rounds' are dropped once folded.
        """
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        calls = dict.fromkeys(self.names, 0)
        total = dict.fromkeys(self.names, 0.0)
        self_s = dict.fromkeys(self.names, 0.0)
        dists: dict[str, list[float]] = {name: [] for name in DISTRIBUTIONS}
        run_trials_per_case: dict[int, int] = {}
        for i, nid in enumerate(self.name_ids):
            name = self.names[nid]
            own = dur[i] - child[i]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += own
            kind = DISTRIBUTIONS.get(name)
            if kind is not None:
                dists[name].append(dur[i] if kind == "total" else own)
            if name == "campaign.run_trial":
                case = self.cases[i]
                run_trials_per_case[case] = run_trials_per_case.get(case, 0) + 1
        if self._kept is None:
            self._kept = (self.name_ids, self.parents, self.cases, self.starts, self.ends)
        self._new_arrays()
        self._case = -1
        return {
            "spans": n,
            "calls": calls,
            "total_s": total,
            "self_s": self_s,
            "dists": dists,
            "run_trials_per_case": sorted(run_trials_per_case.items()),
        }

    def write_spans(self, path: str) -> None:
        """Write the first folded round's spans as gzipped TSV, one span a line."""
        name_ids, parents, cases, starts, ends = self._kept or ((),) * 5
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tname\tcase\tparent\tstart_s\tend_s\n")
            for i in range(len(starts)):
                handle.write(
                    f"{i}\t{self.names[name_ids[i]]}\t{cases[i]}\t"
                    f"{parents[i]}\t{starts[i]:.9f}\t{ends[i]:.9f}\n"
                )


def _call_main(main, argv: list[str]) -> tuple[int, float]:
    """One timed `allz.cli.main` call with stdout captured: (exit code, seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails the round, not the benchmark
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
    return code, elapsed


def _kernel_helper(conn) -> None:
    """Time the kernel each time the main process asks; stop on False."""
    kernel_seconds()  # a process's first kernel run is slower
    while conn.recv():
        conn.send(kernel_seconds())


class Calibrator:
    """Times the kernel on as many CPUs at once as the workload keeps busy.

    With more than one, helper processes run the kernel alongside this one,
    so the reading covers every CPU the pool workers run on.
    """

    def __init__(self, procs: int) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conns = []
        self._helpers = []
        for _ in range(procs - 1):
            ours, theirs = ctx.Pipe()
            helper = ctx.Process(target=_kernel_helper, args=(theirs,), daemon=True)
            helper.start()
            self._conns.append(ours)
            self._helpers.append(helper)
        self.measure()  # a process's first kernel run is slower

    def measure(self) -> float:
        """Mean kernel seconds over the processes, run at the same time."""
        for conn in self._conns:
            conn.send(True)
        times = [kernel_seconds()] + [conn.recv() for conn in self._conns]
        return sum(times) / len(times)

    def close(self) -> None:
        for conn in self._conns:
            conn.send(False)
        for helper in self._helpers:
            helper.join(timeout=30)
            if helper.is_alive():
                helper.kill()
                helper.join()


def run(spec: dict) -> dict:
    """Run rounds for `spec["seconds"]`; with tracing, alternate untraced and traced."""
    calibrator = Calibrator(spec["kernel_procs"])
    try:
        return _rounds(spec, calibrator)
    finally:
        calibrator.close()


def _rounds(spec: dict, calibrator: Calibrator) -> dict:
    from allz import cli

    trace = spec["trace"]
    tracer = Tracer() if trace else None
    traced_main = None
    rounds = []
    folds = []
    restored = True
    deadline = time.perf_counter() + spec["seconds"]
    kernel_before = calibrator.measure()
    while True:
        with contextlib.suppress(FileNotFoundError):
            os.remove(spec["output"])
        traced = trace and len(rounds) % 2 == 1
        if traced:
            before = allz_snapshot()
            tracer.install()
            traced_main = traced_main or tracer.wrap(ROOT_SPAN, cli.main)
            try:
                code, elapsed = _call_main(traced_main, spec["argv"])
            finally:
                tracer.uninstall()
            restored = restored and snapshot_equal(before, allz_snapshot())
            folds.append(tracer.fold())
        else:
            code, elapsed = _call_main(cli.main, spec["argv"])
        kernel_after = calibrator.measure()
        rounds.append(
            {
                "traced": traced,
                "seconds": elapsed,
                "kernel_s": (kernel_before + kernel_after) / 2,
                "exit": code,
                "sha256": sha256_file(spec["output"]),
            }
        )
        kernel_before = kernel_after
        if time.perf_counter() >= deadline and (not trace or folds):
            break
    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None and spec.get("spans_out"):
        tracer.write_spans(spec["spans_out"])
    return {
        "rounds": rounds,
        "peak_rss_kib": usage_self.ru_maxrss,
        "peak_worker_rss_kib": usage_children.ru_maxrss,
        "folds": folds,
        "restored": restored,
    }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
