"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --runs 10 [--workloads sample7 report] [--first-seed 1]
        [--baseline perfbench/baseline.json --commit <id>]

For every workload it runs `perfbench/run.py --trace 0` once per seed and
prints, per end-to-end metric, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. With
`--baseline` it also makes one traced run per workload at the default seed
and writes everything, with the machine it ran on, to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import DEFAULT_SEED, PER_LAYER, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=tuple(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--baseline", help="write medians, spreads and a traced run to this file")
    parser.add_argument("--commit", default="unknown", help="commit id recorded in --baseline")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, bench["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: output checks failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            summary[workload][name] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread, "values": vals,
            }
            mark = "steady" if spread < bounds[name] / 3 else ("within bound" if spread <= bounds[name] else "TOO WIDE")
            if name != "setup_s" and spread > bounds[name] / 3:
                steady = False
            print(
                f"{workload:10s} {name:14s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                f"spread {spread:.4f}  bound {bounds[name]}  {mark}",
                flush=True,
            )
    if args.baseline:
        traced = {}
        for workload in args.workloads:
            result = run_once(workload, DEFAULT_SEED, bench["run_seconds"], 1)
            traced[workload] = {name: m["value"] for name, m in result["metrics"].items()}
        layer_map = {
            name: {"layer": layer, "moves": moves, "on": list(on)}
            for name, _unit, _better, layer, moves, on in PER_LAYER
        }
        baseline = {
            "commit": args.commit,
            "default_seed": DEFAULT_SEED,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": bench["run_seconds"],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.processor() or platform.machine(),
            "end_to_end": summary,
            "per_layer_default_seed": traced,
            "layer_map": layer_map,
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
