"""Self-check of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

Checks, each printed as PASS or FAIL (exit code 1 on any FAIL):

* BENCHMARK.json lists exactly the workloads and metrics of workloads.py;
* the record verifier rejects corrupted records;
* tracing wraps allz while installed and leaves it unmodified afterwards;
* a tiny run of every workload passes all output checks, untraced and traced;
* two tiny traced runs of a workload give identical counts;
* the report workload's inputs hold int, string, bool and null values;
* run.py exits non-zero, printing no result, where there is no program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))

import child  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

_failures: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}", flush=True)
    if not ok:
        _failures.append(name)


def run_bench(*args: str, cwd: str | None = None) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd or ".", "perfbench", "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_manifest() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    check(
        "BENCHMARK.json workloads match workloads.py",
        [(w["name"], w["why"]) for w in bench["workloads"]] == [(k, v["why"]) for k, v in WORKLOADS.items()],
    )
    check(
        "BENCHMARK.json end_to_end matches workloads.py",
        [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END),
    )
    check(
        "BENCHMARK.json per_layer matches workloads.py",
        [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        == [entry[:3] for entry in PER_LAYER],
    )


def check_verifier(work: str) -> None:
    config = run.campaign_config("sample7", 0, "tiny")
    path = os.path.join(work, "verifier.jsonl")
    run._write_config(os.path.join(work, "verifier.json"), config)
    run._cli_in_process(["campaign", "--config", os.path.join(work, "verifier.json"), "--out", path])
    records, bad, whole = verify.check_campaign_file(path, config)
    check("verifier accepts the program's records", not bad and not whole, "; ".join((bad + whole)[:3]))
    rec = records[0]
    corruptions = {
        "r doubled": {"r": rec["r"] * 2},
        "r halved": {"r": rec["r"] // 2 if rec["r"] % 2 == 0 else rec["r"] * 3},
        "wrong factor": {"factor": rec["p"] + 2},
        "n not p*q": {"n": rec["n"] + 2},
        "error set": {"error": "boom"},
        "r_even flipped": {"r_even": not rec["r_even"]},
    }
    for label, change in corruptions.items():
        check(f"verifier rejects a record with {label}", verify.record_problem({**rec, **change}, config) is not None)


def check_tracer_restores(work: str) -> None:
    from allz import cli

    config_path = os.path.join(work, "tracer.json")
    run._write_config(config_path, run.campaign_config("retry12", 0, "tiny"))
    argv = ["campaign", "--config", config_path, "--out", os.path.join(work, "tracer.jsonl")]
    before = child.allz_snapshot()
    tracer = child.Tracer()
    tracer.install()
    try:
        check("tracer changes allz while installed", not child.snapshot_equal(before, child.allz_snapshot()))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    finally:
        tracer.uninstall()
    check("tracer leaves allz unmodified after a traced run", child.snapshot_equal(before, child.allz_snapshot()))
    calls = tracer.fold()["calls"]
    check("tracer counted the campaign's calls", calls.get("campaign.sample_semiprime") == 100)


def check_tiny_runs() -> None:
    counts = {}
    for workload in WORKLOADS:
        for trace in ("0", "1", "1"):
            code, lines = run_bench(
                "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace, "--size", "tiny"
            )
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            ok = code == 0 and result.get("correct") is True and result.get("failed") == 0
            check(f"tiny {workload} run, trace {trace}, passes its output checks", ok, "\n".join(lines[-8:]))
            if trace == "1" and ok:
                counts.setdefault(workload, []).append(
                    {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
                )
        runs = counts.get(workload, [])
        check(f"two traced {workload} runs give identical counts", len(runs) == 2 and runs[0] == runs[1])


def check_report_mix(work: str) -> None:
    kinds: dict[str, set[str]] = {}
    for index, config in enumerate(run.report_part_configs(0, "standard")):
        cfg_path = os.path.join(work, f"mix{index}.json")
        out = os.path.join(work, f"mix{index}.jsonl")
        run._write_config(cfg_path, config)
        run._cli_in_process(["campaign", "--config", cfg_path, "--out", out])
        with open(out, encoding="utf-8") as handle:
            for line in handle:
                for key, value in json.loads(line).items():
                    kinds.setdefault(key, set()).add(type(value).__name__)
    seen = set().union(*kinds.values())
    check("report inputs hold int, str, bool and null values", {"int", "str", "bool", "NoneType"} <= seen)
    check("report inputs' succeeded_z is int, str and null", kinds["succeeded_z"] >= {"int", "str", "NoneType"})


def check_bare_directory(work: str) -> None:
    bare = os.path.join(work, "bare")
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("--workload", "sample7", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    check("run.py fails without the program", code != 0 and not any(line.startswith("{") for line in lines))


def main() -> int:
    if not os.path.isfile(os.path.join("src", "allz", "cli.py")):
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK_ROOT)
    try:
        check_manifest()
        check_verifier(work)
        check_tracer_restores(work)
        check_report_mix(work)
        check_bare_directory(work)
        check_tiny_runs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'FAIL' if _failures else 'PASS'}: {len(_failures)} check(s) failed")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
