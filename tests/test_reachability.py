"""Dead code cannot hide: every function in `src/allz` that no command calls
is on a committed allowlist, with the reason it stays.

A fresh interpreter installs a `sys.setprofile` hook before it imports
`allz`, so import-time calls count, and runs a list of commands through
`allz.cli.main`. Functions are keyed by their code objects' file, first
line and name (3.10 has no `co_qualname`), and named by the nesting of
those code objects. Lambdas and comprehensions have no name to list, and
whether a comprehension is a function of its own depends on the version,
so they are left out.
"""

import json
import os
import subprocess
import sys

import pytest
from conftest import subprocess_env


# Functions no command below calls, each with the reason it stays.
ALLOWLIST = {
    "fanout._helper": "runs in a helper process",
    "fanout._parsed_chunks": "runs in a helper process",
    "cli.run": "the console entry; the commands run through main",
    "numtheory.Factorization.__setattr__": "a value-type guard",
    "numtheory.Factorization.__delattr__": "a value-type guard",
    "numtheory.Factorization.__reduce__": "a value-type protocol method",
    "numtheory.Factorization.__eq__": "a value-type protocol method",
    "numtheory.Factorization.__hash__": "a value-type protocol method",
    "numtheory.Factorization.__repr__": "a value-type protocol method",
    "numtheory.Factorization.distinct_primes": "an acceptance criterion uses it",
    "campaign.cochran_sample_size": "an acceptance criterion uses it",
    "campaign._as_fraction": "an acceptance criterion uses it",
    "campaign.CampaignStats.__eq__": "an acceptance criterion uses it",
    "campaign.CampaignStats.__repr__": "an acceptance criterion uses it",
    "campaign.TrialRecord.to_json_dict": "tests compare the line encoder against it",
    "campaign.random_prime": "a benchmark tracer target",
    "campaign.compute_metrics": "a benchmark tracer target",
    "campaign.run_campaign": "a benchmark tracer target",
    "period_oracle.carmichael_exponent": "a benchmark tracer target",
    "numtheory.distinct_primes_bounded": "a benchmark tracer target",
    "campaign._QuotedStrings.__missing__": "only a library caller reaches it",
}

PROBE = r"""
import contextlib, io, json, os, signal, sys, types

called = set()
stop_next_block = False


def record(code):
    called.add((os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name))


def hook(frame, event, arg):
    global stop_next_block
    if event == "call":
        record(frame.f_code)
        if stop_next_block and frame.f_code.co_name == "_run_block":
            stop_next_block = False
            try:
                os.kill(os.getpid(), signal.SIGTERM)
            except BaseException as exc:
                # The handler ran here, inside the hook, where no call is
                # seen; the traceback of what it raised names it. Raised on,
                # the exception leaves from _run_block, and the hook is off
                # until the next command.
                tb = exc.__traceback__
                while tb is not None:
                    record(tb.tb_frame.f_code)
                    tb = tb.tb_next
                raise


sys.setprofile(hook)
from allz import cli  # noqa: E402  (after the hook, so import-time calls count)

work = sys.argv[1]
codes = []
for argv, setting in json.loads(sys.argv[2]):
    # "stdout-full": standard output on /dev/full; "sigterm": SIGTERM as the
    # campaign's first block starts.
    stop_next_block = setting == "sigterm"
    sys.setprofile(hook)
    sink = open("/dev/full", "w") if setting == "stdout-full" else io.StringIO()
    with sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main([arg.format(work=work) for arg in argv]))
        except SystemExit as exc:  # argparse refuses the command line
            codes.append(exc.code)
sys.setprofile(None)

package = os.path.dirname(os.path.realpath(cli.__file__))
uncalled = []
for name in sorted(os.listdir(package)):
    if not name.endswith(".py"):
        continue
    path = os.path.join(package, name)
    with open(path, encoding="utf-8") as handle:
        module = compile(handle.read(), path, "exec")
    stack = [(module, name[:-3] + ".")]
    while stack:
        code, prefix = stack.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                if (path, const.co_firstlineno, const.co_name) not in called:
                    uncalled.append(prefix + const.co_name)
                stack.append((const, prefix + const.co_name + "."))
print(json.dumps({"codes": codes, "uncalled": sorted(uncalled)}))
"""


def commands():
    """Each command, its setting for the probe, and the exit code it must give."""
    out = []
    for digits in range(2, 13):
        for strategy in ("traditional", "dong2023", "allz"):
            for mode in ("random", "perfect_square"):
                argv = ["campaign", "--digits", str(digits), "--trials", "40", "--retries", "2"]
                out.append((argv + ["--strategy", strategy, "--base-mode", mode], "", 0))
    results = "{work}/r.jsonl"
    out += [
        (["campaign", "--digits", "6", "--trials", "600", "--workers", "2", "--bound", "9",
          "--out", results], "", 0),
        (["campaign", "--config", "{work}/config.json"], "", 0),
        (["campaign", "--digits", "4", "--trials", "300", "--out", "/dev/full"], "", 3),
        (["campaign", "--digits", "7", "--trials", "600", "--out", "{work}/s.jsonl"], "sigterm", 143),
        (["report", "--in", results], "", 0),
        (["report", "--in", results, "--format", "json", "--out", "{work}/r.json"], "", 0),
        (["report", "--in", results, "--format", "csv", "--out", "{work}/r.csv"], "", 0),
        (["report", "--in", "{work}/bad.jsonl"], "", 2),
        (["factor", "1000000016000000063", "--bound", "99"], "", 0),
        (["factor", "2540107", "--base", "1316667"], "", 1),
        (["factor", "1406371", "--auto-base", "perfect_square", "--seed", "3"], "", 0),
        (["factor", "21", "--base", "14"], "", 0),
        (["order", "3825123056546413051", "2"], "", 0),
        (["order", "1406371", "36"], "", 0),
        (["verify-paper"], "", 0),
        (["verify-paper"], "stdout-full", 3),
        (["--help"], "", 0),
        (["campaign", "--help"], "stdout-full", 3),
        # Invalid inputs.
        (["factor", "7"], "", 2),
        (["factor", "21", "--base", "22"], "", 2),
        (["order", "10", "4"], "", 2),
        (["campaign", "--digits", "1", "--trials", "3"], "", 2),
        (["campaign", "--digits", "4", "--trials", "3", "--out", ""], "", 3),
        (["report", "--in", "{work}/missing.jsonl"], "", 3),
        (["factor", "x"], "", 2),
    ]
    return out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
def test_every_function_no_command_calls_is_allowlisted(tmp_path):
    (tmp_path / "config.json").write_text('{"digits": 5, "trials": 50, "strategy": "dong2023"}')
    (tmp_path / "bad.jsonl").write_text("{}\n")
    argvs, settings, codes = zip(*commands())
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path), json.dumps(list(zip(argvs, settings)))],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == list(codes)
    # A new function no command calls fails here, and so does an allowlisted
    # one that a command now calls.
    assert result["uncalled"] == sorted(ALLOWLIST)
