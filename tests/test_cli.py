"""End-to-end CLI tests: exit codes, wire formats, and report artifacts."""

import argparse
import contextlib
import csv
import itertools
import json
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import allz
import allz.cli
from allz import campaign, fanout
from allz.campaign import (
    CampaignConfig,
    TrialRecord,
    compute_metrics,
    record_from_json_line,
    run_campaign,
)
from allz.cli import _fixed6_ratio, main, record_json_line

SRC_DIR = os.path.dirname(os.path.dirname(allz.__file__))


def _is_running(pid):
    """Whether the process exists and has not exited: an orphan that has
    exited stays a zombie until its new parent reaps it."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record_json_line(record) + "\n")


class TestFactorCommand:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "21", "--base", "2", "--strategy", "allz")
        assert code == 0
        payload = json.loads(out)
        assert payload["factor"] == 7
        assert payload["cofactor"] == 3
        assert payload["r"] == 6
        assert payload["witness"]["divisor_z"] == 2

    def test_reference_failure(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "2540107", "--base", "1316667")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "failure"
        assert payload["r"] == 27
        assert [att["divisor_z"] for att in payload["attempts"]] == [3]

    def test_prime_input_rejected(self, capsys):
        code, out, err = run_cli(capsys, "factor", "17", "--base", "3")
        assert code == 2
        assert "prime" in err

    def test_small_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "4")
        assert code == 2

    def test_bad_base_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "21", "--base", "1")
        assert code == 2
        code, _, err = run_cli(capsys, "factor", "21", "--base", "21")
        assert code == 2

    def test_shared_factor_base_shortcuts(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "21", "--base", "14")
        assert code == 0
        payload = json.loads(out)
        assert payload["factor"] == 7
        assert payload["witness"]["kind"] == "gcd_shortcut"
        assert payload["r"] is None

    def test_auto_base_is_seeded(self, capsys):
        code1, out1, _ = run_cli(capsys, "factor", "3622301", "--auto-base", "random", "--seed", "5")
        code2, out2, _ = run_cli(capsys, "factor", "3622301", "--auto-base", "random", "--seed", "5")
        assert out1 == out2

    def test_traditional_strategy_selectable(self, capsys):
        code, out, _ = run_cli(
            capsys, "factor", "2540107", "--base", "1316667", "--strategy", "traditional"
        )
        assert code == 1
        assert json.loads(out)["attempts"] == []


class TestInputBoundary:
    """Inputs the number theory cannot take end in one error line, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "21", "--bound", "1"],
            ["factor", "21", "--base", "2", "--bound", "0"],
            ["factor", str(1 << 64)],
            ["factor", str((1 << 64) + 1), "--base", "2"],
            ["order", str(1 << 64), "3"],
            ["order", str(3**41), "2"],
            ["factor", "6", "--auto-base", "perfect_square"],
            ["factor", "30", "--auto-base", "perfect_square"],
        ],
    )
    def test_rejected_without_traceback(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "allz.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


def test_import_builds_no_class_sieve():
    # Every CLI call pays the import; a prime class's sieve waits for its
    # first draw, and the odd factor table for its first lookup. Only a
    # campaign with helper processes imports multiprocessing, only a
    # report or such a campaign allz.fanout, and only a CSV report csv.
    # No command loads dataclasses (with inspect) or fractions (with
    # decimal): `cochran_sample_size` imports fractions on its first call.
    # Run without `site`, so that only what the import itself loads is in
    # sys.modules.
    code = (
        "import sys, allz.cli; print(allz.campaign._prime_draw_params.cache_info().currsize,"
        " allz.numtheory._odd_factor_table.cache_info().currsize,"
        " *(m in sys.modules for m in"
        " ('multiprocessing', 'allz.fanout', 'csv', 'dataclasses', 'inspect', 'fractions',"
        " 'decimal')));"
        " print(allz.campaign.cochran_sample_size(0.5, 0.01, 1.96) == 9604"
        " and 'fractions' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (
        0,
        "0 0 False False False False False False False\nTrue\n",
    ), proc.stderr


def test_pool_starts_without_building_the_odd_factor_table():
    # An 8-digit campaign draws 4-digit primes, which never read the odd
    # factor table, so one on two workers leaves it unbuilt in this process,
    # though this process runs half the blocks; a process that needs it
    # builds its own. Run fresh, so no earlier test has built it, with two
    # usable CPUs, so the helper really starts.
    code = (
        "import sys\n"
        "from allz import campaign, numtheory\n"
        "campaign._usable_cpus = lambda: 2\n"
        "config = campaign.CampaignConfig(digits=8, trials=600, workers=2)\n"
        "assert len(campaign.run_campaign(config).records) == 600\n"
        "print('multiprocessing' in sys.modules, numtheory._odd_factor_table.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "True 0\n"), proc.stderr


class TestRhoExhaustion:
    """A factorization that rho gives up on ends in one error line, exit 3."""

    N = 10007 * 10009  # no prime factor below 10**4, so factoring needs rho

    @pytest.mark.parametrize("argv", [["factor", str(N), "--base", "2"], ["order", str(N), "2"]])
    def test_exit_3_without_traceback(self, capsys, monkeypatch, argv):
        def exhausted(n):
            raise ArithmeticError(f"rho parameter schedule exhausted for {n}")

        monkeypatch.setattr("allz.numtheory._brent_rho", exhausted)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"error: rho parameter schedule exhausted for {self.N}\n"


class TestOrderCommand:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "order", "15", "2")
        assert code == 0
        assert json.loads(out) == {"n": 15, "a": 2, "r": 4, "factors": {"2": 2}}

    def test_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, "order", "1406371", "36")
        assert code == 0
        assert json.loads(out) == {
            "n": 1406371,
            "a": 36,
            "r": 15,
            "factors": {"3": 1, "5": 1},
        }

    def test_shared_factor(self, capsys):
        code, _, err = run_cli(capsys, "order", "15", "5")
        assert code == 2
        assert "5" in err


class TestCampaignCommand:
    def test_writes_jsonl_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "r.jsonl"
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "--digits", "4",
            "--trials", "50",
            "--strategy", "allz",
            "--base-mode", "random",
            "--seed", "42",
            "--out", str(out_path),
        )
        assert code == 0
        assert "success rate:" in out
        lines = out_path.read_bytes().splitlines()
        assert len(lines) == 50
        records = [record_from_json_line(line) for line in lines]
        assert [r.case_id for r in records] == list(range(50))

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "campaign", "--digits", "4", "--trials", "40", "--seed", "9",
        ]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(capsys, *args, "--out", str(p1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_trials_zero_writes_empty_file(self, capsys, tmp_path):
        out_path = tmp_path / "empty.jsonl"
        code, out, _ = run_cli(
            capsys, "campaign", "--digits", "4", "--trials", "0", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_bytes() == b""
        assert "trials: 0" in out

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(
            json.dumps({"digits": 4, "trials": 30, "strategy": "traditional", "master_seed": 1})
        )
        out_path = tmp_path / "c.jsonl"
        code, out, _ = run_cli(
            capsys,
            "campaign", "--config", str(config_path), "--trials", "10", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 10  # flag wins over file
        assert json.loads(lines[0])["strategy"] == "traditional"

    def test_invalid_config_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "campaign", "--digits", "1", "--trials", "5")
        assert code == 2
        code, _, err = run_cli(capsys, "campaign", "--trials", "5")
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"digits": 4, "trials": 5, "bogus_key": 1}))
        code, _, err = run_cli(capsys, "campaign", "--config", str(bad))
        assert code == 2

    @pytest.mark.parametrize("key", ["count", "index", "_replace"])
    def test_tuple_attribute_config_key_exits_2(self, capsys, tmp_path, key):
        # The config is a named tuple; its methods are no settings.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"digits": 4, "trials": 5, key: 1}))
        code, out, err = run_cli(capsys, "campaign", "--config", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: invalid campaign configuration: unknown config keys: {[key]}\n"

    def test_deeply_nested_config_exits_2_with_one_line(self, capsys, tmp_path):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 200_000)
        code, out, err = run_cli(capsys, "campaign", "--config", str(nested))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid campaign configuration: ")
        assert err.count("\n") == 1

    def test_unwritable_output_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "campaign", "--digits", "4", "--trials", "1",
            "--out", "/nonexistent-dir/deep/r.jsonl",
        )
        assert code == 3

    def test_sampling_budget_exhausted_exits_3(self, capsys, monkeypatch, tmp_path):
        # Case 0 of master seed 0 draws a composite first 4-digit candidate,
        # so a budget of one draw runs out on the first prime.
        monkeypatch.setattr(campaign, "_SAMPLING_CAP", 1)
        out_path = tmp_path / "r.jsonl"
        code, out, err = run_cli(
            capsys,
            "campaign", "--digits", "7", "--trials", "1", "--seed", "0", "--out", str(out_path),
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal sampling failure: ")
        assert err.count("\n") == 1
        assert not out_path.exists()  # no partial file that looks complete

    def test_unwritable_output_fails_before_any_case(self, capsys, monkeypatch, tmp_path):
        def no_case(config, case_id):
            raise AssertionError("a case ran")

        monkeypatch.setattr(campaign, "_execute_case", no_case)
        code, out, err = run_cli(
            capsys,
            "campaign", "--digits", "4", "--trials", "600",
            "--out", str(tmp_path / "missing" / "r.jsonl"),
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: cannot write ")
        assert err.count("\n") == 1

    def test_directory_output_fails_before_any_case(self, capsys, monkeypatch, tmp_path):
        def no_case(config, case_id):
            raise AssertionError("a case ran")

        monkeypatch.setattr(campaign, "_execute_case", no_case)
        code, out, err = run_cli(
            capsys, "campaign", "--digits", "4", "--trials", "600", "--out", str(tmp_path)
        )
        assert (code, out, err) == (3, "", f"error: cannot write {tmp_path}: it is a directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_empty_output_path_fails_before_any_case(self, capsys, monkeypatch, tmp_path):
        # An empty --out names no file; it is not taken as no --out at all,
        # nor as the working directory. The error is the one `report` prints.
        def no_case(config, case_id):
            raise AssertionError("a case ran")

        monkeypatch.setattr(campaign, "_execute_case", no_case)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "campaign", "--digits", "4", "--trials", "3", "--out", "")
        assert (code, out, err) == (
            3, "", "error: cannot write : [Errno 2] No such file or directory: ''\n"
        )
        assert list(tmp_path.iterdir()) == []
        # Nor a temporary file beside the working directory.
        assert list(tmp_path.parent.glob(f"{tmp_path.name}.*")) == []

    def test_output_bytes_match_at_every_worker_count(self, capsys, tmp_path):
        config = CampaignConfig(digits=5, trials=600, master_seed=9)  # 3 blocks
        want = "".join(record_json_line(r) + "\n" for r in run_campaign(config).records)
        for workers in (1, 2, 4):
            out_path = tmp_path / f"w{workers}.jsonl"
            code, _, _ = run_cli(
                capsys,
                "campaign", "--digits", "5", "--trials", "600", "--seed", "9",
                "--workers", str(workers), "--out", str(out_path),
            )
            assert code == 0
            assert out_path.read_bytes() == want.encode()
        # Each run left its results file and nothing else.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w1.jsonl", "w2.jsonl", "w4.jsonl"]

    def test_helper_error_exits_3_like_a_serial_run(self, capsys, monkeypatch, tmp_path):
        # A forked helper inherits the patch; this process runs its blocks as usual.
        main_pid = os.getpid()
        run_block = campaign._run_block

        def failing_in_helpers(config, lo):
            if os.getpid() != main_pid:
                raise RuntimeError(f"no prime drawn for case {lo}")
            return run_block(config, lo)

        monkeypatch.setattr(campaign, "_run_block", failing_in_helpers)
        monkeypatch.setattr(campaign, "_usable_cpus", lambda: 2)
        out_path = tmp_path / "r.jsonl"
        code, out, err = run_cli(
            capsys,
            "campaign", "--digits", "4", "--trials", "600", "--workers", "2",
            "--out", str(out_path),
        )
        assert (code, out) == (3, "")
        assert err == "error: internal sampling failure: no prime drawn for case 256\n"
        assert list(tmp_path.iterdir()) == []  # no results file and no temporary file
        assert multiprocessing.active_children() == []

    def test_helper_death_exits_3_without_hanging(self, tmp_path):
        # A helper that exits partway through a block ends its pipe, so the
        # main process stops at that block instead of waiting on it forever.
        out_path = tmp_path / "r.jsonl"
        code = (
            "import os, sys\n"
            "from allz import campaign, cli\n"
            "main_pid = os.getpid()\n"
            "execute = campaign._execute_case\n"
            "def dying(config, case_id):\n"
            "    if os.getpid() != main_pid and case_id == 300:\n"
            "        os._exit(1)\n"
            "    return execute(config, case_id)\n"
            "campaign._execute_case = dying\n"
            "campaign._usable_cpus = lambda: 2\n"
            "sys.exit(cli.main(['campaign', '--digits', '7', '--trials', '2000',"
            f" '--workers', '2', '--out', {str(out_path)!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: campaign I/O failure: helper process exited with code 1"
            " before sending case 256\n"
        )
        assert list(tmp_path.iterdir()) == []  # no results file and no temporary file

    def test_ctrl_c_exits_130_and_leaves_no_file(self, tmp_path):
        # SIGINT goes to the campaign's whole process group, as Ctrl-C sends
        # it, once the helper's first block is in the temporary file.
        out_path = tmp_path / "r.jsonl"
        code = (
            "import sys\n"
            "from allz import campaign, cli\n"
            "campaign._usable_cpus = lambda: 2\n"
            "sys.exit(cli.main(['campaign', '--digits', '8', '--trials', '1000000',"
            f" '--workers', '2', '--out', {str(out_path)!r}]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not any(p.read_bytes().count(b"\n") >= 512 for p in tmp_path.iterdir()):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            # Whatever happened above, leave no process of the campaign behind.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert (proc.returncode, out, err) == (130, "", "error: campaign interrupted\n")
        assert list(tmp_path.iterdir()) == []  # no results file and no temporary file
        with pytest.raises(ProcessLookupError):  # no helper left in the group
            os.killpg(proc.pid, 0)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads /proc")
    @pytest.mark.parametrize(
        ("command", "signum"),
        [
            *(
                pytest.param("campaign", signum, id=signum.name)
                for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGKILL)
            ),
            *(
                pytest.param("report", signum, id=f"report-{signum.name}")
                for signum in (signal.SIGTERM, signal.SIGKILL)
            ),
        ],
    )
    def test_signal_to_the_main_process_leaves_no_helper(
        self, tmp_path, report_lines, command, signum
    ):
        # Only the main process is signalled, as `kill` or a runner's timeout
        # does. A campaign's SIGTERM and SIGHUP take the Ctrl-C path; a
        # report has no handler. Once the main process is gone, the helper's
        # next send fails, since it holds no reading end of its pipe.
        if command == "campaign":
            out_path = tmp_path / "r.jsonl"
            code = (
                "import sys\n"
                "from allz import campaign, cli\n"
                "campaign._usable_cpus = lambda: 2\n"
                "sys.exit(cli.main(['campaign', '--digits', '8', '--trials', '3000000',"
                f" '--workers', '2', '--out', {str(out_path)!r}]))\n"
            )
        else:
            src = tmp_path / "in" / "r.jsonl"
            src.parent.mkdir()
            write_lines(src, lines_of_size(report_lines, 4 * MIB))
            # This process takes in a chunk in 0.1 s, so the helper, which
            # parses it faster, is soon waiting on its full pipe. With
            # multiprocessing loaded, 4 MiB take a helper.
            code = (
                "import multiprocessing, sys, time\n"
                "from allz import campaign, cli\n"
                "campaign._usable_cpus = lambda: 2\n"
                "add = campaign.RecordTally.add\n"
                "def slow_add(tally, records):\n"
                "    time.sleep(0.1)\n"
                "    add(tally, records)\n"
                "campaign.RecordTally.add = slow_add\n"
                f"sys.exit(cli.main(['report', '--in', {str(src)!r}]))\n"
            )
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            start_new_session=True,
        )
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        helpers = []
        try:
            # Once the helper runs, and a campaign's first block is in the
            # temporary file; a report's helper gets half a second.
            deadline = time.monotonic() + 60
            while not helpers or (
                command == "campaign" and not any(p.stat().st_size for p in tmp_path.iterdir())
            ):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
                with open(children, encoding="ascii") as handle:
                    helpers = [int(pid) for pid in handle.read().split()]
            if command == "report":
                time.sleep(0.5)
                assert proc.poll() is None
            os.kill(proc.pid, signum)
            out, err = proc.communicate(timeout=60)
            deadline = time.monotonic() + 30
            while left := [pid for pid in helpers if _is_running(pid)]:
                assert time.monotonic() < deadline, f"helpers {left} outlived the {command}"
                time.sleep(0.05)
        finally:
            # Whatever happened above, leave no process of the command behind.
            for pid in helpers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert len(helpers) == 1
        if signum == signal.SIGKILL or command == "report":
            assert (proc.returncode, out, err) == (-signum, "", "")
            return
        name = signal.Signals(signum).name
        assert (proc.returncode, out) == (128 + signum, "")
        assert err == f"error: campaign stopped by {name}\n"
        assert list(tmp_path.iterdir()) == []  # no results file and no temporary file

    def test_failed_rerun_keeps_the_earlier_results(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "r.jsonl"
        argv = ("campaign", "--digits", "7", "--trials", "300", "--out", str(out_path))
        assert run_cli(capsys, *argv)[0] == 0
        earlier = out_path.read_bytes()
        # The rerun fails on its second block, after the first is written.
        run_block = campaign._run_block

        def failing_after_the_first_block(config, lo):
            if lo:
                raise RuntimeError(f"no prime drawn for case {lo}")
            return run_block(config, lo)

        monkeypatch.setattr(campaign, "_run_block", failing_after_the_first_block)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: internal sampling failure: no prime drawn for case 256\n"
        assert list(tmp_path.iterdir()) == [out_path]
        assert out_path.read_bytes() == earlier

    SMALL = ("campaign", "--digits", "4", "--trials", "3")

    def small_campaign_bytes(self, capsys, tmp_path):
        direct = tmp_path / "direct.jsonl"
        assert run_cli(capsys, *self.SMALL, "--out", str(direct))[0] == 0
        return direct.read_bytes()

    def test_out_through_a_symlink_replaces_its_target(self, capsys, tmp_path):
        expected = self.small_campaign_bytes(capsys, tmp_path)
        target, new_target = tmp_path / "target.jsonl", tmp_path / "new.jsonl"
        target.write_bytes(b"older results\n")
        link, dangling = tmp_path / "link.jsonl", tmp_path / "dangling.jsonl"
        link.symlink_to(target)
        dangling.symlink_to(new_target)
        for path in (link, dangling):
            assert run_cli(capsys, *self.SMALL, "--out", str(path))[0] == 0
            assert path.is_symlink() and path.read_bytes() == expected
        assert target.read_bytes() == new_target.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dangling.jsonl", "direct.jsonl", "link.jsonl", "new.jsonl", "target.jsonl"
        ]

    def test_out_through_a_symlink_to_a_device_writes_into_it(self, capsys, tmp_path):
        link = tmp_path / "link.jsonl"
        link.symlink_to(os.devnull)
        assert run_cli(capsys, *self.SMALL, "--out", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == os.devnull
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert list(tmp_path.iterdir()) == [link]

    def test_out_to_a_fifo_writes_into_it(self, capsys, tmp_path):
        expected = self.small_campaign_bytes(capsys, tmp_path)
        fifo = tmp_path / "fifo.jsonl"
        os.mkfifo(fifo)
        # Open first and without blocking, so the campaign's open finds a
        # reader, and so a campaign that never opens the FIFO cannot hang this.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli(capsys, *self.SMALL, "--out", str(fifo))[0] == 0
            received = b""
            while chunk := os.read(reader, 1 << 16):
                received += chunk
        finally:
            os.close(reader)
        assert received == expected
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.jsonl", "fifo.jsonl"]

    def test_stale_temporary_file_is_passed_by(self, capsys, tmp_path):
        expected = self.small_campaign_bytes(capsys, tmp_path)
        out_path = tmp_path / "out.jsonl"
        # What a run killed outright, whose PID this process now has, left behind.
        stale = tmp_path / f"out.jsonl.{os.getpid()}.tmp"
        stale.write_bytes(b"stale\n")
        code, _, err = run_cli(capsys, *self.SMALL, "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out_path.read_bytes() == expected
        assert stale.read_bytes() == b"stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "direct.jsonl", "out.jsonl", stale.name
        ]

    def test_rerun_keeps_the_results_file_mode(self, capsys, tmp_path):
        out_path, plain = tmp_path / "r.jsonl", tmp_path / "plain"
        plain.write_bytes(b"")
        assert run_cli(capsys, *self.SMALL, "--out", str(out_path))[0] == 0
        # A new results file gets the mode a plain open gives.
        assert stat.S_IMODE(out_path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        for mode in (0o600, 0o640, 0o444):
            out_path.chmod(mode)
            assert run_cli(capsys, *self.SMALL, "--out", str(out_path))[0] == 0
            assert stat.S_IMODE(out_path.stat().st_mode) == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "r.jsonl"]


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(-1, 3), "-0.333333"),
        (Fraction(-2, 3), "-0.666667"),  # the magnitude rounds up at the sixth decimal
        (Fraction(-1, 2_000_000), "-0.000001"),  # half rounds away from zero
        (Fraction(0), "0.000000"),
        (Fraction(2, 3), "0.666667"),
    ],
)
def test_fixed6(value, text):
    assert _fixed6_ratio(value.numerator, value.denominator) == text


def _fixed6_of_fraction(numerator, denominator):
    """The rendering from `Fraction`s, as the CLI made it before it rendered
    from integer pairs: 0/0 as 0, otherwise the reduced fraction."""
    value = Fraction(numerator, denominator) if denominator else Fraction(0)
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    scaled = (num * 2_000_000 + den) // (2 * den)
    return f"{sign}{scaled // 1_000_000}.{scaled % 1_000_000:06d}"


def test_fixed6_ratio_matches_fraction_rendering():
    # Unreduced pairs (2/4, 2_000_000/4_000_000), every half-way case at
    # the sixth decimal (den 2_000_000 and its multiples), 0/0 and signs.
    nums = [*range(-41, 42), 999_999, 1_000_001, 2_000_000, 3_999_999, 10**12 + 7]
    dens = [
        *range(61), 64, 96, 999, 1000, 1001, 2_000_000, 4_000_000, 6_000_000,
        999_999, 10**12,
    ]
    for num in nums:
        for den in dens:
            assert _fixed6_ratio(num, den) == _fixed6_of_fraction(num, den), (num, den)
    assert _fixed6_ratio(0, 0) == _fixed6_ratio(5, 0) == "0.000000"
    assert _fixed6_ratio(2, 4) == _fixed6_ratio(1, 2) == "0.500000"
    assert _fixed6_ratio(1, 2_000_000) == "0.000001"
    assert _fixed6_ratio(3, 2_000_000) == "0.000002"


@pytest.fixture(scope="module")
def sample_records():
    result = run_campaign(
        CampaignConfig(digits=4, trials=120, master_seed=3, strategy="allz")
    )
    return result.records


# Reads that cut the input into chunks of one line each (a byte at a time),
# of about three record lines, and of 64 bytes (lines span reads).
CHUNK_READS = ("one line", "three lines", "64 bytes")


def set_chunk_bytes(monkeypatch, read, line):
    """Make `report` read `read` at a time; `line` is a typical record line."""
    size = {"one line": 1, "three lines": 3 * len(line), "64 bytes": 64}[read]
    monkeypatch.setattr(campaign, "_CHUNK_BYTES", size)


def check_malformed_lines(capsys, tmp_path, sample_records):
    """Every bad line among good ones exits 2 naming `path:3`."""
    good = sample_records[2].to_json_dict()
    assert good["status"] == "success" and good["error"] is None and good["r"] == 792
    odd = sample_records[0].to_json_dict()
    assert odd["r"] % 2 == 1 and odd["half_power_is_minus_one"] is None
    # A real poisoned record: the base 22 is not below n = 21.
    case = campaign.TrialCase(2, campaign.Semiprime(21, 3, 7), 22, "random", 0)
    poisoned = campaign.run_trial(case, "allz").to_json_dict()
    assert TrialRecord.from_json_dict(poisoned).error is not None
    shortcut = {"status": "success", "factor": 3, "succeeded_z": "shortcut", "resolved": True}
    case = campaign.TrialCase(2, campaign.Semiprime(21, 3, 7), 6, "random", 0)
    gcd_shortcut = campaign.run_trial(case, "allz").to_json_dict()
    assert TrialRecord.from_json_dict(gcd_shortcut).succeeded_z == "shortcut"
    five = run_campaign(CampaignConfig(digits=5, trials=1, master_seed=0)).records[0].to_json_dict()
    assert (five["r"], five["r_distinct_primes"]) == (33998, 3)  # 2 * 89 * 191
    for bad in (
        "{not json",
        "[1]",
        '{"n": ' + "9" * 5000 + "}",  # beyond the int conversion limit
        json.dumps({**good, "gcd_count": "x"}),
        json.dumps({**good, "n": True}),  # a bool is not an int
        json.dumps({**good, "failed_z": ["3"]}),
        json.dumps({**good, "succeeded_z": 1.5}),
        json.dumps({**good, "status": "bogus"}),  # neither success nor failure
        # Typed, but contradicting another field.
        json.dumps({**good, "n": good["n"] + 2}),  # n != p * q
        json.dumps({**good, "factor": 7}),  # a success by neither p nor q
        json.dumps({**good, "gcd_count": -5, "attempts_used": 0}),
        json.dumps({**good, "succeeded_z": None}),  # a success with no witness
        json.dumps({**odd, "half_power_is_minus_one": True}),  # r is odd
        # r = 792 is even, and the flag is read off n and succeeded_z.
        json.dumps({**good, "half_power_is_minus_one": not good["half_power_is_minus_one"]}),
        # Out of vocabulary or range.
        json.dumps({**good, "strategy": "banana"}),
        json.dumps({**good, "base_mode": "banana"}),
        json.dumps({**good, "succeeded_z": "banana"}),
        json.dumps({**good, "bound": 1}),
        # gcd_count is 0 exactly on a poisoned record, which has no order
        # and no success.
        json.dumps({**good, "gcd_count": 0}),
        json.dumps({**good, "error": "boom"}),
        json.dumps({**poisoned, "gcd_count": 1}),
        json.dumps({**poisoned, **shortcut}),
        json.dumps({**poisoned, "r": 7, "r_digits": 1}),
        json.dumps({**poisoned, "failed_z": [2]}),
        json.dumps({**poisoned, "fallback_tried": True}),
        # r_distinct_primes is 0 exactly when r <= 1, and k distinct primes
        # of r make r at least 2 * 3 * ... * p_k.
        json.dumps({**poisoned, "r_distinct_primes": 1}),
        json.dumps({**good, "r_distinct_primes": 0}),
        json.dumps({**good, "r_distinct_primes": good["r"].bit_length() + 1}),
        json.dumps({**five, "r_distinct_primes": 9}),  # 2 * 3 * ... * 23 > 33998
        # succeeded_z and failed_z hold divisors >= 2 of r = 792.
        json.dumps({**good, "succeeded_z": 5}),
        json.dumps({**good, "succeeded_z": 1}),
        json.dumps({**good, "failed_z": [3, 7]}),
        json.dumps({**good, "failed_z": [0]}),
        # r = 792 * 5 keeps every other rule, but an order mod n = 19 * 89
        # divides lcm(18, 88) = 792.
        json.dumps({**good, "r": 3960, "r_digits": 4, "r_distinct_primes": 4}),
        # A clean record's base lies in [2, n - 1], and it is no unit
        # exactly on a gcd shortcut.
        json.dumps({**good, "a": good["n"] + 313}),
        json.dumps({**good, "a": 1}),
        json.dumps({**good, "a": 2 * 19}),  # n = 19 * 89
        json.dumps({**gcd_shortcut, "a": 2}),
        b"\xff\xfe\x00bad",  # not UTF-8
        b"",  # blank
        "\ufeff" + json.dumps(good),  # led by a BOM, which is no JSON whitespace
        json.dumps(good) + json.dumps(good),  # two objects on one line
        json.dumps(good) + " " + json.dumps(good),
    ):
        src = tmp_path / "broken.jsonl"
        lines = [record_json_line(r).encode() for r in sample_records[:3]]
        lines.insert(2, bad if isinstance(bad, bytes) else bad.encode())
        src.write_bytes(b"\n".join(lines) + b"\n")
        code, _, err = run_cli(capsys, "report", "--in", str(src))
        assert code == 2, bad[:80]
        assert f"{src}:3" in err


def check_streamed_report(capsys, tmp_path, shrink_chunks):
    """`report` over permuted and concatenated parts equals `report` over the
    whole, read in default chunks; `shrink_chunks(line)` then sets the
    chunk size the parts are read in."""
    # Records of several digit classes, strategies and base modes, with
    # retries, so every table and listing has rows.
    lines = [
        record_json_line(record)
        for config in (
            CampaignConfig(digits=4, trials=150, master_seed=3),
            CampaignConfig(digits=5, trials=120, strategy="traditional", retry_limit=1),
            CampaignConfig(
                digits=6, trials=90, strategy="dong2023", base_mode="perfect_square"
            ),
        )
        for record in run_campaign(config).records
    ]
    whole = tmp_path / "whole.jsonl"
    whole.write_text("".join(line + "\n" for line in lines))
    parts = []
    bounds = (0, 1, 100, 250, 251, len(lines))
    for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        part = tmp_path / f"part{index}.jsonl"
        part.write_text("".join(line + "\n" for line in lines[lo:hi]))
        parts.append(str(part))
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text(whole.read_text() * 2)

    def report(inputs):
        outputs = []
        for fmt in ("json", "csv"):
            out = tmp_path / f"report.{fmt}"
            argv = ["report", "--in", *inputs, "--format", fmt, "--out", str(out)]
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0
            outputs += [stdout, out.read_bytes()]
        return outputs

    expected = report([str(whole)])
    shrink_chunks(lines[0])
    assert "digits=6 dong2023" in expected[0] and b"fallback_tried" in expected[1]
    assert report(parts) == expected
    assert report(parts[::-1]) == expected
    assert report([parts[2], parts[0], parts[4], parts[1], parts[3]]) == expected
    # Each record twice: the same output as the whole given twice.
    assert report([str(doubled)]) == report([str(whole), str(whole)])


class TestReportCommand:
    def test_round_trip_and_merge_equivalence(self, capsys, tmp_path, sample_records):
        whole = tmp_path / "whole.jsonl"
        part1 = tmp_path / "part1.jsonl"
        part2 = tmp_path / "part2.jsonl"
        write_jsonl(whole, sample_records)
        write_jsonl(part1, sample_records[:60])
        write_jsonl(part2, sample_records[60:])

        out_whole = tmp_path / "whole.json"
        out_parts = tmp_path / "parts.json"
        code, stdout_whole, _ = run_cli(
            capsys, "report", "--in", str(whole), "--format", "json", "--out", str(out_whole)
        )
        assert code == 0
        code, stdout_parts, _ = run_cli(
            capsys,
            "report", "--in", str(part1), str(part2), "--format", "json",
            "--out", str(out_parts),
        )
        assert code == 0
        assert out_whole.read_bytes() == out_parts.read_bytes()
        assert stdout_whole.replace("2 records", "x") != ""  # summaries printed

    def test_empty_output_path_exits_3_after_the_summary(
        self, capsys, monkeypatch, tmp_path, sample_records
    ):
        src = tmp_path / "r.jsonl"
        write_jsonl(src, sample_records)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli(capsys, "report", "--in", str(src), "--out", "")
        assert code == 3
        assert out.startswith(f"report over {len(sample_records)} records\n")
        assert err == "error: cannot write : [Errno 2] No such file or directory: ''\n"
        assert list(work.iterdir()) == []

    def test_json_report_contents(self, capsys, tmp_path, sample_records):
        src = tmp_path / "r.jsonl"
        write_jsonl(src, sample_records)
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "report", "--in", str(src), "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        stats = compute_metrics(sample_records)
        assert report["totals"]["trials"] == stats.trials
        assert report["totals"]["successes"] == stats.successes
        assert report["success_by_digits"]["4"]["allz"]["trials"] == stats.trials
        curve = report["cumulative_success_by_bound"]
        assert curve["inf"] == stats.successes
        assert len(report["failure_cases"]) == stats.failures

    def test_json_artifact_is_laid_out_as_json_dump(self, capsys, tmp_path, sample_records):
        # The failure rows are written one at a time, in the layout that
        # json.dump(indent=2, sort_keys=True) gives the whole report.
        failing = [
            record
            for strategy in ("traditional", "allz")
            for record in run_campaign(
                CampaignConfig(digits=4, trials=200, strategy=strategy, master_seed=2)
            ).records
        ]
        for records in ([], sample_records, failing):
            src = tmp_path / "r.jsonl"
            write_jsonl(src, records)
            out = tmp_path / "report.json"
            code, _, _ = run_cli(capsys, "report", "--in", str(src), "--out", str(out))
            assert code == 0
            text = out.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        factors = [len(case["fail_factors"]) for case in json.loads(text)["failure_cases"]]
        assert min(factors) == 0 and max(factors) > 1

    def test_csv_failure_listing(self, capsys, tmp_path, sample_records):
        src = tmp_path / "r.jsonl"
        write_jsonl(src, sample_records)
        out = tmp_path / "failures.csv"
        code, _, _ = run_cli(
            capsys, "report", "--in", str(src), "--format", "csv", "--out", str(out)
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["digits", "n", "a", "r", "fail_factors", "fallback_tried"]
        failures = [r for r in sample_records if r.status == "failure"]
        assert len(rows) == 1 + len(failures)
        keys = [(int(row[0]), int(row[1]), int(row[2])) for row in rows[1:]]
        assert keys == sorted(keys)

    def test_malformed_line_reports_position(self, capsys, tmp_path, sample_records):
        check_malformed_lines(capsys, tmp_path, sample_records)

    @pytest.mark.parametrize("read", CHUNK_READS)
    def test_malformed_line_reports_position_in_small_chunks(
        self, capsys, tmp_path, monkeypatch, sample_records, read
    ):
        set_chunk_bytes(monkeypatch, read, record_json_line(sample_records[0]))
        check_malformed_lines(capsys, tmp_path, sample_records)

    def test_deeply_nested_line_exits_2_with_one_line(self, capsys, tmp_path):
        # Nested past the JSON decoder's recursion limit.
        src = tmp_path / "nested.jsonl"
        good = record_json_line(run_campaign(CampaignConfig(digits=4, trials=1)).records[0])
        src.write_bytes(good.encode() + b"\n" + b"[" * 200_000 + b"\n")
        code, out, err = run_cli(capsys, "report", "--in", str(src))
        assert (code, out, err) == (2, "", f"error: {src}:2: malformed record line\n")

    def test_streamed_report_matches_over_permuted_and_concatenated_parts(
        self, capsys, tmp_path
    ):
        check_streamed_report(capsys, tmp_path, lambda line: None)

    @pytest.mark.parametrize("read", CHUNK_READS)
    def test_streamed_report_matches_in_small_chunks(self, capsys, tmp_path, monkeypatch, read):
        check_streamed_report(
            capsys, tmp_path, lambda line: set_chunk_bytes(monkeypatch, read, line)
        )

    @pytest.mark.parametrize("read", ("64 KiB", *CHUNK_READS))
    def test_line_ends_and_edge_lines_at_every_chunk_size(
        self, capsys, tmp_path, monkeypatch, sample_records, read
    ):
        lines = [record_json_line(r).encode() for r in sample_records]
        if read != "64 KiB":
            set_chunk_bytes(monkeypatch, read, lines[0])

        def report(*files):
            """Exit code, stdout, stderr and artifact of `report` over (name, bytes) files."""
            paths = []
            for name, data in files:
                (tmp_path / name).write_bytes(data)
                paths.append(str(tmp_path / name))
            out = tmp_path / "report.json"
            out.unlink(missing_ok=True)
            code, stdout, err = run_cli(capsys, "report", "--in", *paths, "--out", str(out))
            return code, stdout, err, out.read_bytes() if out.exists() else None

        def malformed(name, lineno):
            return 2, "", f"error: {tmp_path / name}:{lineno}: malformed record line\n", None

        def joined(lines, end=b"\n"):
            return b"".join(line + end for line in lines)

        clean = report(("clean.jsonl", joined(lines)))
        assert clean[0] == 0
        # Accepted as the clean file: the reader strips each line as str.strip
        # does, which takes the ASCII separators (\x1c..\x1f) for whitespace.
        led = list(lines)
        led[4] = b" " + led[4]
        led[6] = b"\x1c" + led[6]
        for data in (joined(lines, b"\r\n"), b"\n".join(lines), joined(led)):
            assert report(("edge.jsonl", data)) == clean
        # A byte that is not UTF-8, in a later 64 KiB chunk of the second file.
        second = lines * 3
        second[299] = second[299].replace(b'"allz"', b'"al\xffz"')
        assert len(joined(second[:299])) > 1 << 16
        files = ("first.jsonl", joined(lines)), ("second.jsonl", joined(second))
        assert report(*files) == malformed("second.jsonl", 300)
        # As one JSON array these lines hold three objects, but no line holds one.
        three = [b'{"a":[{}', b"{}]}", b"{},{}"]
        assert len(json.loads(b"[" + b",".join(three) + b"]")) == 3
        assert report(("three.jsonl", joined(three))) == malformed("three.jsonl", 1)

    @pytest.mark.parametrize("read", ("64 KiB", "64 bytes"))
    def test_split_and_doubled_records_report_their_line(
        self, capsys, tmp_path, monkeypatch, sample_records, read
    ):
        lines = [record_json_line(r).encode() for r in sample_records[:6]]
        if read != "64 KiB":
            set_chunk_bytes(monkeypatch, read, lines[0])
        good = lines[0]
        cut = good.index(b',"n":')
        split = [good[:cut], good[cut:]]  # a record over two lines
        # One record over two lines, split inside a duplicate key's
        # [[1],[2]], and a line of two records joined by "],[": read as one
        # JSON list with "],\n[" between lines, they give three records.
        split_in_key = [b'{"failed_z":[[1', b"2]]," + good[1:]]
        doubled = good + b"],[" + good
        src = tmp_path / "bad.jsonl"
        for bad_lines, lineno in (
            (split, 3),
            (split_in_key, 3),
            ([doubled], 3),
            ([*split_in_key, doubled], 3),
            ([doubled, *split_in_key], 3),
            ([good + b"," + good], 3),
        ):
            src.write_bytes(b"".join(line + b"\n" for line in [*lines[:2], *bad_lines, *lines[2:]]))
            code, out, err = run_cli(capsys, "report", "--in", str(src))
            assert (code, out, err) == (2, "", f"error: {src}:{lineno}: malformed record line\n")

    def test_negative_mean_keeps_its_sign(self, capsys, tmp_path):
        # A negative r_digits would give the mean (-11 + 5 + 5) / 3 = -1/3,
        # but the record contradicts its r and is rejected on load.
        records = run_campaign(CampaignConfig(digits=5, trials=10, master_seed=1)).records
        with_order = [r for r in records if r.error is None and r.r > 0][:3]
        src = tmp_path / "r.jsonl"
        write_jsonl(src, [r._replace(r_digits=d) for r, d in zip(with_order, (-11, 5, 5))])
        code, out, err = run_cli(capsys, "report", "--in", str(src))
        assert code == 2
        assert out == ""
        assert err == f"error: {src}:1: malformed record line\n"

    def test_missing_input_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", "--in", str(tmp_path / "nope.jsonl"))
        assert code == 3


MIB = 1 << 20
assert (fanout._PARSE_HELPER_BYTES, fanout._PARSE_HELPER_BYTES_COLD) == (MIB, 16 * MIB)


@pytest.fixture(scope="module")
def report_lines():
    """Record lines of every strategy, both base modes and retries, failures included."""
    return [
        record_json_line(record).encode()
        for config in (
            CampaignConfig(digits=4, trials=300, master_seed=5),
            CampaignConfig(digits=5, trials=300, strategy="traditional", retry_limit=1),
            CampaignConfig(digits=6, trials=300, strategy="dong2023", base_mode="perfect_square"),
        )
        for record in run_campaign(config).records
    ]


def lines_of_size(lines, size):
    """`lines` over and over, as many as fit in `size` bytes with their line ends."""
    out, total = [], 0
    for line in itertools.cycle(lines):
        if total + len(line) + 1 > size:
            return out
        out.append(line)
        total += len(line) + 1


def write_lines(path, lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return str(path)


class TestTwoProcessReport:
    """Inputs of more than 1 MiB are parsed in a helper process, with two
    usable CPUs and `multiprocessing` loaded, as it is here; this process
    checks, tallies and orders the records, and the report is the one a
    single process makes."""

    @staticmethod
    def report(capsys, monkeypatch, cpus, *argv):
        """Exit code, stdout, stderr and helpers started of `allz report`
        with `cpus` usable CPUs."""
        started = []

        class CountedProcess(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(multiprocessing, "Process", CountedProcess)
        monkeypatch.setattr(campaign, "_usable_cpus", lambda: cpus)
        code, out, err = run_cli(capsys, "report", *argv)
        assert multiprocessing.active_children() == []
        return code, out, err, len(started)

    @pytest.mark.parametrize(("size", "helpers"), [(MIB, 0), (4 * MIB, 1)], ids=["1 MiB", "4 MiB"])
    def test_same_bytes_at_one_and_two_processes(
        self, capsys, monkeypatch, tmp_path, report_lines, size, helpers
    ):
        lines = lines_of_size(report_lines, size)
        cuts = (0, len(lines) // 3, 2 * len(lines) // 3, len(lines))
        paths = [
            write_lines(tmp_path / f"part{i}.jsonl", lines[lo:hi])
            for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        ]
        assert size - 500 < sum(map(os.path.getsize, paths)) <= size
        outputs = {}
        for cpus, fmt in itertools.product((1, 2), ("json", "csv")):
            out = tmp_path / f"report-{cpus}.{fmt}"
            argv = ("--in", *paths, "--format", fmt, "--out", str(out))
            code, stdout, err, started = self.report(capsys, monkeypatch, cpus, *argv)
            assert (code, err, started) == (0, "", helpers if cpus == 2 else 0)
            outputs[cpus, fmt] = stdout, out.read_bytes()
        assert outputs[1, "json"] == outputs[2, "json"]
        assert outputs[1, "csv"] == outputs[2, "csv"]
        assert outputs[1, "json"][0].startswith(f"report over {len(lines)} records\n")
        assert outputs[1, "csv"][1].count(b"\n") > 100  # failure rows

    @pytest.mark.parametrize("kind", ["no JSON", "refused by the load checks"])
    def test_malformed_line_in_a_later_chunk_of_a_later_file(
        self, capsys, monkeypatch, tmp_path, report_lines, kind
    ):
        first = write_lines(tmp_path / "first.jsonl", lines_of_size(report_lines, MIB))
        lines = lines_of_size(report_lines, MIB // 2)
        good = json.loads(lines[1199])
        # Either a chunk the helper cannot parse whole and sends as bytes, or
        # one it parses whole, whose row n != p * q the load checks refuse.
        if kind == "no JSON":
            lines[1199] = b"{not json"
        else:
            lines[1199] = json.dumps({**good, "n": good["n"] + 2}).encode()
        assert len(b"\n".join(lines[:1199])) > 1 << 16  # past the first chunk
        second = write_lines(tmp_path / "second.jsonl", lines)
        expected = (2, "", f"error: {second}:1200: malformed record line\n")
        assert self.report(capsys, monkeypatch, 1, "--in", first, second) == (*expected, 0)
        assert self.report(capsys, monkeypatch, 2, "--in", first, second) == (*expected, 1)
        # The line reader names it, with the same error, either way.
        raised = []
        for cpus in (1, 2):
            monkeypatch.setattr(campaign, "_usable_cpus", lambda: cpus)
            with pytest.raises(campaign.BadLine) as info:
                for _ in fanout.decode_inputs([first, second]):
                    pass
            raised.append((info.value.path, info.value.index, repr(info.value.__cause__)))
        assert raised[0] == raised[1] == (second, 1199, raised[0][2])

    def test_malformed_first_file_beats_a_missing_second(
        self, capsys, monkeypatch, tmp_path, report_lines
    ):
        lines = lines_of_size(report_lines, 2 * MIB)
        lines[3000] = b"{not json"
        first = write_lines(tmp_path / "first.jsonl", lines)
        missing = str(tmp_path / "missing.jsonl")
        expected = (2, "", f"error: {first}:3001: malformed record line\n", 0)
        for cpus in (1, 2):
            assert self.report(capsys, monkeypatch, cpus, "--in", first, missing) == expected

    def test_each_record_is_checked_once_in_this_process(
        self, capsys, monkeypatch, tmp_path, report_lines
    ):
        # The benchmark's tracer counts the load checks in the main process only.
        lines = lines_of_size(report_lines, 2 * MIB)
        src = write_lines(tmp_path / "r.jsonl", lines)
        main_pid = os.getpid()
        decode = TrialRecord.from_json_dict
        checked = []

        def counted(data):
            if os.getpid() == main_pid:
                checked.append(data["case_id"])
            return decode(data)

        monkeypatch.setattr(TrialRecord, "from_json_dict", counted)
        for cpus, helpers in ((1, 0), (2, 1)):
            checked.clear()
            assert self.report(capsys, monkeypatch, cpus, "--in", src)[::3] == (0, helpers)
            assert checked == [json.loads(line)["case_id"] for line in lines]

    def test_helper_killed_mid_report_exits_3_without_hanging(self, tmp_path, report_lines):
        src = write_lines(tmp_path / "r.jsonl", lines_of_size(report_lines, 4 * MIB))
        # With multiprocessing loaded, 4 MiB take a helper.
        code = (
            "import multiprocessing, os, signal, sys\n"
            "from allz import campaign, cli, fanout\n"
            "main_pid = os.getpid()\n"
            "parse = fanout._parse_chunk\n"
            "parsed = []\n"
            "def dying(chunk):\n"
            "    parsed.append(chunk)\n"
            "    if os.getpid() != main_pid and len(parsed) == 6:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return parse(chunk)\n"
            "fanout._parse_chunk = dying\n"
            "campaign._usable_cpus = lambda: 2\n"
            f"sys.exit(cli.main(['report', '--in', {src!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: cannot read input: helper process exited with code -9"
            " before sending input chunk 5\n"
        )

    def test_a_fresh_process_waits_for_16_mib(self, tmp_path, report_lines):
        # One that has yet to load multiprocessing would pay its import too.
        src = write_lines(tmp_path / "r.jsonl", lines_of_size(report_lines, 2 * MIB))
        code = (
            "import contextlib, io, sys\n"
            "from allz import campaign, cli, fanout\n"
            "campaign._usable_cpus = lambda: 2\n"
            "started = []\n"
            "fan_out = fanout.fan_out\n"
            "fanout.fan_out = lambda *args: started.append(args) or fan_out(*args)\n"
            "def report():\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"        assert cli.main(['report', '--in', {src!r}]) == 0\n"
            "    return out.getvalue()\n"
            "fresh = report()\n"
            "print('multiprocessing' in sys.modules, len(started))\n"
            "import multiprocessing\n"
            "print(report() == fresh, len(started))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False 0\nTrue 1\n"), proc.stderr


class TestVerifyPaperCommand:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 0
        assert "13/13 rows verified" in out
        assert out.count(" ok") == 13


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full", "fd 1 closed"])
@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "--digits", "4", "--trials", "30"],
        ["report"],  # over a results file made here
        ["factor", "2540107", "--base", "1316667"],
        ["order", "1406371", "36"],
        ["verify-paper"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_stdout_exits_3_without_traceback(capsys, tmp_path, argv, sink, unbuffered):
    # A closed pipe exits quietly; any other write error names itself in one
    # line. Neither leaves the interpreter's own flush at exit to fail again.
    # With fd 1 closed, the interpreter has no standard output at all.
    if sink == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    if argv[0] == "report":
        argv = ["report", "--in", str(tmp_path / "r.jsonl")]
        made = run_cli(capsys, "campaign", "--digits", "4", "--trials", "30", "--out", argv[-1])
        assert made[0] == 0
    if sink == "closed pipe":
        reader, stdout = os.pipe()
        os.close(reader)
    else:
        stdout = os.open(os.devnull if sink == "fd 1 closed" else "/dev/full", os.O_WRONLY)
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    env.pop("PYTHONUNBUFFERED", None)
    flags = ["-u"] if unbuffered else []
    try:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "allz.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=(lambda: os.close(1)) if sink == "fd 1 closed" else None,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    if sink == "closed pipe":
        assert proc.stderr == ""
    else:
        failure = "[Errno 28] No space left on device"
        if sink == "fd 1 closed":
            failure = "[Errno 9] Bad file descriptor"
        assert proc.stderr == f"error: cannot write standard output: {failure}\n"


HELP_ARGV = [["--help"], ["campaign", "--help"]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_that_cannot_be_written_exits_3(argv, unbuffered):
    # Buffered, the help fits the buffer, so only a flush can fail.
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    env.pop("PYTHONUNBUFFERED", None)
    flags = ["-u"] if unbuffered else []
    with open("/dev/full", "w", encoding="ascii") as full:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "allz.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    no_space = "[Errno 28] No space left on device"
    assert (proc.returncode, proc.stderr) == (3, f"error: cannot write standard output: {no_space}\n")


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_prints_argparse_text_and_exits_0(capsys, monkeypatch, argv):
    def help_text():
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out

    text = help_text()
    assert text.startswith("usage: allz ") and text.endswith("\n")
    # The text argparse's own writer prints.
    monkeypatch.setattr(allz.cli._Parser, "print_help", argparse.ArgumentParser.print_help)
    assert help_text() == text
