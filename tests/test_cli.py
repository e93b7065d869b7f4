"""End-to-end CLI tests: exit codes, wire formats, and report artifacts."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import allz
from allz import campaign
from allz.campaign import CampaignConfig, TrialRecord, compute_metrics, run_campaign
from allz.cli import _fixed6, main, record_json_line

SRC_DIR = os.path.dirname(os.path.dirname(allz.__file__))


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
        lines = out_path.read_text().splitlines()
        assert len(lines) == 50
        records = [TrialRecord.from_json_dict(json.loads(line)) for line in lines]
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
    assert _fixed6(value) == text


@pytest.fixture(scope="module")
def sample_records():
    result = run_campaign(
        CampaignConfig(digits=4, trials=120, master_seed=3, strategy="allz")
    )
    return result.records


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
        good = sample_records[2].to_json_dict()
        for bad in (
            "{not json",
            "[1]",
            '{"n": ' + "9" * 5000 + "}",  # beyond the int conversion limit
            json.dumps({**good, "gcd_count": "x"}),
            json.dumps({**good, "n": True}),  # a bool is not an int
            json.dumps({**good, "failed_z": ["3"]}),
            json.dumps({**good, "succeeded_z": 1.5}),
            json.dumps({**good, "status": "bogus"}),  # neither success nor failure
            b"\xff\xfe\x00bad",  # not UTF-8
        ):
            src = tmp_path / "broken.jsonl"
            lines = [record_json_line(r).encode() for r in sample_records[:3]]
            lines.insert(2, bad if isinstance(bad, bytes) else bad.encode())
            src.write_bytes(b"\n".join(lines) + b"\n")
            code, _, err = run_cli(capsys, "report", "--in", str(src))
            assert code == 2, bad[:80]
            assert f"{src}:3" in err

    def test_negative_mean_keeps_its_sign(self, capsys, tmp_path):
        # Record ranges are not checked on load, so a negative r_digits
        # reaches the mean: (-11 + 5 + 5) / 3 = -1/3.
        records = run_campaign(CampaignConfig(digits=5, trials=10, master_seed=1)).records
        with_order = [r for r in records if r.error is None and r.r > 0][:3]
        src = tmp_path / "r.jsonl"
        write_jsonl(src, [replace(r, r_digits=d) for r, d in zip(with_order, (-11, 5, 5))])
        code, out, _ = run_cli(capsys, "report", "--in", str(src))
        assert code == 0
        assert "  mean r digits: -0.333333" in out.splitlines()

    def test_missing_input_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", "--in", str(tmp_path / "nope.jsonl"))
        assert code == 3


class TestVerifyPaperCommand:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 0
        assert "13/13 rows verified" in out
        assert out.count(" ok") == 13
