"""Generated inputs for `allz.cli.main`, run in-process.

Whatever the argv or the results file, the CLI must end with a documented
exit code (0 success, 1 method failure, 2 invalid input, 3 I/O or internal
error) and must not let an exception out: no traceback reaches stderr.
Inputs stay small (n < 10**6, at most 3 trials) so each example is cheap.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allz.campaign import BASE_MODES, STRATEGIES, CampaignConfig, run_campaign
from allz.cli import main

EXIT_CODES = {0, 1, 2, 3}

# A handful of real records, successes and failures, to mutate one field of.
RECORDS = [
    record.to_json_dict()
    for record in run_campaign(
        CampaignConfig(digits=5, trials=6, base_mode="perfect_square", strategy="dong2023", retry_limit=1)
    ).records
]
FIELDS = sorted(RECORDS[0])


def run_main(argv):
    """(exit code, stderr) of one in-process CLI call; stdout is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(argv):
    code, err = run_main(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


def number(lo, hi):
    return st.integers(lo, hi).map(str)


def option(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def factor_argv(draw):
    n = draw(st.integers(-5, 10**6 - 1))
    argv = ["factor", draw(st.one_of(st.just(str(n)), st.text(max_size=4)))]
    argv += draw(
        st.one_of(
            st.just([]),
            number(-2, max(n, 0) + 1).map(lambda a: ["--base", a]),
            st.sampled_from(BASE_MODES).map(lambda mode: ["--auto-base", mode]),
        )
    )
    argv += draw(option("--strategy", st.sampled_from(STRATEGIES)))
    argv += draw(option("--bound", number(-2, 10**4)))
    argv += draw(option("--seed", number(-(2**65), 2**65)))
    return argv


@st.composite
def order_argv(draw):
    n = draw(st.integers(-5, 10**6 - 1))
    return ["order", str(n), draw(number(-2, max(n, 0) + 1))]


@st.composite
def campaign_argv(draw):
    argv = ["campaign", "--digits", draw(number(0, 14)), "--trials", draw(number(0, 3))]
    argv += draw(option("--base-mode", st.sampled_from(BASE_MODES)))
    argv += draw(option("--strategy", st.sampled_from(STRATEGIES)))
    argv += draw(option("--bound", number(-1, 10**4)))
    argv += draw(option("--seed", number(-(2**65), 2**65)))
    argv += draw(option("--workers", number(0, 2)))
    argv += draw(option("--retries", number(-1, 3)))
    argv += draw(option("--out", st.just("OUT/campaign.jsonl")))
    return argv


@st.composite
def report_argv(draw):
    argv = ["report", "--in", draw(st.sampled_from(["OUT/campaign.jsonl", "OUT/missing.jsonl"]))]
    argv += draw(option("--format", st.sampled_from(["csv", "json"])))
    argv += draw(option("--out", st.just("OUT/report.out")))
    return argv


ARGV = st.one_of(
    factor_argv(), order_argv(), campaign_argv(), report_argv(), st.just(["verify-paper"])
)


@settings(max_examples=150, deadline=None)
@given(argv=ARGV)
def test_generated_argv_exits_cleanly(workdir, argv):
    assert_clean_exit([str(workdir) + arg[3:] if arg.startswith("OUT/") else arg for arg in argv])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


def same_json_type(value):
    """Values of the JSON type a real record holds, to get past the type check."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers()
    if isinstance(value, str):
        return st.text()
    if isinstance(value, list):
        return st.lists(st.integers(), max_size=4)
    return st.none()


def contradicting_field(record):
    """(field, value) pairs of the field's JSON type that contradict another field."""
    n, p, q, r = record["n"], record["p"], record["q"], record["r"]
    success = record["status"] == "success"
    poisoned = record["error"] is not None
    pairs = [
        st.integers().filter(lambda v: v != n).map(lambda v: ("n", v)),
        st.integers().filter(lambda v: v != len(str(n))).map(lambda v: ("digits", v)),
        st.integers(max_value=-1).map(lambda v: ("r", v)),
        st.integers().filter(lambda v: v != (len(str(r)) if r else 0)).map(lambda v: ("r_digits", v)),
        st.just(("r_even", not record["r_even"])),
        st.just(("fallback_succeeded", not record["fallback_succeeded"])),
        st.integers().filter(lambda v: not success or v not in (p, q)).map(lambda v: ("factor", v)),
        st.integers(max_value=0).map(lambda v: ("attempts_used", v)),
        # gcd_count is 0 exactly on a poisoned record, one with an error.
        st.integers().filter(lambda v: v < 0 or (v == 0) != poisoned).map(lambda v: ("gcd_count", v)),
        st.text().filter(lambda v: v not in STRATEGIES).map(lambda v: ("strategy", v)),
        st.text().filter(lambda v: v not in BASE_MODES).map(lambda v: ("base_mode", v)),
        st.text().filter(lambda v: v not in ("fallback", "shortcut")).map(lambda v: ("succeeded_z", v)),
        st.integers(max_value=1).map(lambda v: ("bound", v)),
        st.just(("half_power_is_minus_one", None if record["r_even"] else True)),
        # r_distinct_primes is 0 exactly when r <= 1, and at most r.bit_length().
        st.integers()
        .filter(lambda v: not 0 <= v <= r.bit_length() or (v == 0) != (r <= 1))
        .map(lambda v: ("r_distinct_primes", v)),
        # succeeded_z and each failed_z entry are divisors >= 2 of r.
        st.integers().filter(lambda v: v < 2 or r % v).map(lambda v: ("succeeded_z", v)),
        st.integers()
        .filter(lambda v: v < 2 or r % v)
        .map(lambda v: ("failed_z", [*record["failed_z"], v])),
    ]
    if poisoned:
        pairs.append(st.just(("fallback_tried", True)))
    else:
        pairs.append(st.text().map(lambda v: ("error", v)))
        # A clean record's base lies in [2, n - 1], and it is no unit
        # exactly on a gcd shortcut.
        pairs.append(st.integers().filter(lambda v: not 2 <= v < n).map(lambda v: ("a", v)))
        if record["succeeded_z"] != "shortcut":
            pairs.append(st.integers(1, q - 1).map(lambda k: ("a", k * p)))
    if r:
        # r divides lcm(p - 1, q - 1). An odd multiple of r keeps r's parity
        # and divisors, so where it keeps r's digit count only this rule fails.
        lam = math.lcm(p - 1, q - 1)
        pairs.append(
            st.integers(3, 99).filter(lambda k: k % 2 and lam % (r * k)).map(lambda k: ("r", r * k))
        )
    if record["r_even"]:
        # On an even r the flag is read off n and succeeded_z.
        pairs.append(st.just(("half_power_is_minus_one", not record["half_power_is_minus_one"])))
    if success:
        pairs.append(st.just(("succeeded_z", None)))
    if success or record["attempts_used"] == 1:
        pairs.append(st.just(("resolved", not record["resolved"])))
    return st.one_of(pairs)


CONTRADICTIONS = st.integers(0, len(RECORDS) - 1).flatmap(
    lambda index: contradicting_field(RECORDS[index]).map(lambda pair: (index, *pair))
)

MUTATIONS = st.tuples(st.integers(0, len(RECORDS) - 1), st.sampled_from(FIELDS)).flatmap(
    lambda pick: st.tuples(
        st.just(pick[0]),
        st.just(pick[1]),
        JSON_VALUES | same_json_type(RECORDS[pick[0]][pick[1]]),
    )
) | CONTRADICTIONS


@settings(max_examples=150, deadline=None)
@given(mutation=MUTATIONS, report_format=st.sampled_from(["csv", "json"]))
@example(mutation=(0, "status", "bogus"), report_format="json")
def test_record_with_one_field_replaced_exits_cleanly(workdir, mutation, report_format):
    index, name, value = mutation
    lines = [json.dumps(record, separators=(",", ":")) for record in RECORDS]
    lines[index] = json.dumps({**RECORDS[index], name: value}, separators=(",", ":"))
    src = workdir / "mutated.jsonl"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = workdir / "mutated.out"
    assert_clean_exit(["report", "--in", str(src), "--format", report_format, "--out", str(out)])


@settings(max_examples=100, deadline=None)
@given(mutation=CONTRADICTIONS)
def test_record_contradicting_itself_is_rejected(workdir, mutation):
    index, name, value = mutation
    lines = [json.dumps(record, separators=(",", ":")) for record in RECORDS]
    lines[index] = json.dumps({**RECORDS[index], name: value}, separators=(",", ":"))
    src = workdir / "contradicting.jsonl"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = run_main(["report", "--in", str(src)])
    assert (code, err) == (2, f"error: {src}:{index + 1}: malformed record line\n"), mutation


def test_records_hold_successes_and_failures():
    # So the contradictions above cover both statuses, retries and even orders.
    assert {record["status"] for record in RECORDS} == {"success", "failure"}
    assert any(record["r_even"] for record in RECORDS)
    assert max(record["attempts_used"] for record in RECORDS) == 2


@settings(max_examples=100, deadline=None)
@given(content=st.binary(max_size=300), prefix_good_line=st.booleans())
def test_arbitrary_bytes_exit_cleanly(workdir, content, prefix_good_line):
    src = workdir / "bytes.jsonl"
    head = (json.dumps(RECORDS[0], separators=(",", ":")) + "\n").encode() if prefix_good_line else b""
    src.write_bytes(head + content)
    assert_clean_exit(["report", "--in", str(src)])

