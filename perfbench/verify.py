"""Independent checks of campaign records and report artifacts.

Nothing here imports allz: primality, factor and order checks use plain
trial division and builtin `pow`, so a defect in the program's number
theory cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

RECORD_FIELDS = (
    "case_id", "digits", "n", "p", "q", "a", "base_mode", "seed", "strategy", "bound",
    "status", "factor", "r", "r_digits", "r_distinct_primes", "succeeded_z", "failed_z",
    "fallback_tried", "fallback_succeeded", "gcd_count", "r_even", "half_power_is_minus_one",
    "attempts_used", "resolved", "error",
)


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    d = 3
    while d * d <= x:
        if x % d == 0:
            return False
        d += 2
    return True


def prime_divisors(x: int) -> list[int]:
    """Distinct primes dividing x >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        out.append(x)
    return out


def sha256_file(path: str) -> str:
    """Hex digest of a file's bytes; empty when there is no such file."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    except FileNotFoundError:
        return ""
    return digest.hexdigest()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def record_problem(rec: dict, config: dict) -> str | None:
    """Why `rec` is not a correct record of `config`, or None when it is.

    A record is correct when n = p*q with p, q distinct primes, a is a unit
    (a square when the base mode asks for one), r is the exact order of a
    (a**r = 1 and a**(r/z) != 1 for every prime z | r), every derived field
    agrees with those, and a success names p or q. Method failures are
    results, not problems; a set `error` is one.
    """
    if list(rec) != list(RECORD_FIELDS):
        return "field set or order differs"
    if rec["error"] is not None:
        return f"error set: {rec['error']}"
    for key in ("digits", "base_mode", "strategy", "bound"):
        if rec[key] != config[key]:
            return f"{key} {rec[key]!r} != config {config[key]!r}"
    n, p, q, a, r = rec["n"], rec["p"], rec["q"], rec["a"], rec["r"]
    if not all(_is_int(v) for v in (n, p, q, a, r)):
        return "n, p, q, a, r must be integers"
    if p == q or n != p * q or not (is_prime(p) and is_prime(q)):
        return "n is not the product of two distinct primes p, q"
    if len(str(n)) != rec["digits"]:
        return "n has the wrong digit count"
    if not 2 <= a < n or math.gcd(a, n) != 1:
        return "base is not a unit in [2, n)"
    if rec["base_mode"] == "perfect_square" and math.isqrt(a) ** 2 != a:
        return "base is not a perfect square"
    lam = math.lcm(p - 1, q - 1)
    if r < 1 or lam % r or pow(a, r, n) != 1:
        return "a**r != 1 (mod n)"
    r_primes = [z for z in prime_divisors(p - 1) + prime_divisors(q - 1) if r % z == 0]
    r_primes = sorted(set(r_primes))
    if any(pow(a, r // z, n) == 1 for z in r_primes):
        return "r is not the least period"
    if rec["r_digits"] != len(str(r)) or rec["r_distinct_primes"] != len(r_primes):
        return "r_digits or r_distinct_primes is wrong"
    if rec["r_even"] != (r % 2 == 0):
        return "r_even is wrong"
    half = pow(a, r // 2, n) == n - 1 if r % 2 == 0 else None
    if rec["half_power_is_minus_one"] != half:
        return "half_power_is_minus_one is wrong"
    if rec["status"] == "success":
        if rec["factor"] not in (p, q):
            return "success without a factor of n"
        if not rec["resolved"] or rec["attempts_used"] != 1:
            return "a first-attempt success must be resolved in one attempt"
    elif rec["status"] == "failure":
        if rec["factor"] is not None:
            return "failure with a factor"
    else:
        return f"unknown status {rec['status']!r}"
    if not 1 <= rec["attempts_used"] <= config["retry_limit"] + 1:
        return "attempts_used out of range"
    if not _is_int(rec["gcd_count"]) or rec["gcd_count"] < 1:
        return "gcd_count must be a positive integer"
    return None


def check_campaign_file(path: str, config: dict) -> tuple[list[dict], list[str], list[str]]:
    """Parse a campaign's JSONL and check every record.

    Returns (records, one problem per bad record, problems of the file as a
    whole). Records must come in case_id order 0, 1, ... and number
    config["trials"].
    """
    records, bad, whole = [], [], []
    if not os.path.isfile(path):
        return records, bad, [f"{path}: no output written"]
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                bad.append(f"{path}:{lineno}: not JSON")
                continue
            records.append(rec)
            problem = record_problem(rec, config)
            if problem is None and rec["case_id"] != lineno - 1:
                problem = "case_id out of order"
            if problem is not None:
                bad.append(f"{path}:{lineno}: {problem}")
    if len(records) != config["trials"]:
        whole.append(f"{path}: {len(records)} records, expected {config['trials']}")
    return records, bad, whole


def _fixed6(num: int, den: int) -> str:
    scaled = (num * 2_000_000 + den) // (2 * den) if den else 0
    return f"{scaled // 1_000_000}.{scaled % 1_000_000:06d}"


def report_problems(path: str, records: list[dict]) -> list[str]:
    """Check a `report --format json` artifact against its input records."""
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable report: {exc}"]
    trials = len(records)
    successes = sum(rec["status"] == "success" for rec in records)
    failures = [rec for rec in records if rec["status"] == "failure"]
    even = sum(rec["r_even"] for rec in records)
    expected = {
        ("totals", "trials"): trials,
        ("totals", "successes"): successes,
        ("totals", "failures"): len(failures),
        ("totals", "success_rate"): _fixed6(successes, trials),
        ("cumulative_success_by_bound", "inf"): successes,
        ("r_structure", "even_r_count"): even,
        ("r_structure", "half_power_minus_one_count"): sum(
            bool(rec["half_power_is_minus_one"]) for rec in records
        ),
        ("fallback_successes",): sum(
            rec["status"] == "success" and rec["fallback_succeeded"] for rec in records
        ),
        ("failure_cases", "count"): len(failures),
        ("success_by_digits", "trials"): trials,
    }
    actual = {}
    try:
        for key in expected:
            if key == ("failure_cases", "count"):
                actual[key] = len(report["failure_cases"])
            elif key == ("success_by_digits", "trials"):
                actual[key] = sum(
                    cell["trials"]
                    for by_strategy in report["success_by_digits"].values()
                    for cell in by_strategy.values()
                )
            else:
                value = report
                for part in key:
                    value = value[part]
                actual[key] = value
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"{path}: report lacks {exc}"]
    return [
        f"{path}: {'.'.join(key)} = {actual[key]!r}, expected {want!r}"
        for key, want in expected.items()
        if actual[key] != want
    ]
