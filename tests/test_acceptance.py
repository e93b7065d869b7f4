"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavyweight campaigns are session fixtures so
criteria that share a record set only pay for it once.
"""

import decimal
import math
import multiprocessing
import time
from array import array
from fractions import Fraction

import pytest

from allz.campaign import (
    CampaignConfig,
    CampaignStats,
    RandomStream,
    Semiprime,
    TrialCase,
    case_seed,
    cochran_sample_size,
    compute_metrics,
    merge_stats,
    run_campaign,
    run_trial,
)
from allz.cli import main as cli_main
from allz.cli import record_json_line
from allz.numtheory import factorize
from allz.period_oracle import order_mod_primes
from allz.strategies import all_z, dong2023, traditional_shor
from conftest import semiprimes_below
from reference import order_brute_force


@pytest.fixture
def check(capsys):
    """Verdict printer that bypasses output capture, one line per criterion."""

    def _check(criterion, condition, detail):
        verdict = "PASS" if condition else "FAIL"
        with capsys.disabled():
            print(f"[acceptance {criterion}] {verdict} - {detail}")
        assert condition, f"criterion {criterion}: {detail}"

    return _check


def ratio(numerator, denominator):
    """numerator / denominator exactly; the empty ratio 0/0 is 0."""
    return Fraction(numerator, denominator) if denominator else Fraction(0)


def prime_parts(p, q):
    """The parts from which the campaign reduces every order of a mod p*q."""
    return ((p, factorize(p - 1)), (q, factorize(q - 1)))


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def records_7d():
    """50k seeded all-z trials at 7 digits with random bases (criteria 4-6, 8)."""
    config = CampaignConfig(
        digits=7,
        trials=50_000,
        strategy="allz",
        base_mode="random",
        master_seed=42,
        workers=2,
    )
    start = time.monotonic()
    result = run_campaign(config)
    elapsed = time.monotonic() - start
    return result, elapsed


@pytest.fixture(scope="session")
def band_campaigns():
    """10k trials per digits in {4,5,6} per strategy (criterion 3, 8)."""
    out = {}
    start = time.monotonic()
    for digits in (4, 5, 6):
        for strategy in ("traditional", "dong2023", "allz"):
            config = CampaignConfig(
                digits=digits,
                trials=10_000,
                strategy=strategy,
                base_mode="random",
                master_seed=1042,
                workers=2,
            )
            out[digits, strategy] = run_campaign(config)
    return out, time.monotonic() - start


# ------------------------------------------------------------- criterion 1


def test_criterion_1_reference_table_replay(capsys, check):
    start = time.monotonic()
    code = cli_main(["verify-paper"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    check(
        1,
        code == 0 and "13/13 rows verified" in out and elapsed < 1.0,
        f"verify-paper exit={code}, 13/13 replayed bit-exact in {elapsed:.3f}s (< 1s)",
    )


# ------------------------------------------------------------- criterion 2


def _order_table(p, cache):
    """ord_p(a) for every a in [1, p): one generator found by brute-force
    cycle walking, then orders assigned along the generator's cycle."""
    table = cache.get(p)
    if table is not None:
        return table
    table = array("q", bytes(8 * p))
    table[1 % p] = 1
    if p > 2:
        g = None
        for cand in range(2, p):
            cur, steps = cand, 1
            while cur != 1:
                cur = cur * cand % p
                steps += 1
            if steps == p - 1:
                g = cand
                break
        pm1 = p - 1
        cur = 1
        for j in range(pm1):
            table[cur] = pm1 // math.gcd(j, pm1)
            cur = cur * g % p
    cache[p] = table
    return table


def _oracle_check_chunk(chunk):
    cache = {}
    checked = mismatches = brute_checked = 0
    for n, p, q in chunk:
        tp = _order_table(p, cache)
        tq = _order_table(q, cache)
        parts = prime_parts(p, q)
        for a in range(1, n):
            ap = a % p
            if ap == 0:
                continue
            aq = a % q
            if aq == 0:
                continue
            op, oq = tp[ap], tq[aq]
            expected = op * oq // math.gcd(op, oq)
            if order_mod_primes(a, parts).order != expected:
                mismatches += 1
            checked += 1
        # literal successive-multiplication cross-check on sampled bases,
        # tying the fast table oracle back to order_brute_force
        rng = RandomStream(n)
        for _ in range(3):
            a = 2 + rng.below(n - 2)
            if math.gcd(a, n) != 1:
                continue
            walked = order_brute_force(a, n)
            via_table = tp[a % p] * tq[a % q] // math.gcd(tp[a % p], tq[a % q])
            via_oracle = order_mod_primes(a, parts).order
            if not walked == via_table == via_oracle:
                mismatches += 1
            brute_checked += 1
    return checked, mismatches, brute_checked


def test_criterion_2_order_oracle_equivalence(check):
    start = time.monotonic()
    semis = semiprimes_below(10_000)
    chunks = [semis[i::4] for i in range(4)]
    with multiprocessing.Pool(processes=2) as pool:
        results = pool.map(_oracle_check_chunk, chunks)
    checked = sum(r[0] for r in results)
    mismatches = sum(r[1] for r in results)
    brute_checked = sum(r[2] for r in results)
    elapsed = time.monotonic() - start
    check(
        2,
        mismatches == 0 and checked > 9_000_000 and elapsed < 120,
        f"{checked} coprime pairs across {len(semis)} semiprimes agree "
        f"({brute_checked} walked literally) in {elapsed:.1f}s (< 120s)",
    )


# ------------------------------------------------------------- criterion 3


def test_criterion_3_success_rate_bands(band_campaigns, check):
    campaigns, elapsed = band_campaigns
    details = []
    ok = elapsed < 300
    for digits in (4, 5, 6):
        rates = {}
        for strategy in ("traditional", "dong2023", "allz"):
            stats = campaigns[digits, strategy].stats
            rates[strategy] = ratio(stats.successes, stats.trials)
        ok &= 0.65 <= rates["traditional"] <= 0.80
        ok &= 0.95 <= rates["allz"] <= 1.0
        ok &= rates["traditional"] < rates["dong2023"] < rates["allz"]
        details.append(
            f"d{digits}: trad={float(rates['traditional']):.4f} "
            f"dong={float(rates['dong2023']):.4f} allz={float(rates['allz']):.4f}"
        )
    check(3, ok, f"{'; '.join(details)}; ran in {elapsed:.0f}s (< 300s)")


# ------------------------------------------------------------- criterion 4


def test_criterion_4_seven_digit_near_perfection(records_7d, check):
    result, elapsed = records_7d
    stats = result.stats
    rate = ratio(stats.successes, stats.trials)
    check(
        4,
        stats.trials == 50_000
        and stats.failures <= 10
        and rate >= 0.9998
        and elapsed < 900,
        f"failures={stats.failures} (<= 10), rate={float(rate):.6f} (>= 0.9998), "
        f"campaign took {elapsed:.0f}s (< 900s)",
    )


# ------------------------------------------------------------- criterion 5


def test_criterion_5_bounded_divisor_sensitivity(records_7d, check):
    result, _ = records_7d
    stats = result.stats
    curve = stats.cumulative_success_by_bound
    rate_3 = curve.get("3", 0) / stats.trials
    class4_matches = curve.get("4", 0) == stats.successes
    per_record = all(
        (record.succeeded_z in ("fallback", "shortcut"))
        or (isinstance(record.succeeded_z, int) and record.succeeded_z <= 9999)
        for record in result.records
        if record.status == "success"
    )
    # spot-replay a slice with the bound actually enforced during the run
    replay_equal = True
    for record in result.records[::25]:
        case = TrialCase(
            case_id=record.case_id,
            semiprime=Semiprime(n=record.n, p=record.p, q=record.q),
            a=record.a,
            base_mode=record.base_mode,
            seed=record.seed,
        )
        bounded = run_trial(case, "allz", bound=9999)
        replay_equal &= bounded.status == record.status
    check(
        5,
        rate_3 >= 0.995 and class4_matches and per_record and replay_equal,
        f"bound<=997 rate={rate_3:.6f} (>= 0.995); bound<=9999 matches unbounded on "
        f"all {stats.successes} successes and on a 1/25 bounded replay",
    )


# ------------------------------------------------------------- criterion 6


def test_criterion_6_gcd_economy(records_7d, check):
    result, _ = records_7d
    mean = ratio(result.stats.gcd_count_sum, result.stats.trials)
    check(6, mean < 5, f"mean gcd count per all-z trial = {float(mean):.4f} (< 5)")


# ------------------------------------------------------------- criterion 7


def test_criterion_7_base_mode_order_structure(check):
    details = []
    ok = True
    for digits in (6, 7, 8):
        means = {}
        for mode in ("random", "perfect_square"):
            config = CampaignConfig(
                digits=digits,
                trials=2_500,
                strategy="allz",
                base_mode=mode,
                master_seed=777,
                workers=2,
            )
            stats = run_campaign(config).stats
            means[mode] = (
                ratio(stats.r_digits_sum, stats.r_count),
                ratio(stats.r_distinct_primes_sum, stats.r_count),
            )
        ok &= means["perfect_square"][0] < means["random"][0]
        ok &= means["perfect_square"][1] < means["random"][1]
        details.append(
            f"d{digits}: r_digits {float(means['perfect_square'][0]):.3f}<"
            f"{float(means['random'][0]):.3f}, r_primes "
            f"{float(means['perfect_square'][1]):.3f}<{float(means['random'][1]):.3f}"
        )
    check(7, ok, "; ".join(details))


# ------------------------------------------------------------- criterion 8


def test_criterion_8a_superset_property(check):
    count = 0
    for n, p, q in semiprimes_below(10_000):
        rng = RandomStream(case_seed(8008, n))
        if n < 30:
            # tiny moduli may have fewer than three eligible bases
            bases = {a for a in range(2, n) if math.gcd(a, n) == 1}
        else:
            bases = set()
            while len(bases) < 3:
                a = 2 + rng.below(n - 2)
                if math.gcd(a, n) == 1:
                    bases.add(a)
        parts = prime_parts(p, q)
        for a in bases:
            period = order_mod_primes(a, parts)
            trad = traditional_shor(n, a, period)
            dong = dong2023(n, a, period)
            full = all_z(n, a, period)
            if trad.status == "success":
                assert dong.status == "success", (n, a)
            if dong.status == "success":
                assert full.status == "success", (n, a)
            count += 1
    check(
        "8a",
        count > 7_500,
        f"traditional => dong2023 => all-z success held on {count} runs "
        f"over every semiprime below 10^4",
    )


def test_criterion_8b_bound_monotonicity(check):
    semis = semiprimes_below(10_000)
    rng = RandomStream(0xB0DE)
    bounds = (2, 10, 100, 1000)
    cases = 0
    while cases < 10_000:
        n, p, q = semis[rng.below(len(semis))]
        a = 2 + rng.below(n - 2)
        if math.gcd(a, n) != 1:
            continue
        period = order_mod_primes(a, prime_parts(p, q))
        outcomes = [all_z(n, a, period, bound=b) for b in bounds]
        unbounded = all_z(n, a, period)
        seen_success = False
        for out in outcomes + [unbounded]:
            if seen_success:
                assert out.status == "success", (n, a)
            seen_success = seen_success or out.status == "success"
        largest = max(period.factors.distinct_primes, default=2)
        assert all_z(n, a, period, bound=largest) == unbounded, (n, a)
        cases += 1
    check("8b", cases == 10_000, f"bound-status monotonicity held on {cases} random cases")


def test_criterion_8c_merge_algebra(check):
    rng = RandomStream(0xA15E)

    def random_stats():
        stats = CampaignStats(
            trials=rng.below(1000),
            successes=rng.below(500),
            failures=rng.below(500),
            r_count=rng.below(1000),
            r_digits_sum=rng.below(10_000),
            r_distinct_primes_sum=rng.below(10_000),
            even_r_count=rng.below(1000),
            half_power_minus_one_count=rng.below(1000),
            fallback_success_count=rng.below(100),
        )
        for _ in range(rng.below(4)):
            stats.gcd_count_histogram[1 + rng.below(8)] = 1 + rng.below(50)
            stats.attempts_per_success_histogram[1 + rng.below(4)] = 1 + rng.below(50)
            stats.failures_by_reason["reason" + str(rng.below(3))] = 1 + rng.below(50)
            stats.cumulative_success_by_bound[("1", "2", "3", "4", "inf")[rng.below(5)]] = (
                1 + rng.below(50)
            )
        return stats

    empty = CampaignStats()
    checked = 0
    for _ in range(400):
        s1, s2, s3 = random_stats(), random_stats(), random_stats()
        assert merge_stats(s1, s2) == merge_stats(s2, s1)
        assert merge_stats(merge_stats(s1, s2), s3) == merge_stats(s1, merge_stats(s2, s3))
        assert merge_stats(empty, s1) == s1 == merge_stats(s1, empty)
        checked += 3
    check("8c", checked == 1_200, f"merge associativity/commutativity/identity on {checked} checks")


def test_criterion_8d_campaign_determinism(check):
    config = CampaignConfig(digits=5, trials=600, master_seed=31337, workers=1)
    first = run_campaign(config)
    second = run_campaign(config)
    pooled = run_campaign(config._replace(workers=4))
    jsonl = lambda result: "\n".join(record_json_line(r) for r in result.records)
    identical_reruns = jsonl(first) == jsonl(second)
    identical_workers = jsonl(first) == jsonl(pooled)
    stats_consistent = (
        first.stats == second.stats == pooled.stats == compute_metrics(first.records)
    )
    check(
        "8d",
        identical_reruns and identical_workers and stats_consistent,
        "byte-identical JSONL across reruns and across workers 1 vs 4; "
        "streamed stats equal recomputed stats",
    )


def test_criterion_8e_factor_validity(records_7d, band_campaigns, check):
    result, _ = records_7d
    campaigns, _ = band_campaigns
    pools = [result.records] + [res.records for res in campaigns.values()]
    successes = 0
    for records in pools:
        for record in records:
            if record.status == "success":
                assert record.factor in (record.p, record.q), record.case_id
                successes += 1
    check("8e", successes > 100_000, f"factor is the true p or q on all {successes} successes")


# ------------------------------------------------------------- criterion 9


def _cochran_decimal_oracle(p_str, e_str, z_str):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = decimal.Decimal(p_str)
        e = decimal.Decimal(e_str)
        z = decimal.Decimal(z_str)
        m = z * z * p * (1 - p) / (e * e)
        return int(m.to_integral_value(rounding=decimal.ROUND_CEILING))


def test_criterion_9_cochran_helper(check):
    exact = cochran_sample_size(0.5, 0.01, 1.96) == 9604
    rng = RandomStream(0xC0C4)
    agreed = 0
    for _ in range(1_000):
        p_str = f"0.{rng.below(10_000):04d}"
        e_str = f"0.{1 + rng.below(4_999):04d}"
        z_str = f"{1 + rng.below(3)}.{rng.below(100):02d}"
        expected = _cochran_decimal_oracle(p_str, e_str, z_str)
        assert cochran_sample_size(p_str, e_str, z_str) == expected, (p_str, e_str, z_str)
        agreed += 1
    check(
        9,
        exact and agreed == 1_000,
        f"(0.5, 0.01, 1.96) -> 9604 exactly; {agreed} random inputs match the "
        f"independent decimal evaluation",
    )
