"""Tests for the three post-processing strategies."""

import math

import pytest
from conftest import semiprimes_below
from hypothesis import given, settings
from hypothesis import strategies as st

from allz import strategies
from allz.campaign import STRATEGIES, RandomStream, run_strategy
from allz.fixtures import REFERENCE_FAILURE_CASES
from allz.numtheory import Factorization, factorize, perfect_square_root
from allz.period_oracle import PeriodRecord, multiplicative_order
from allz.strategies import AttemptResult, FactorOutcome, all_z, dong2023, traditional_shor
from reference import attempt_divisor, fallback_square, summarize


def period_of(a, n):
    return multiplicative_order(a, n)


class TestAttemptDivisor:
    def test_factor_found(self):
        att = attempt_divisor(21, 2, 6, 2)
        assert att.outcome == "factor_found"
        assert att.gcd_value == 7
        assert att.divisor_z == 2
        # A named tuple: equal to a plain tuple of its values.
        assert att == ("divisor", 2, 7, "factor_found")

    def test_half_power_minus_one_is_trivial(self):
        att = attempt_divisor(21, 5, 6, 2)
        assert att.outcome == "trivial_one"
        assert att.gcd_value == 1

    def test_reference_row_is_trivial(self):
        att = attempt_divisor(2540107, 1316667, 27, 3)
        assert att.outcome in ("trivial_one", "trivial_n")

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            attempt_divisor(21, 2, 6, 5)


class TestFallbackSquare:
    def test_factor_found(self):
        att = fallback_square(21, 2, 3)
        assert att.outcome == "factor_found"
        assert att.gcd_value == 7
        assert att.kind == "fallback"

    def test_trivial_cases(self):
        assert fallback_square(1406371, 6, 15).outcome == "trivial_n"
        assert fallback_square(1148743, 295, 21).outcome == "trivial_one"

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            fallback_square(21, 7, 3)


class TestAllZ:
    def test_success_via_smallest_divisor(self):
        out = all_z(21, 2, period_of(2, 21))
        assert out.status == "success"
        assert out.factor == 7
        assert out.witness.divisor_z == 2
        assert out.attempts[-1] is out.witness

    def test_reference_failure_logs_every_attempt(self):
        out = all_z(2540107, 1316667, period_of(1316667, 2540107))
        assert out.status == "failure"
        assert [(att.kind, att.divisor_z) for att in out.attempts] == [("divisor", 3)]
        assert out.factor is None and out.witness is None

    def test_square_failure_runs_fallback_last(self):
        out = all_z(1406371, 36, period_of(36, 1406371))
        assert out.status == "failure"
        assert [(att.kind, att.divisor_z) for att in out.attempts] == [
            ("divisor", 3),
            ("divisor", 5),
            ("fallback", None),
        ]

    def test_shortcut_on_shared_factor(self):
        out = all_z(15, 5, None)
        assert out.status == "success"
        assert out.factor == 5
        assert out.witness.kind == "gcd_shortcut"
        assert out.gcd_count == 1

    def test_requires_period_when_coprime(self):
        with pytest.raises(ValueError):
            all_z(21, 2, None)

    def test_bound_restricts_divisors(self):
        n = 31 * 37
        period = period_of(2, n)
        assert period.factors == factorize(period.order)
        assert max(period.factors.distinct_primes) > 3
        bounded = all_z(n, 2, period, bound=3)
        for att in bounded.attempts:
            if att.kind == "divisor":
                assert att.divisor_z <= 3

    def test_bound_beyond_largest_prime_matches_unbounded(self):
        rng = RandomStream(0xB0B)
        semis = semiprimes_below(10_000)
        for _ in range(300):
            n, p, q = semis[rng.below(len(semis))]
            a = 2 + rng.below(n - 2)
            if math.gcd(a, n) != 1:
                continue
            period = period_of(a, n)
            largest = period.factors.distinct_primes[-1] if period.factors.distinct_primes else 2
            assert all_z(n, a, period, bound=largest) == all_z(n, a, period)

    def test_bound_below_two_raises_after_the_shortcut(self):
        with pytest.raises(ValueError, match=r"^bound must be >= 2, got 1$"):
            all_z(21, 2, period_of(2, 21), bound=1)
        with pytest.raises(ValueError, match=r"^bound must be >= 2, got -5$"):
            all_z(1406371, 36, period_of(36, 1406371), bound=-5)
        # A non-unit base is factored by the gcd(a, n) probe before the bound is read.
        assert all_z(15, 5, None, bound=1) == all_z(15, 5, None)
        assert all_z(21, 14, period_of(2, 21), bound=1).succeeded_z == "shortcut"

    def test_bound_monotone_in_status(self):
        rng = RandomStream(0xCAFE)
        semis = semiprimes_below(10_000)
        bounds = (2, 10, 100, 1000)
        for _ in range(500):
            n, p, q = semis[rng.below(len(semis))]
            a = 2 + rng.below(n - 2)
            if math.gcd(a, n) != 1:
                continue
            period = period_of(a, n)
            statuses = [all_z(n, a, period, bound=b).status for b in bounds]
            statuses.append(all_z(n, a, period).status)
            seen_success = False
            for status in statuses:
                if seen_success:
                    assert status == "success"
                seen_success = seen_success or status == "success"


class TestTraditional:
    def test_success_example(self):
        out = traditional_shor(15, 2, period_of(2, 15))
        assert out.status == "success"
        assert out.factor == 3

    def test_half_power_failure(self):
        out = traditional_shor(21, 5, period_of(5, 21))
        assert out.status == "failure"
        assert out.attempts == ()
        assert out.gcd_count == 1
        assert pow(5, 3, 21) == 20

    def test_odd_period_failure(self):
        out = traditional_shor(2540107, 1316667, period_of(1316667, 2540107))
        assert out.status == "failure"
        assert out.attempts == ()

    def test_even_period_success(self):
        out = traditional_shor(21, 2, period_of(2, 21))
        assert out.status == "success"
        assert out.factor == 7

    def test_minus_gcd_decides_on_any_composite(self):
        # Once r is even and a**(r/2) != -1, a**(r/2) is a square root of 1
        # other than +-1, so gcd(a**(r/2) - 1, n) alone is a proper factor.
        for n in (45, 105, 189, 210, 1155):
            for a in range(2, n):
                if math.gcd(a, n) != 1:
                    continue
                period = period_of(a, n)
                r = period.order
                out = traditional_shor(n, a, period)
                usable = r % 2 == 0 and pow(a, r // 2, n) != n - 1
                assert out.status == ("success" if usable else "failure")
                assert len(out.attempts) == usable


class TestDong2023:
    def test_success_via_traditional_path(self):
        out = dong2023(21, 2, period_of(2, 21))
        assert out.status == "success"
        assert out.factor == 7

    def test_reference_failure(self):
        out = dong2023(2540107, 1316667, period_of(1316667, 2540107))
        assert out.status == "failure"
        kinds = [(att.kind, att.divisor_z) for att in out.attempts]
        assert kinds == [("divisor", 3)]

    def test_success_via_divisor_three(self):
        out = dong2023(21, 4, period_of(4, 21))
        assert out.status == "success"
        assert out.factor == 3
        assert out.witness.divisor_z == 3


class TestStrategyProperties:
    def bases_for(self, n, count, rng):
        out = []
        while len(out) < count:
            a = 2 + rng.below(n - 2)
            if math.gcd(a, n) == 1:
                out.append(a)
        return out

    def test_success_factor_is_true_prime_factor(self):
        rng = RandomStream(1)
        for n, p, q in semiprimes_below(10_000)[::5]:
            for a in self.bases_for(n, 2, rng):
                out = all_z(n, a, period_of(a, n))
                if out.status == "success":
                    assert out.factor in (p, q)

    def test_superset_property_small_exhaustive(self):
        for n, p, q in semiprimes_below(600):
            for a in range(2, n):
                if math.gcd(a, n) != 1:
                    continue
                period = period_of(a, n)
                trad = traditional_shor(n, a, period)
                dong = dong2023(n, a, period)
                full = all_z(n, a, period)
                if trad.status == "success":
                    assert dong.status == "success"
                if dong.status == "success":
                    assert full.status == "success"

    def test_failure_logs_are_all_trivial_and_deterministic(self):
        # The outcome is read off its log, so every attempt but the last
        # must be trivial and a success must end on its witness.
        rng = RandomStream(2)
        for n, p, q in semiprimes_below(10_000)[::11]:
            for a in self.bases_for(n, 2, rng) + [p * (2 + rng.below(q - 2))]:
                period = period_of(a, n) if math.gcd(a, n) == 1 else None
                for strategy in (all_z, traditional_shor, dong2023):
                    out = strategy(n, a, period)
                    assert out == strategy(n, a, period)
                    for att in out.attempts[:-1]:
                        assert att.gcd_value in (1, n)
                    if out.status == "success":
                        assert out.witness is out.attempts[-1]
                        assert out.factor == out.witness.gcd_value in (p, q)
                        continue
                    for att in out.attempts:
                        assert att.gcd_value in (1, n)
                    if any(att.kind == "fallback" for att in out.attempts):
                        b = math.isqrt(a)
                        assert b * b == a
                        assert pow(pow(b, period.order, n), 2, n) == 1

    def test_attempts_ascend_with_fallback_last(self):
        rng = RandomStream(3)
        for n, p, q in semiprimes_below(10_000)[::13]:
            for a in self.bases_for(n, 2, rng):
                out = all_z(n, a, period_of(a, n))
                zs = [att.divisor_z for att in out.attempts if att.kind == "divisor"]
                assert zs == sorted(zs) and len(set(zs)) == len(zs)
                kinds = [att.kind for att in out.attempts]
                if "fallback" in kinds:
                    assert kinds.index("fallback") == len(kinds) - 1

    def test_gcd_count_budget(self):
        rng = RandomStream(4)
        for n, p, q in semiprimes_below(10_000)[::17]:
            for a in self.bases_for(n, 2, rng):
                period = period_of(a, n)
                n_primes = len(period.factors.distinct_primes)
                for strategy in (traditional_shor, dong2023):
                    out = strategy(n, a, period)
                    assert out.gcd_count <= 1 + n_primes + 2
                    assert out.gcd_count >= 1
                out = all_z(n, a, period)
                assert out.gcd_count <= 1 + n_primes + 1

    def test_validates_instance_bounds(self):
        period = period_of(2, 21)
        with pytest.raises(ValueError):
            all_z(21, 1, period)
        with pytest.raises(ValueError):
            all_z(21, 21, period)
        with pytest.raises(ValueError):
            traditional_shor(3, 2, period)


def reference_summary(attempts):
    """What FactorOutcome's properties read off the log when each was a walk of it."""
    witness = attempts[-1] if attempts and attempts[-1].outcome == "factor_found" else None
    if witness is None:
        succeeded_z = None
    elif witness.kind == "divisor":
        succeeded_z = witness.divisor_z
    else:
        succeeded_z = "fallback" if witness.kind == "fallback" else "shortcut"
    return {
        "witness": witness,
        "status": "failure" if witness is None else "success",
        "factor": None if witness is None else witness.gcd_value,
        "gcd_count": 1 + sum(att.kind != "gcd_shortcut" for att in attempts),
        "succeeded_z": succeeded_z,
        "failed_z": tuple(
            dict.fromkeys(
                att.divisor_z
                for att in attempts
                if att.kind == "divisor" and att.outcome != "factor_found"
            )
        ),
        "fallback_tried": any(att.kind == "fallback" for att in attempts),
    }


def summary_of(out):
    return {name: getattr(out, name) for name in reference_summary(())}


class TestOutcomeSummary:
    def test_matches_the_log_over_every_small_instance(self):
        seen = set()
        for n, p, q in semiprimes_below(500):
            if p == 2:
                continue
            for a in range(2, n):
                period = period_of(a, n) if math.gcd(a, n) == 1 else None
                for strategy in STRATEGIES:
                    for bound in (None, 2, 3):
                        out = run_strategy(strategy, n, a, period, bound)
                        assert summary_of(out) == reference_summary(out.attempts)
                        seen.add(tuple(att.kind for att in out.attempts))
        # Every shape of log the strategies write is among them.
        assert {(), ("gcd_shortcut",), ("divisor",), ("divisor", "divisor")} <= seen
        assert {("fallback",), ("divisor", "fallback")} <= seen

    def test_matches_the_log_on_a_multiple_of_the_order(self):
        # The strategies build each outcome from facts that hold for the exact
        # order r. On 2r every half power is 1, so each z = 2 attempt, the
        # traditional one included, is trivial, and the outcome still reads
        # as its log.
        for n, p, q in semiprimes_below(300):
            for a in range(2, n):
                if math.gcd(a, n) == 1:
                    r = 2 * period_of(a, n).order
                    period = PeriodRecord(r, factorize(r))
                    for strategy in STRATEGIES:
                        for bound in (None, 2, 3):
                            out = run_strategy(strategy, n, a, period, bound)
                            assert summary_of(out) == reference_summary(out.attempts)
                            assert out == summarize(out.attempts)

    def test_reference_summary_reads_every_log(self):
        # The strategies' outcomes are held to `summarize`; it reads each
        # value off the log alone, whatever shape the log has.
        success = all_z(21, 2, period_of(2, 21)).attempts
        failure = all_z(1406371, 36, period_of(36, 1406371)).attempts
        repeated = (
            AttemptResult("divisor", 3, 1, "trivial_one"),
            AttemptResult("divisor", 3, 21, "trivial_n"),
            AttemptResult("divisor", 2, 1, "trivial_one"),
            AttemptResult("fallback", None, 7, "factor_found"),
        )
        for log in ((), success, failure, repeated):
            out = summarize(log)
            assert type(out) is FactorOutcome
            assert out.attempts == log and summary_of(out) == reference_summary(log)
        assert summarize(repeated).failed_z == (3, 2)
        assert summarize(repeated).succeeded_z == "fallback"


def reference_attempt(kind, z, base, exponent, n):
    """One gcd attempt as the strategies first took it: the power's gcd
    through (t + n - 1) mod n, classified apart from it."""
    g = math.gcd((pow(base, exponent, n) + n - 1) % n, n)
    outcome = "trivial_n" if g == n else "trivial_one" if g <= 1 else "factor_found"
    return AttemptResult(kind, z, g, outcome)


def reference_walk(n, a, r, divisors):
    """The divisor walk composed of the public single attempts: each
    divisor through attempt_divisor, the square fallback through
    fallback_square."""
    attempts = []
    for z in divisors:
        attempts.append(attempt_divisor(n, a, r, z))
        if attempts[-1].outcome == "factor_found":
            return summarize(tuple(attempts))
    b = perfect_square_root(a)
    if b is not None:
        attempts.append(fallback_square(n, b, r))
    return summarize(tuple(attempts))


def reference_strategy(strategy, n, a, period, bound):
    """run_strategy over reference_walk, with each check written out."""
    if n < 4:
        raise ValueError(f"modulus must be a composite >= 4, got {n}")
    if not 2 <= a < n:
        raise ValueError(f"base must satisfy 2 <= a < n, got a={a}, n={n}")
    if period is not None and period.order < 1:
        raise ValueError("order must be >= 1")
    if period is not None and period.factors.value != period.order:
        raise ValueError("factorization does not reconstruct the order")
    g = math.gcd(a, n)
    if g > 1:
        return summarize((AttemptResult("gcd_shortcut", None, g, "factor_found"),))
    if period is None:
        raise ValueError("a period record is required when gcd(a, n) == 1")
    r = period.order
    if strategy == "allz":
        if bound is not None and bound < 2:
            raise ValueError(f"bound must be >= 2, got {bound}")
        primes = [z for z, _ in period.factors.entries if bound is None or z <= bound]
        return reference_walk(n, a, r, primes)
    base = summarize(())
    if r % 2 == 0 and pow(a, r // 2, n) != n - 1:
        base = summarize((attempt_divisor(n, a, r, 2),))
    if strategy == "traditional" or base.status == "success":
        return base
    return reference_walk(n, a, r, (3,) if r % 3 == 0 else ())


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


DIFFERENTIAL_SEMIPRIMES = semiprimes_below(3000)
BOUNDS = (None, 2, 3, 9, 9999)


class TestOneCallAttempt:
    """The strategies against the composition of the public single attempts."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_the_composed_reference(self, data):
        n, p, q = data.draw(st.sampled_from(DIFFERENTIAL_SEMIPRIMES))
        kind = data.draw(st.sampled_from(("random", "square", "non-unit")))
        if kind == "random":
            a = data.draw(st.integers(min_value=2, max_value=n - 1))
        elif kind == "square":
            a = data.draw(st.integers(min_value=2, max_value=math.isqrt(n - 1))) ** 2
        else:
            a = p * data.draw(st.integers(min_value=1, max_value=q - 1))
        period = multiplicative_order(a, n) if math.gcd(a, n) == 1 else None
        for strategy in STRATEGIES:
            for bound in BOUNDS:
                expected = reference_strategy(strategy, n, a, period, bound)
                assert run_strategy(strategy, n, a, period, bound) == expected
        if period is not None:
            r = period.order
            for z, _ in period.factors.entries:
                assert attempt_divisor(n, a, r, z) == reference_attempt("divisor", z, a, r // z, n)
            b = math.isqrt(a)
            if b * b == a:
                assert fallback_square(n, b, r) == reference_attempt("fallback", None, b, r, n)

    def test_invalid_inputs_give_the_reference_messages(self):
        period = period_of(2, 21)
        cases = [
            (3, 2, period, None),
            (21, 1, period, None),
            (21, 21, period, None),
            (21, 2, None, None),
            (21, 2, period, 1),
            (21, 2, period, -5),
            (15, 5, None, 1),  # the shortcut comes before the bound is read
            # A caller's period is checked wherever it is given, shortcut or not.
            (21, 2, PeriodRecord(0, Factorization(())), None),
            (21, 2, PeriodRecord(-6, factorize(6)), None),
            (21, 2, PeriodRecord(6, factorize(12)), None),
            (21, 2, PeriodRecord(12, factorize(6)), None),
            (15, 5, PeriodRecord(4, factorize(2)), None),
            (3, 2, PeriodRecord(0, Factorization(())), None),  # (n, a) are checked first
        ]
        for strategy in STRATEGIES:
            for n, a, record, bound in cases:
                expected = outcome_or_error(reference_strategy, strategy, n, a, record, bound)
                got = outcome_or_error(run_strategy, strategy, n, a, record, bound)
                assert got == expected, (strategy, n, a, bound)
        assert outcome_or_error(attempt_divisor, 21, 2, 6, 5) == "5 does not divide the order 6"
        assert outcome_or_error(fallback_square, 21, 7, 3) == "square root 7 shares a factor with 21"
        assert outcome_or_error(fallback_square, 21, 2, 0) == "order must be >= 1"

    def test_one_pow_per_divisor_tried_and_one_for_the_fallback(self, monkeypatch):
        exponents = []

        def counted_pow(base, exponent, modulus):
            exponents.append(exponent)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(strategies, "pow", counted_pow, raising=False)
        shapes = set()
        for n, p, q in semiprimes_below(2000)[::9]:
            for a in [*range(2, n, 17), *(b * b for b in range(2, math.isqrt(n - 1) + 1))]:
                period = multiplicative_order(a, n) if math.gcd(a, n) == 1 else None
                for bound in BOUNDS:
                    exponents.clear()
                    out = all_z(n, a, period, bound)
                    tried = [att.kind for att in out.attempts if att.kind != "gcd_shortcut"]
                    assert len(exponents) == len(tried), (n, a, bound)
                    shapes.add(tuple(tried))
        assert {(), ("divisor",), ("divisor", "divisor"), ("fallback",)} <= shapes
        assert ("divisor", "fallback") in shapes


def valuation(x, z):
    """The exponent of the prime z in x >= 1."""
    k = 0
    while x % z == 0:
        x //= z
        k += 1
    return k


@pytest.mark.parametrize("case", REFERENCE_FAILURE_CASES, ids=lambda case: f"{case.n}-{case.a}")
def test_reference_failures_meet_the_failure_law(case):
    # For n = pq, the walk over the primes z of r = lcm(ord_p a, ord_q a)
    # fails exactly when ord_p a and ord_q a hold each z to the same power:
    # then a^(r/z) is 1 mod both primes or mod neither. Each `verify-paper`
    # row is such a case, and its failing primes are all the primes of r.
    entries = tuple(factorize(case.n))
    assert len(entries) == 2 and all(e == 1 for _, e in entries)  # n = pq, p != q
    (p, _), (q, _) = entries
    ord_p = multiplicative_order(case.a % p, p).order
    ord_q = multiplicative_order(case.a % q, q).order
    assert math.lcm(ord_p, ord_q) == case.expected_r
    r_primes = factorize(case.expected_r).distinct_primes
    assert all(valuation(ord_p, z) == valuation(ord_q, z) for z in r_primes)
    assert case.expected_fail_factors == r_primes
