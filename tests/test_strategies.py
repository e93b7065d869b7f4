"""Tests for the three post-processing strategies."""

import math

import pytest
from conftest import semiprimes_below

from allz.campaign import RandomStream
from allz.numtheory import factorize
from allz.period_oracle import multiplicative_order
from allz.strategies import (
    all_z,
    attempt_divisor,
    dong2023,
    fallback_square,
    traditional_shor,
)


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
