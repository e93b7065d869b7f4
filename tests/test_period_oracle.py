"""Tests for the exact order oracle against brute-force walking."""

import math

import pytest
from conftest import semiprimes_below
from hypothesis import given, settings
from hypothesis import strategies as st

from allz.numtheory import Factorization, factorize
from allz.period_oracle import (
    PeriodRecord,
    carmichael_exponent,
    lcm_of_orders,
    multiplicative_order,
    order_brute_force,
    order_mod_primes,
)


class TestCarmichaelExponent:
    def test_examples(self):
        assert carmichael_exponent(3, 5) == 4
        # lcm(1008, 2002): 1008 = 2^4*3^2*7, 2002 = 2*7*11*13
        assert carmichael_exponent(11, 13) == 60
        assert carmichael_exponent(1009, 2003) == 144144

    def test_annihilates_every_unit(self):
        for p, q in [(3, 5), (11, 13), (7, 19)]:
            n = p * q
            lam = carmichael_exponent(p, q)
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert pow(a, lam, n) == 1

    def test_rejects_equal_or_composite(self):
        with pytest.raises(ValueError):
            carmichael_exponent(7, 7)
        with pytest.raises(ValueError):
            carmichael_exponent(9, 5)
        with pytest.raises(ValueError):
            carmichael_exponent(3, 15)


class TestOrderBruteForce:
    def test_examples(self):
        assert order_brute_force(2, 21) == 6
        assert order_brute_force(4, 21) == 3
        assert order_brute_force(1, 15) == 1

    def test_guard_rails(self):
        with pytest.raises(ValueError):
            order_brute_force(2, 10**6 + 1)
        with pytest.raises(ValueError):
            order_brute_force(3, 15)
        with pytest.raises(ValueError):
            order_brute_force(0, 15)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 15).order == order_brute_force(2, 15) == 4
        assert multiplicative_order(1316667, 2540107).order == 27
        assert multiplicative_order(36, 1406371).order == 15

    def test_returns_complete_factorization(self):
        record = multiplicative_order(1316667, 2540107)
        assert record.factors.entries == ((3, 3),)

    def test_minimality_certificate(self):
        for a, n in [(2, 15), (36, 1406371), (25036489, 53948449), (7, 9995 * 2 + 1)]:
            if math.gcd(a, n) != 1:
                continue
            record = multiplicative_order(a, n)
            r = record.order
            assert pow(a, r, n) == 1
            for z in record.factors.distinct_primes:
                assert pow(a, r // z, n) != 1

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            multiplicative_order(5, 15)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            multiplicative_order(0, 15)
        with pytest.raises(ValueError):
            multiplicative_order(16, 15)
        with pytest.raises(ValueError):
            multiplicative_order(1, 1)

    def test_rejects_wrong_hint(self):
        # ord_15(2) = 4, so the exponent 3 does not annihilate the base
        with pytest.raises(ValueError):
            multiplicative_order(2, 15, exponent_hint=Factorization(((3, 1),)))

    def test_hint_and_hintless_paths_agree(self):
        for n, p, q in semiprimes_below(3000)[::7]:
            hint = factorize(carmichael_exponent(p, q))
            for a in (2, 3, n - 1):
                if not 1 <= a < n or math.gcd(a, n) != 1:
                    continue
                with_hint = multiplicative_order(a, n, exponent_hint=hint)
                without = multiplicative_order(a, n)
                assert with_hint == without

    def test_works_on_general_composites(self):
        # the CLI accepts any composite modulus, not just semiprimes; the
        # larger prime powers and the three-prime mix take bases on a stride
        cases = [(n, 1) for n in (8, 16, 36, 100, 3**4, 2 * 3 * 5 * 7)]
        cases += [(2**17, 1009), (3**9, 101), (2**5 * 3**4 * 7**2, 1009)]
        for n, stride in cases:
            for a in range(2, n, stride):
                if math.gcd(a, n) == 1:
                    assert multiplicative_order(a, n).order == order_brute_force(a, n)

    def test_exhaustive_small_semiprimes_vs_brute_force(self):
        for n, p, q in semiprimes_below(600):
            hint = factorize(carmichael_exponent(p, q))
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    record = multiplicative_order(a, n, exponent_hint=hint)
                    assert record.order == order_brute_force(a, n), (a, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_order_divides_group_exponent(self, data):
        semis = semiprimes_below(10_000)
        n, p, q = data.draw(st.sampled_from(semis))
        a = data.draw(st.integers(min_value=2, max_value=n - 1))
        if math.gcd(a, n) != 1:
            return
        lam = carmichael_exponent(p, q)
        record = multiplicative_order(a, n, exponent_hint=factorize(lam))
        assert lam % record.order == 0
        assert record.factors.value == record.order


class TestLcmOfOrders:
    def test_merge_keeps_larger_multiplicity(self):
        mod_p = PeriodRecord(order=12, factors=Factorization(((2, 2), (3, 1))))
        mod_q = PeriodRecord(order=10, factors=Factorization(((2, 1), (5, 1))))
        merged = PeriodRecord(order=60, factors=Factorization(((2, 2), (3, 1), (5, 1))))
        assert lcm_of_orders(mod_p, mod_q) == merged
        assert lcm_of_orders(mod_q, mod_p) == merged
        one = PeriodRecord(order=1, factors=Factorization(()))
        assert lcm_of_orders(one, mod_p) == mod_p

    def test_every_unit_of_small_semiprimes_matches_direct_order(self):
        # The campaign's composition: the order mod p from the factored
        # p - 1, the same for q, merged by lcm, and order_mod_primes doing
        # both in one pass. p = 2 is included.
        orders_mod = {}

        def order_mod(x, prime):
            table = orders_mod.get(prime)
            if table is None:
                hint = factorize(prime - 1)
                table = orders_mod[prime] = [None] + [
                    multiplicative_order(y, prime, exponent_hint=hint) for y in range(1, prime)
                ]
            return table[x]

        semis = semiprimes_below(2000)
        assert semis[0] == (6, 2, 3)
        for n, p, q in semis:
            hint = factorize(carmichael_exponent(p, q))
            parts = ((p, factorize(p - 1)), (q, factorize(q - 1)))
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    composed = lcm_of_orders(order_mod(a % p, p), order_mod(a % q, q))
                    assert composed == multiplicative_order(a, n, exponent_hint=hint), (a, n)
                    assert order_mod_primes(a, parts) == composed, (a, n)


class TestOrderModPrimes:
    def test_base_reduced_mod_each_prime(self):
        # a = n + 2 is 2 mod p and mod q, so its order is that of 2 mod n.
        p, q = 1009, 1013
        parts = ((p, factorize(p - 1)), (q, factorize(q - 1)))
        assert order_mod_primes(p * q + 2, parts) == multiplicative_order(2, p * q)

    def test_composite_prime_whose_hint_fails_raises(self):
        # 15 is no prime: 2**14 = 4 (mod 15), so its "p - 1" annihilates nothing.
        with pytest.raises(ValueError, match="does not annihilate"):
            order_mod_primes(2, ((7, factorize(6)), (15, factorize(14))))

    def test_non_unit_raises_the_direct_oracle_message(self):
        parts = ((7, factorize(6)), (11, factorize(10)))
        with pytest.raises(ValueError) as direct:
            multiplicative_order(0, 7, exponent_hint=factorize(6))
        with pytest.raises(ValueError) as by_primes:
            order_mod_primes(14, parts)
        assert str(by_primes.value) == str(direct.value)


class TestPeriodRecord:
    def test_complete_record_checks_reconstruction(self):
        # Checked however one is built: directly, by _make or by _replace.
        four = Factorization(((2, 2),))
        record = PeriodRecord(order=4, factors=four)
        for build in (
            lambda: PeriodRecord(order=6, factors=four),
            lambda: PeriodRecord._make((6, four)),
            lambda: record._replace(order=6),
            lambda: record._replace(factors=Factorization(((3, 1),))),
        ):
            with pytest.raises(ValueError, match="does not reconstruct"):
                build()
        with pytest.raises(ValueError, match="order must be >= 1"):
            record._replace(order=0)
        assert type(PeriodRecord._make((4, four))) is PeriodRecord
        # A named tuple: equal to a plain tuple of its values.
        assert record == (4, four) and record._fields == ("order", "factors")
