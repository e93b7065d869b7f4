"""Tests for the exact order oracle against brute-force walking."""

import math

import pytest
from conftest import semiprimes_below
from hypothesis import given, settings
from hypothesis import strategies as st

from allz import period_oracle
from allz.numtheory import Factorization, factorize
from allz.period_oracle import (
    PeriodRecord,
    carmichael_exponent,
    multiplicative_order,
    order_mod_primes,
)
from allz.strategies import all_z, dong2023, traditional_shor
from reference import order_brute_force


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
            order_mod_primes(2, ((15, Factorization(((3, 1),))),))

    def test_hint_and_hintless_paths_agree(self):
        for n, p, q in semiprimes_below(3000)[::7]:
            hint = factorize(carmichael_exponent(p, q))
            for a in (2, 3, n - 1):
                if not 1 <= a < n or math.gcd(a, n) != 1:
                    continue
                with_hint = order_mod_primes(a, ((n, hint),))
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
                    record = order_mod_primes(a, ((n, hint),))
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
        record = order_mod_primes(a, ((n, factorize(lam)),))
        assert lam % record.order == 0
        assert record.factors.value == record.order


class TestLcmOfOrders:
    """The order mod a product of coprime moduli is the lcm of the orders mod each."""

    def test_merge_keeps_larger_multiplicity(self):
        # 2 has order 12 = 2**2 * 3 mod 13 and order 10 = 2 * 5 mod 11: both
        # orders hold the prime 2, at valuations 2 and 1, and the lcm keeps 2**2.
        mod_13, mod_11 = (13, factorize(12)), (11, factorize(10))
        merged = PeriodRecord(order=60, factors=Factorization(((2, 2), (3, 1), (5, 1))))
        assert order_mod_primes(2, (mod_13,)).factors.entries == ((2, 2), (3, 1))
        assert order_mod_primes(2, (mod_11,)).factors.entries == ((2, 1), (5, 1))
        assert order_mod_primes(2, (mod_13, mod_11)) == merged
        assert order_mod_primes(2, (mod_11, mod_13)) == merged
        # 1 has order 1 mod 7, which leaves the order mod 13 as it is.
        assert order_mod_primes(15, ((7, factorize(6)), mod_13)) == order_mod_primes(2, (mod_13,))

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
                    order_mod_primes(y, ((prime, hint),)) for y in range(1, prime)
                ]
            return table[x]

        semis = semiprimes_below(2000)
        assert semis[0] == (6, 2, 3)
        for n, p, q in semis:
            hint = factorize(carmichael_exponent(p, q))
            parts = ((p, factorize(p - 1)), (q, factorize(q - 1)))
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    r = math.lcm(order_mod(a % p, p).order, order_mod(a % q, q).order)
                    composed = PeriodRecord(r, factorize(r))
                    assert composed == order_mod_primes(a, ((n, hint),)), (a, n)
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
            multiplicative_order(0, 7)
        with pytest.raises(ValueError) as by_primes:
            order_mod_primes(14, parts)
        assert str(by_primes.value) == str(direct.value)


def annihilation_first(a, parts):
    """order_mod_primes as it was before a reduction stood in for the full
    power: each part checks that its hint annihilates the base, then
    reduces; the orders merge by lcm and each prime keeps its largest
    multiplicity."""
    order, factors = 1, {}
    for m, hint in parts:
        b = a % m
        if b == 0:
            raise ValueError(f"base must satisfy 1 <= a < n, got a={b}, n={m}")
        r = hint.value
        if pow(b, r, m) != 1:
            raise ValueError("exponent hint does not annihilate the base")
        for z, mult in hint.entries:
            while mult and pow(b, r // z, m) == 1:
                r //= z
                mult -= 1
            if mult:
                factors[z] = max(factors.get(z, 0), mult)
        order = math.lcm(order, r)
    return PeriodRecord(order, Factorization(tuple(sorted(factors.items()))))


def order_or_error(oracle, a, parts):
    try:
        return oracle(a, parts)
    except ValueError as exc:
        return str(exc)


# Moduli with factored exponents: primes with p - 1, prime powers with
# phi(p**e), composites with a universal exponent (21, 91) or with one that
# annihilates no unit but 1 (15 with 14), and empty hints, which only 1
# satisfies.
ORACLE_PARTS = (
    *((p, factorize(p - 1)) for p in (2, 3, 5, 7, 11, 13, 1009, 10007)),
    (9, factorize(6)), (25, factorize(20)), (32, factorize(16)), (7**3, factorize(294)),
    (21, factorize(6)), (91, factorize(12)), (15, factorize(14)),
    (17, Factorization(())), (4, Factorization(())),
)


class TestReductionProvesAnnihilation:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_checking_annihilation_first(self, data):
        parts = data.draw(st.lists(st.sampled_from(ORACLE_PARTS), min_size=1, max_size=3))
        span = math.prod(m for m, _ in parts)
        m = data.draw(st.sampled_from([m for m, _ in parts]))
        kind = data.draw(st.sampled_from(("any", "square", "non-residue", "non-unit")))
        k = data.draw(st.integers(min_value=0, max_value=2 * span))
        if kind == "any":
            a = k
        elif kind == "square":
            a = k * k
        elif kind == "non-residue":
            # The least g whose Euler power mod m is not 1; g + m*k is one too.
            g = next((g for g in range(2, m) if pow(g, (m - 1) // 2 or 1, m) != 1), 1)
            a = g + m * k
        else:
            a = min(z for z in range(2, m + 1) if m % z == 0) * k
        expected = order_or_error(annihilation_first, a, parts)
        assert order_or_error(order_mod_primes, a, parts) == expected

    def test_each_error_of_the_reference_is_kept(self):
        cases = [
            (2, ((15, factorize(14)),)),
            (2, ((7, factorize(6)), (15, factorize(14)))),
            (3, ((15, factorize(14)),)),  # no unit mod 15
            (2, ((17, Factorization(())),)),
            (1, ((17, Factorization(())),)),
            (14, ((7, factorize(6)), (11, factorize(10)))),
            (4, ((7**3, factorize(294)), (15, factorize(4)))),
        ]
        for a, parts in cases:
            expected = order_or_error(annihilation_first, a, parts)
            assert order_or_error(order_mod_primes, a, parts) == expected, (a, parts)
        assert order_or_error(order_mod_primes, 2, cases[0][1]) == (
            "exponent hint does not annihilate the base"
        )

    def test_only_an_unreduced_part_pays_the_full_power(self, monkeypatch):
        # 4 is a square mod 1009, so its order divides 504 and the first
        # reduction proves that 1008 annihilates it; a primitive root has
        # order 1008, so no reduction succeeds and its part pays pow(g, 1008).
        hint = factorize(1008)
        root = next(g for g in range(2, 1009) if order_brute_force(g, 1009) == 1008)
        expected = {a: order_brute_force(a, 1009) for a in (4, root)}
        exponents = []

        def counted_pow(base, exponent, modulus):
            exponents.append(exponent)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(period_oracle, "pow", counted_pow, raising=False)
        assert order_mod_primes(4, ((1009, hint),)).order == expected[4]
        assert exponents and 1008 not in exponents
        exponents.clear()
        assert order_mod_primes(root, ((1009, hint),)).order == expected[root] == 1008
        assert exponents.count(1008) == 1


# Full parts: a modulus with an exponent that annihilates every unit mod
# it. Square parts: one that annihilates every square unit, (p - 1) / 2 for
# an odd prime p, half of phi(p**e) for an odd prime power, half of the
# universal exponent for 91 = 7 * 13.
FULL_PARTS = (
    (2, factorize(1)), (7, factorize(6)), (1009, factorize(1008)),
    (25, factorize(20)), (7**3, factorize(294)), (91, factorize(12)),
)
SQUARE_PARTS = (
    (2, factorize(1)), (7, factorize(3)), (1009, factorize(504)),
    (25, factorize(10)), (7**3, factorize(147)), (91, factorize(6)),
)


class TestOrderRecordBuild:
    def test_record_is_the_validated_lcm_of_the_orders(self):
        for table, squares in ((FULL_PARTS, False), (SQUARE_PARTS, True)):
            combos = [(part,) for part in table] + [
                (first, second)
                for i, first in enumerate(table)
                for second in table[i + 1 :]
                if math.gcd(first[0], second[0]) == 1
            ]
            for parts in combos:
                span = math.prod(m for m, _ in parts)
                units = [x for x in range(1, min(span, 60)) if math.gcd(x, span) == 1]
                # 1 and span + 1 have order 1 mod every part.
                bases = [x * x if squares else x for x in units] + [span + 1]
                for a in bases:
                    result = order_mod_primes(a, parts)
                    expected = math.lcm(*(order_brute_force(a % m, m) for m, _ in parts))
                    assert type(result) is PeriodRecord
                    assert result.order == result.factors.value == expected, (a, parts)
                    assert result == PeriodRecord(result.order, result.factors)
                assert order_mod_primes(1, parts) == PeriodRecord(1, Factorization(()))


class TestPeriodRecord:
    def test_complete_record_checks_reconstruction(self):
        # Checked where a caller's record enters a strategy, however it was
        # built: directly, by _make or by _replace.
        four = Factorization(((2, 2),))
        record = PeriodRecord(order=4, factors=four)
        for strategy in (all_z, traditional_shor, dong2023):
            assert strategy(15, 2, record).status == "success"
            for bad in (
                PeriodRecord(order=6, factors=four),
                PeriodRecord._make((6, four)),
                record._replace(order=6),
                record._replace(factors=Factorization(((3, 1),))),
            ):
                with pytest.raises(ValueError, match="does not reconstruct"):
                    strategy(15, 2, bad)
            with pytest.raises(ValueError, match="order must be >= 1"):
                strategy(15, 2, record._replace(order=0))
        assert type(PeriodRecord._make((4, four))) is PeriodRecord
        # A named tuple: equal to a plain tuple of its values.
        assert record == (4, four) and record._fields == ("order", "factors")
