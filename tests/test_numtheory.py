"""Unit and property tests for the integer arithmetic primitives."""

import copy
import functools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allz import numtheory
from allz.campaign import _prime_draw_params
from allz.numtheory import (
    Factorization,
    _SMALL_PRIMES,
    _odd_factor_table,
    distinct_primes_bounded,
    factorize,
    is_probable_prime,
    perfect_square_root,
)


def miller_rabin(x, witnesses=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
    """Textbook Miller-Rabin; on the first 12 prime witnesses it is exact
    below 3*10**23."""
    if x < 2:
        return False
    if x in witnesses:
        return True
    if any(x % p == 0 for p in witnesses):
        return False
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in witnesses:
        t = pow(a, d, x)
        if t in (1, x - 1):
            continue
        for _ in range(s - 1):
            t = t * t % x
            if t == x - 1:
                break
        else:
            return False
    return True


def naive_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, limit + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = 0
    return flags


class TestIsProbablePrime:
    def test_examples(self):
        assert is_probable_prime(2)
        assert not is_probable_prime(3622301)
        assert is_probable_prime(9999991)

    def test_9999991_by_trial_division(self):
        n = 9999991
        assert all(n % d for d in range(2, math.isqrt(n) + 1))

    def test_matches_sieve_below_100k(self):
        flags = naive_sieve(100_000)
        for x in range(100_001):
            assert is_probable_prime(x) == bool(flags[x])

    def test_matches_sieve_to_a_million(self):
        # Every x the trial-division sieve or the odd factor table answers,
        # and the first past them, against a sieve of its own.
        flags = numtheory._sieve(10**6)
        answers = list(map(is_probable_prime, range(10**6 + 1)))
        assert answers == [flag == 1 for flag in flags]

    def test_table_edge_matches_miller_rabin(self):
        for x in [999_983, 10**6, 1_000_003, *range(10**6 - 50, 10**6 + 51)]:
            assert is_probable_prime(x) == miller_rabin(x), x
        assert is_probable_prime(999_983) and is_probable_prime(1_000_003)

    def test_known_large_values(self):
        assert is_probable_prime((1 << 61) - 1)
        assert not is_probable_prime((1 << 61) + 1)
        assert not is_probable_prime(3215031751)  # strong pseudoprime to 2,3,5,7
        assert not is_probable_prime(561)  # Carmichael

    # The smallest strong pseudoprime to each smaller deterministic witness
    # set, with the set and the nearest prime above it. Each set is exact
    # below its pseudoprime; the first 12 primes are exact past them all.
    PSEUDOPRIMES = (
        (2_047, (2,), 2_053),
        (1_373_653, (2, 3), 1_373_677),
        (9_080_191, (31, 73), 9_080_213),
        (25_326_001, (2, 3, 5), 25_326_023),
        (3_215_031_751, (2, 3, 5, 7), 3_215_031_767),
        (4_759_123_141, (2, 7, 61), 4_759_123_151),
        (1_122_004_669_633, (2, 13, 23, 1_662_803), 1_122_004_669_637),
        (2_152_302_898_747, (2, 3, 5, 7, 11), 2_152_302_898_771),
        (3_474_749_660_383, (2, 3, 5, 7, 11, 13), 3_474_749_660_401),
        (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17), 341_550_071_728_361),
        (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23), 3_825_123_056_546_413_057),
    )

    @pytest.mark.parametrize("pseudoprime, witnesses, next_prime", PSEUDOPRIMES)
    def test_pseudoprimes_of_smaller_witness_sets(self, pseudoprime, witnesses, next_prime):
        assert miller_rabin(pseudoprime, witnesses)  # the smaller set is fooled
        assert not is_probable_prime(pseudoprime)
        assert is_probable_prime(next_prime)
        assert not any(map(is_probable_prime, range(pseudoprime + 1, next_prime)))

    def test_matches_miller_rabin_on_a_seeded_sample(self):
        # Bit lengths 20 to 64 alike, odd, so that most values get past the
        # trial division and through Miller-Rabin.
        rng = random.Random(26)
        primes = 0
        for _ in range(20_000):
            bits = rng.randint(20, 64)
            x = rng.randrange(max(10**6, 1 << bits - 1), 1 << bits) | 1
            assert is_probable_prime(x) == miller_rabin(x), x
            primes += miller_rabin(x)
        assert 1000 < primes < 19_000  # both answers are well sampled

    def test_rejects_values_beyond_witness_range(self):
        with pytest.raises(ValueError):
            is_probable_prime((1 << 64) + 1)

    def test_table_answers_match_miller_rabin(self):
        for x in list(range(10_000)) + [9999, 10_000, 10_007]:
            assert is_probable_prime(x) == miller_rabin(x), x
        assert not is_probable_prime(9999) and not is_probable_prime(10_000)
        assert is_probable_prime(10_007)


class TestPerfectSquareRoot:
    def test_examples(self):
        assert perfect_square_root(36) == 6
        assert perfect_square_root(48) is None
        assert perfect_square_root(1296) == 36

    @given(st.integers(min_value=0, max_value=10**9))
    def test_square_inputs_round_trip(self, b):
        assert perfect_square_root(b * b) == b


class TestFactorize:
    def test_examples(self):
        assert factorize(108).entries == ((2, 2), (3, 3))
        assert factorize(46).entries == ((2, 1), (23, 1))
        assert factorize(1).entries == ()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_reconstruction_below_100k(self):
        seen_primes = set()
        for x in range(1, 100_000):
            f = factorize(x)
            assert f.value == x
            seen_primes.update(f.distinct_primes)
        assert all(is_probable_prime(p) for p in seen_primes)

    def test_rho_path_on_semiprime_beyond_trial_division(self):
        f = factorize(10007 * 10009)
        assert f.entries == ((10007, 1), (10009, 1))

    def test_rho_path_on_prime_power(self):
        f = factorize(10007**2 * 3)
        assert f.entries == ((3, 1), (10007, 2))

    def test_large_prime(self):
        m61 = (1 << 61) - 1
        assert factorize(m61).entries == ((m61, 1),)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12))
    def test_reconstruction_property(self, x):
        f = factorize(x)
        assert f.value == x
        assert all(is_probable_prime(p) for p in f.distinct_primes)
        assert list(f.distinct_primes) == sorted(f.distinct_primes)

    def test_entries_validation(self):
        with pytest.raises(ValueError):
            Factorization(((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            Factorization(((2, 0),))


class TestFactorization:
    def test_is_immutable(self):
        f = Factorization(((2, 1), (3, 2)))
        for name in ("entries", "value", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, ((5, 1),))
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert f.entries == ((2, 1), (3, 2)) and f.value == 18

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="^factor entries must be strictly ascending primes$"):
            Factorization(((3, 1), (2, 1)))
        with pytest.raises(ValueError, match="^factor entries must be strictly ascending primes$"):
            Factorization(((2, 1), (2, 1)))
        with pytest.raises(ValueError, match="^multiplicities must be positive$"):
            Factorization(((2, 0),))

    def test_iterates_its_entries(self):
        entries = ((2, 3), (5, 1), (10007, 2))
        f = Factorization(entries)
        assert tuple(f) == entries and dict(f) == {2: 3, 5: 1, 10007: 2}
        assert f.distinct_primes == (2, 5, 10007)
        assert tuple(Factorization(())) == () and Factorization(()).distinct_primes == ()

    def test_equality_and_hash_follow_the_entries(self):
        a = Factorization(((2, 2), (3, 1)))
        b = Factorization(tuple([(2, 2), (3, 1)]))
        c = Factorization(((2, 1), (3, 1)))
        assert a == b and hash(a) == hash(b) and not a != b
        assert a != c and len({a, b, c}) == 2
        assert a != ((2, 2), (3, 1)) and a != 12
        assert factorize(12) == a and {factorize(12): 1}[a] == 1

    @pytest.mark.parametrize("x", [1, 2, 12, 9973, 10**4, 2 * 3**5 * 10007, (1 << 61) - 1])
    def test_value_reconstructs_the_integer(self, x):
        f = factorize(x)
        assert f.value == x == math.prod(p**e for p, e in f)
        assert Factorization(f.entries).value == x

    def test_pickles_and_copies(self):
        f = factorize(2**5 * 10007)
        for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert clone == f and clone.value == f.value and type(clone) is Factorization


class TestDistinctPrimesBounded:
    def test_examples(self):
        assert distinct_primes_bounded(108, 1000) == [2, 3]
        assert distinct_primes_bounded(46, 10) == [2]
        assert distinct_primes_bounded(1, 1000) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            distinct_primes_bounded(0, 10)
        with pytest.raises(ValueError):
            distinct_primes_bounded(10, 1)

    def test_never_reports_cofactor_primes(self):
        # 2 * 10007: 10007 is beyond the bound and must not appear
        assert distinct_primes_bounded(2 * 10007, 100) == [2]

    @pytest.mark.parametrize("bound", [2, 10, 100, 1000])
    def test_matches_full_factorization_filter(self, bound):
        for x in range(1, 10_000):
            expected = [p for p in factorize(x).distinct_primes if p <= bound]
            assert distinct_primes_bounded(x, bound) == expected


    @pytest.mark.parametrize(
        "x, bound",
        [
            (1, 2),
            (1, 10**5),
            (2**40, 2),
            (3**25, 10),
            (9973**3, 10_000),
            (10_007**2, 10**5),
            (2 * 3 * 5 * 7 * 9973, 9972),
            (9973, 10_000),
            (9973, 9973),
            (10_007, 100),
            (10_007, 10_006),
            (360, 1000),
            (99_991, 10**5),
            (2 * 99_991, 99_990),
            (10_007 * 10_009, 10**8),
            (10_007 * 10_009, 10_008),
            (10_001**2, 10**6),
            (2 * 1_000_003, 10**6),
            (2 * 1_000_003, 10**9),
            (999_983 * 1_000_003, 10**12),
        ],
    )
    def test_matches_plain_trial_division_edges(self, x, bound):
        assert distinct_primes_bounded(x, bound) == plain_trial_division(x, bound)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=2, max_value=10**9))
    def test_matches_plain_trial_division(self, x, bound):
        assert distinct_primes_bounded(x, bound) == plain_trial_division(x, bound)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=2, max_value=10**12))
    def test_equals_bounded_filter_of_factorization(self, r, bound):
        # all_z reads a bounded walk's divisors off the order's factorization.
        assert [z for z, _ in factorize(r) if z <= bound] == distinct_primes_bounded(r, bound)


@functools.cache
def sieve_to_1m():
    return naive_sieve(10**6)


@functools.cache
def primes_to_1m():
    flags = sieve_to_1m()
    return [i for i in range(10**6 + 1) if flags[i]]


def plain_trial_division(x, bound):
    """Every prime p <= min(bound, x) dividing x.

    Each prime up to 10**6 is tested and the primes found are divided out.
    What is left has no prime factor up to min(bound, 10**6), so it is
    within the bound only as a single prime beyond 10**6. That makes this
    exact whenever x has at most one prime factor beyond 10**6, as every x
    below 10**12 does.
    """
    found = [p for p in primes_to_1m() if p <= min(bound, x) and x % p == 0]
    rest = x
    for p in found:
        while rest % p == 0:
            rest //= p
    if 1 < rest <= bound:
        found.append(rest)
    return found


def test_small_prime_table_is_complete():
    flags = naive_sieve(10_000)
    assert list(_SMALL_PRIMES) == [i for i in range(10_001) if flags[i]]


@pytest.mark.parametrize("digit_count", range(1, 7))
def test_class_sieves_are_exact(digit_count):
    lo, span, _, sieve = _prime_draw_params(digit_count)
    assert sieve == sieve_to_1m()[lo : lo + span]


@pytest.mark.parametrize("hi", [10**5, 10**5 + 1, 10**6 - 1, 10**6], ids=lambda hi: f"hi={hi}")
@pytest.mark.parametrize("lo", [10**4, 10**4 + 1, 98_765], ids=lambda lo: f"lo={lo}")
def test_prime_flags_match_is_probable_prime(lo, hi):
    # Odd and even ends alike; an odd hi is not in the sieve of [lo, hi).
    flags = numtheory._prime_flags(lo, hi)
    assert flags == bytes(map(is_probable_prime, range(lo, hi)))


def trial_division_factors(x):
    """The (prime, multiplicity) pairs of x >= 1, by dividing by every d >= 2."""
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            mult = 0
            while x % d == 0:
                x //= d
                mult += 1
            out.append((d, mult))
        d += 1
    if x > 1:
        out.append((x, 1))
    return tuple(out)


class TestOddFactorTable:
    def test_zero_exactly_at_odd_primes(self):
        table = _odd_factor_table()
        assert len(table) == 500_000
        zero_to_one = bytes([1]) + bytes(255)
        # Entry x >> 1 is odd x; entry 0 (x = 1) is 0 but unused.
        assert table.translate(zero_to_one)[1:] == sieve_to_1m()[3 : 10**6 : 2]

    def test_entry_is_the_least_prime_factor(self):
        table = _odd_factor_table()
        top = max(table)
        assert _SMALL_PRIMES[top] == 997
        for index in range(1, top + 1):
            p = _SMALL_PRIMES[index]
            # Every entry `index` sits on an odd multiple of p from p * p on ...
            assert table.count(index) == table[p * p >> 1 :: p].count(index), p
            # ... and no odd multiple of p past p has a larger least factor.
            assert max(table[3 * p >> 1 :: p]) <= index, p

    @pytest.mark.parametrize(
        "x",
        [9999, 10**4, 10**4 + 1, 2**19, 997**2, 999_983, 999_999, 10**6, 10**6 + 3],
    )
    def test_edges_match_trial_division(self, x):
        entries = trial_division_factors(x)
        assert factorize(x).entries == entries
        assert is_probable_prime(x) == (entries == ((x, 1),))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=2 * 10**6 - 1))
    def test_matches_trial_division(self, x):
        entries = trial_division_factors(x)
        assert factorize(x).entries == entries
        assert is_probable_prime(x) == (entries == ((x, 1),))
