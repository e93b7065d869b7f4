"""Tests for seeded sampling, trial execution, and mergeable statistics."""

import functools
import json
import math
import multiprocessing
import os
import pickle
import re
import signal
from fractions import Fraction

import pytest
from conftest import merged_then_refused, semiprimes_below
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from allz import campaign, cli, fanout, numtheory
from allz.campaign import (
    BOUND_CLASSES,
    GOLDEN,
    MASK64,
    CampaignConfig,
    CampaignStats,
    RandomStream,
    Semiprime,
    TrialCase,
    TrialRecord,
    campaign_blocks,
    case_seed,
    cochran_sample_size,
    compute_metrics,
    failure_reason,
    merge_stats,
    mix64,
    mix64_batch,
    random_prime,
    record_json_line,
    run_campaign,
    run_trial,
    sample_base,
    sample_semiprime,
)
from allz.fanout import record_from_json_line
from allz.numtheory import Factorization, factorize, is_probable_prime, perfect_square_root
from allz.period_oracle import PeriodRecord, carmichael_exponent, order_mod_primes


class TestSeedDerivation:
    def test_mix64_reference_values(self):
        # splitmix64 test vectors: outputs of the stream seeded with 0
        assert mix64((0 + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)) == 0xE220A8397B1DCDAF
        assert mix64((0 + 2 * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)) == 0x6E789E6AA1B965F4

    def test_case_seed_is_stable_and_spread(self):
        seeds = [case_seed(42, cid) for cid in range(1000)]
        assert len(set(seeds)) == 1000
        assert case_seed(42, 0) == seeds[0]
        assert all(0 <= s < (1 << 64) for s in seeds)

    def test_stream_determinism(self):
        s1 = RandomStream(7)
        s2 = RandomStream(7)
        assert [s1.next_raw() for _ in range(10)] == [s2.next_raw() for _ in range(10)]

    def test_below_is_in_range_and_covers(self):
        rng = RandomStream(5)
        draws = [rng.below(10) for _ in range(2000)]
        assert set(draws) == set(range(10))
        with pytest.raises(ValueError):
            rng.below(0)

    def test_randint_inclusive(self):
        rng = RandomStream(9)
        draws = {rng.randint(3, 5) for _ in range(200)}
        assert draws == {3, 4, 5}

    # Seeds at both ends of the state range, and seeds a few GOLDEN steps
    # before the counter wraps to 0 mod 2**64.
    EDGE_SEEDS = (0, 7, MASK64) + tuple(-j * GOLDEN & MASK64 for j in (1, 2, 3, 5))

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_mix64_batch_matches_scalar(self, seed):
        assert mix64_batch(seed) == tuple(mix64(seed + i * GOLDEN) for i in range(1, 33))

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_next_raw_matches_scalar_stream(self, seed):
        # 1000 draws span several refills of the batch.
        rng, ref = RandomStream(seed), ScalarStream(seed)
        assert [rng.next_raw() for _ in range(1000)] == [ref.next_raw() for _ in range(1000)]

    def test_batches_stay_within_one_batch_of_the_draws(self, monkeypatch):
        batches = []
        batch = campaign.mix64_batch

        def spy(state):
            batches.append(batch(state))
            return batches[-1]

        monkeypatch.setattr(campaign, "mix64_batch", spy)
        rng, ref = RandomStream(3), ScalarStream(3)
        for h in range(1, 2001):
            assert rng.next_raw() == ref.next_raw()
            assert 32 * len(batches) <= h + 31, h
        # random_prime and sample_semiprime read the same draws and compute
        # no more than one batch ahead either.
        for _ in range(50):
            assert random_prime(5, rng) == randint_loop_prime(5, ref)
            assert 32 * len(batches) <= ref.drawn + 31
        for digits in (2, 7, 12):
            for _ in range(20):
                sp = sample_semiprime(digits, rng)
                assert (sp.p, sp.q) == reference_semiprime(digits, ref)
                assert 32 * len(batches) <= ref.drawn + 31
        assert {len(draws) for draws in batches} == {32}
        assert same_next_draws(rng, ref, count=1)

    def test_below_rejects_bounds_above_two_to_the_64(self):
        rng, ref = RandomStream(5), ScalarStream(5)
        # A bound of 2**64 accepts every draw as it is.
        assert rng.below(1 << 64) == ref.next_raw()
        # One above it would reject every draw, so it is refused up front.
        with pytest.raises(ValueError, match=r"at most 2\*\*64"):
            rng.below((1 << 64) + 1)
        with pytest.raises(ValueError, match=r"at most 2\*\*64"):
            rng.randint(0, 1 << 64)
        assert same_next_draws(rng, ref)


class TestSamplers:
    def test_single_digit_primes(self):
        rng = RandomStream(11)
        assert {random_prime(1, rng) for _ in range(100)} == {2, 3, 5, 7}

    def test_random_prime_digit_class_and_primality(self):
        rng = RandomStream(12)
        for digits in (2, 3, 4, 6):
            for _ in range(20):
                p = random_prime(digits, rng)
                assert len(str(p)) == digits
                assert is_probable_prime(p)

    def test_random_prime_replays_with_seed(self):
        assert random_prime(4, RandomStream(99)) == random_prime(4, RandomStream(99))

    @pytest.mark.parametrize("digits", range(1, 7))
    def test_random_prime_matches_randint_loop(self, digits):
        for seed in range(40):
            fast, ref = RandomStream(seed), ScalarStream(seed)
            for _ in range(5):
                assert random_prime(digits, fast) == randint_loop_prime(digits, ref)
                assert same_next_draws(fast, ref)

    @pytest.mark.parametrize("digits", [1, 2, 5])
    def test_random_prime_rejects_draws_like_randint(self, digits):
        # Start the stream just before the draw 2**64 - 1, which is above
        # every rejection limit for a span that does not divide 2**64.
        seed = (unmix64(MASK64) - GOLDEN) & MASK64
        fast, ref = RandomStream(seed), ScalarStream(seed)
        assert ScalarStream(seed).next_raw() == MASK64
        assert random_prime(digits, fast) == randint_loop_prime(digits, ref)
        assert same_next_draws(fast, ref)

    def test_random_prime_draw_budget(self, monkeypatch):
        # The first 4-digit candidate of this seed is composite, so a budget
        # of one draw runs out.
        seed = 0
        assert not is_probable_prime(1000 + ScalarStream(seed).next_raw() % 9000)
        monkeypatch.setattr(campaign, "_SAMPLING_CAP", 1)
        with pytest.raises(RuntimeError, match="draw budget"):
            random_prime(4, RandomStream(seed))

    def test_classes_above_six_digits_are_refused(self):
        # The prime tables stop at 10**6, so a longer class has no sieve and
        # is refused before it reads a draw.
        rng, ref = RandomStream(17), ScalarStream(17)
        assert random_prime(6, rng) == randint_loop_prime(6, ref)
        for refused in (
            lambda: random_prime(7, rng),
            lambda: random_prime(19, rng),
            lambda: random_prime(20, rng),
            lambda: sample_semiprime(13, rng),
            lambda: sample_semiprime(40, rng),
        ):
            with pytest.raises(ValueError, match=r"no prime sieve of \[10+, 10+\)"):
                refused()
            assert same_next_draws(rng, ref)

    @pytest.mark.parametrize("digits", range(2, 13))
    def test_sample_semiprime_matches_reference(self, digits):
        # Two more seeds: one just before the draw 2**64 - 1, and one whose
        # first draw lies at or above the prime class's rejection limit with
        # a prime residue, so that only the limit rejects it.
        edge = ((unmix64(MASK64) - GOLDEN) & MASK64, rejected_prime_seed((digits + 1) // 2))
        for seed in (*range(40), *edge):
            fast, ref = RandomStream(seed), ScalarStream(seed)
            for _ in range(3):
                sp = sample_semiprime(digits, fast)
                assert (sp.p, sp.q) == reference_semiprime(digits, ref)
                assert same_next_draws(fast, ref)

    def test_sample_semiprime_pair_budget(self, monkeypatch):
        # With a budget of 3, the first 3 pairs of this seed each find both
        # primes within 3 draws, and each lands outside the 7-digit class.
        seed, cap = 414, 3
        ref = ScalarStream(seed)
        for _ in range(cap):
            p, draws_p = counted_prime(4, ref)
            q, draws_q = counted_prime(4, ref)
            assert max(draws_p, draws_q) <= cap
            assert p == q or not 10**6 <= p * q < 10**7
        monkeypatch.setattr(campaign, "_SAMPLING_CAP", cap)
        with pytest.raises(RuntimeError, match="no 7-digit semiprime found within the draw budget"):
            sample_semiprime(7, RandomStream(seed))

    def test_sample_semiprime_budget_is_per_prime(self, monkeypatch):
        # Each prime has a budget of its own: the case needs more draws in
        # all than its most expensive prime, and that prime's count is
        # exactly the budget that still suffices.
        seed = 0
        ref = ScalarStream(seed)
        expected = reference_semiprime(7, ref)
        counts = []
        replay = ScalarStream(seed)
        while replay.drawn < ref.drawn:
            counts.append(counted_prime(4, replay)[1])
        most = max(counts)
        assert sum(counts) > most and len(counts) // 2 <= most
        monkeypatch.setattr(campaign, "_SAMPLING_CAP", most)
        sp = sample_semiprime(7, RandomStream(seed))
        assert (sp.p, sp.q) == expected
        monkeypatch.setattr(campaign, "_SAMPLING_CAP", most - 1)
        with pytest.raises(RuntimeError, match="no 4-digit prime found within the draw budget"):
            sample_semiprime(7, RandomStream(seed))

    def test_semiprime_classes(self):
        rng = RandomStream(13)
        for digits in (2, 3, 5, 7, 8):
            for _ in range(10):
                sp = sample_semiprime(digits, rng)
                assert len(str(sp.n)) == digits
                assert sp.p != sp.q
                assert is_probable_prime(sp.p) and is_probable_prime(sp.q)
                # both primes carry ceil(digits / 2) digits
                assert len(str(sp.p)) == len(str(sp.q)) == (digits + 1) // 2

    def test_semiprime_invariant(self):
        # Checked where a caller's case enters, run_trial, however the
        # semiprime was built: directly, by _make or by _replace. Every base
        # poisons the record, the gcd-shortcut ones included.
        for sp in (
            Semiprime(n=35, p=5, q=5),
            Semiprime(n=25, p=5, q=5),
            Semiprime(n=36, p=5, q=7),
            Semiprime._make((36, 5, 7)),
            Semiprime(15, 3, 5)._replace(q=7),
            Semiprime(15, 3, 5)._replace(p=5),
        ):
            for a in (2, 3, 5, 6, 7, 22):
                for strategy in campaign.STRATEGIES:
                    record = run_trial(TrialCase(0, sp, a, "random", 9), strategy)
                    assert record.error == "n must be the product of two distinct primes"
                    assert (record.status, record.r, record.gcd_count) == ("failure", 0, 0)
                    assert failure_reason(record) == "precondition_error"
        sp = Semiprime._make((15, 3, 5))
        assert type(sp) is Semiprime and sp._replace(n=21, q=7) == Semiprime(21, 3, 7)
        # A named tuple: equal to a plain tuple of its values.
        assert sp == (15, 3, 5) and sp._asdict() == {"n": 15, "p": 3, "q": 5}
        assert TrialCase(0, sp, 2, "random", 9) == (0, (15, 3, 5), 2, "random", 9)

    def test_sample_base_random(self):
        rng = RandomStream(14)
        for _ in range(200):
            a = sample_base(3622301, "random", rng)
            assert 2 <= a < 3622301
            assert math.gcd(a, 3622301) == 1

    def test_sample_base_perfect_square(self):
        rng = RandomStream(15)
        for _ in range(200):
            a = sample_base(1406371, "perfect_square", rng)
            assert a >= 4
            assert perfect_square_root(a) is not None
            assert math.gcd(a, 1406371) == 1

    def test_sample_base_rejects_tiny_or_unknown(self):
        rng = RandomStream(16)
        with pytest.raises(ValueError):
            sample_base(4, "random", rng)
        with pytest.raises(ValueError):
            sample_base(21, "bogus", rng)


class ScalarStream:
    """The reference draw sequence: draw k is one mix64(seed + k * GOLDEN) call."""

    def __init__(self, seed):
        self.state = seed & MASK64
        self.drawn = 0

    def next_raw(self):
        self.state = (self.state + GOLDEN) & MASK64
        self.drawn += 1
        return mix64(self.state)

    def randint(self, lo, hi):
        span = hi - lo + 1
        limit = (1 << 64) - (1 << 64) % span
        while True:
            x = self.next_raw()
            if x < limit:
                return lo + x % span


def same_next_draws(rng, ref, count=300):
    """Whether both streams stand at the same position: their next draws agree."""
    return [rng.next_raw() for _ in range(count)] == [ref.next_raw() for _ in range(count)]


def randint_loop_prime(digit_count, rng):
    """random_prime's reference: one rng.randint draw per candidate."""
    lo, hi = 10 ** (digit_count - 1), 10**digit_count - 1
    while True:
        v = rng.randint(lo, hi)
        if is_probable_prime(v):
            return v


def counted_prime(digit_count, rng):
    """randint_loop_prime's prime and the number of draws it read."""
    start = rng.drawn
    return randint_loop_prime(digit_count, rng), rng.drawn - start


def reference_semiprime(digits, rng):
    """sample_semiprime's reference: (p, q) pairs of randint_loop_prime
    primes until p != q and p * q has `digits` digits."""
    prime_digits = (digits + 1) // 2
    while True:
        p = randint_loop_prime(prime_digits, rng)
        q = randint_loop_prime(prime_digits, rng)
        if p != q and 10 ** (digits - 1) <= p * q < 10**digits:
            return p, q


def rejected_prime_seed(digit_count):
    """A seed whose first draw is the smallest one at or above the class's
    rejection limit whose residue is a prime of the class."""
    lo, span = 10 ** (digit_count - 1), 9 * 10 ** (digit_count - 1)
    limit = (1 << 64) - (1 << 64) % span
    x = next(x for x in range(limit, 1 << 64) if is_probable_prime(lo + x % span))
    return (unmix64(x) - GOLDEN) & MASK64


def unmix64(y):
    """Inverse of mix64: undo each xor-shift and multiply in reverse order."""
    y ^= y >> 31 ^ y >> 62
    y = y * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    y ^= y >> 27 ^ y >> 54
    y = y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    y ^= y >> 30 ^ y >> 60
    return y


def test_unmix64_inverts_mix64():
    for y in (0, 1, 12345, GOLDEN, MASK64):
        assert mix64(unmix64(y)) == y


def make_case(n, p, q, a, case_id=0, mode="random", seed=1234):
    return TrialCase(
        case_id=case_id, semiprime=Semiprime(n=n, p=p, q=q), a=a, base_mode=mode, seed=seed
    )


class TestRunTrial:
    def test_reference_failure_row(self):
        record = run_trial(make_case(2540107, 1567, 1621, 1316667), "allz")
        assert record.status == "failure"
        assert record.r == 27
        assert record.failed_z == (3,)
        assert not record.fallback_tried
        assert record.half_power_is_minus_one is None  # r odd
        assert failure_reason(record) == "all_divisors_trivial"

    def test_square_fallback_row(self):
        record = run_trial(make_case(1406371, 1171, 1201, 46656, mode="perfect_square"), "allz")
        assert record.status == "failure"
        assert record.r == 5
        assert record.failed_z == (5,)
        assert record.fallback_tried and not record.fallback_succeeded
        assert failure_reason(record) == "fallback_trivial"

    def test_success_record(self):
        record = run_trial(make_case(21, 3, 7, 2), "allz")
        assert record.status == "success"
        assert record.r == 6
        assert record.succeeded_z == 2
        assert record.factor == 7
        assert record.resolved and record.attempts_used == 1

    def test_shortcut_record_has_no_order(self):
        record = run_trial(make_case(15, 3, 5, 5), "allz")
        assert record.status == "success"
        assert record.succeeded_z == "shortcut"
        assert record.r == 0 and record.r_digits == 0

    def test_traditional_failure_reasons(self):
        odd = run_trial(make_case(2540107, 1567, 1621, 1316667), "traditional")
        assert failure_reason(odd) == "odd_period_unusable"
        half = run_trial(make_case(21, 3, 7, 5), "traditional")
        assert half.r_even and half.half_power_is_minus_one
        assert failure_reason(half) == "half_power_minus_one"

    def test_poisoned_record_on_bad_case(self):
        record = run_trial(make_case(21, 3, 7, 22), "allz")
        assert record.error is not None
        assert record.status == "failure"
        assert failure_reason(record) == "precondition_error"

    def test_bad_period_from_the_order_function_poisons_the_record(self):
        # A caller's order function hands each strategy its record, which the
        # strategy checks where it enters.
        case = make_case(21, 3, 7, 2)
        assert run_trial(case, "allz").r == 6
        bad = [
            (PeriodRecord(0, Factorization(())), "order must be >= 1"),
            (PeriodRecord(12, factorize(6)), "factorization does not reconstruct the order"),
        ]
        for period, message in bad:
            for strategy in campaign.STRATEGIES:
                record = run_trial(case, strategy, order=lambda _: period)
                assert (record.status, record.r, record.gcd_count) == ("failure", 0, 0)
                assert record.error == message

    def test_composite_prime_poisons_the_record(self):
        # run_trial merges orders mod p and mod q. Modulo p = 3 * 120000007
        # and q = 3 the base a = p + 1 is 1, so the lcm would claim r = 1;
        # the true order of a mod n = 9 * 120000007 is 3. The prime check
        # stops it.
        p, q = 3 * 120_000_007, 3
        record = run_trial(make_case(p * q, p, q, p + 1), "allz")
        assert record.error == f"{p} is not prime"
        assert record.r == 0
        assert failure_reason(record) == "precondition_error"

    @pytest.mark.parametrize("strategy", ["allz", "traditional", "dong2023"])
    def test_base_beyond_n_poisons_alike_on_both_order_paths(self, strategy):
        # Neither a 7-digit nor a 12-digit modulus finds an order for the
        # base n + 2, though it is a unit mod p and mod q.
        small, large = 1009 * 1013, 999_983 * 1_000_003
        for n, p, q in [(small, 1009, 1013), (large, 999_983, 1_000_003)]:
            record = run_trial(make_case(n, p, q, n + 2), strategy)
            assert (record.status, record.r, record.attempts_used) == ("failure", 0, 1)
            assert record.error == f"base must satisfy 2 <= a < n, got a={n + 2}, n={n}"

    def test_bounded_run_still_reports_full_r_structure(self):
        record = run_trial(make_case(2540107, 1567, 1621, 1316667), "allz", bound=2)
        assert record.failed_z == ()  # 3 is beyond the bound
        assert record.r_distinct_primes == 1  # from the complete factorization of 27
        assert record.status == "failure"
        # no divisor tried and no fallback: only the allz branch names the reason
        assert failure_reason(record) == "all_divisors_trivial"


def _is_square_mod(a, p):
    return any(b * b % p == a % p for b in range(1, p))


class TestOrderByPrimes:
    """The campaign's order, found mod p and mod q, equals the direct one."""

    @pytest.mark.parametrize("digits", range(2, 13))
    @pytest.mark.parametrize("base_mode", ["random", "perfect_square"])
    def test_sampled_large_cases(self, digits, base_mode):
        config = CampaignConfig(digits=digits, trials=50, base_mode=base_mode, master_seed=digits)
        even = twos = 0
        for case_id in range(config.trials):
            case = campaign._build_case(config, case_id)
            sp, a = case.semiprime, case.a
            direct = order_mod_primes(a, ((sp.n, factorize(carmichael_exponent(sp.p, sp.q))),))
            parts = ((sp.p, factorize(sp.p - 1)), (sp.q, factorize(sp.q - 1)))
            r = math.lcm(*(order_mod_primes(a, (part,)).order for part in parts))
            assert PeriodRecord(r, factorize(r)) == direct
            assert order_mod_primes(a, parts) == direct
            record = run_trial(case, "allz")
            assert (record.r, record.r_distinct_primes) == (direct.order, len(direct.factors.entries))
            # The order reduced mod n gives the same record, half-power field included.
            assert run_trial(case, "allz", order=lambda _: direct) == record
            # The campaign's own order function, square parts for square bases.
            squares = base_mode == "perfect_square"
            assert campaign.order_function(sp, squares=squares)(a) == direct
            h = record.r // 2
            assert record.half_power_is_minus_one == (
                pow(a, h, sp.n) == sp.n - 1 if record.r_even else None
            )
            even += record.r_even
            twos += 2 in (sp.p, sp.q)
        assert even >= 10  # and the half-power field was set
        assert twos or digits > 2  # p = 2 is reduced mod 2 from the empty factorization of 1

    def test_half_power_read_off_the_outcome_matches_mod_n_on_every_small_unit(self):
        # Every unit of every semiprime below 2000, p = 2 included, for each
        # even order r and each strategy: the record's flag, read off the
        # outcome with no power, is whether a**(r/2) == -1 mod n. On some
        # units a**(r/2) is -1 mod only one of p and q.
        strategies = [("allz", bound) for bound in (None, 2, 3, 9)]
        strategies += [("traditional", None), ("dong2023", None)]
        orders_mod = {}
        periods = {}
        one_side = 0
        for n, p, q in semiprimes_below(2000):
            for prime in (p, q):
                if prime not in orders_mod:
                    hint = factorize(prime - 1)
                    orders_mod[prime] = [None] + [
                        order_mod_primes(y, ((prime, hint),)).order for y in range(1, prime)
                    ]
            by_p, by_q = orders_mod[p], orders_mod[q]
            for a in range(2, n):
                if a % p and a % q:
                    r = math.lcm(by_p[a % p], by_q[a % q])
                    if r % 2 == 0:
                        if r not in periods:
                            periods[r] = PeriodRecord(r, factorize(r))
                        period = periods[r]
                        h = r // 2
                        want = pow(a, h, n) == n - 1
                        case = make_case(n, p, q, a)
                        for strategy, bound in strategies:
                            record = run_trial(case, strategy, bound, lambda _: period)
                            assert record.half_power_is_minus_one == want, (a, n, strategy, bound)
                        one_side += not want and (pow(a, h, p) == p - 1 or pow(a, h, q) == q - 1)
        assert one_side > 1000

    def test_every_order_is_reduced_mod_p_and_q(self, monkeypatch):
        moduli = []
        direct_order = campaign.multiplicative_order
        order_by_primes = campaign.order_mod_primes

        def direct_spy(a, n):
            moduli.append(n)
            return direct_order(a, n)

        def by_primes_spy(a, parts):
            moduli.extend(prime for prime, _ in parts)
            return order_by_primes(a, parts)

        small = make_case(1567 * 1621, 1567, 1621, 1316667)
        large = make_case(999_983 * 1_000_003, 999_983, 1_000_003, 2)
        # Made before the spies go in: the order function looks the oracle
        # up when it is called, as the benchmark's tracer needs.
        large_order = campaign.order_function(large.semiprime)
        monkeypatch.setattr(campaign, "multiplicative_order", direct_spy)
        monkeypatch.setattr(campaign, "order_mod_primes", by_primes_spy)
        for case, order in [(small, None), (large, large_order)]:
            sp = case.semiprime
            moduli.clear()
            record = run_trial(case, "allz", order=order)
            assert moduli == [sp.p, sp.q]
            hint = factorize(carmichael_exponent(sp.p, sp.q))
            assert record == run_trial(
                case, "allz", order=lambda a: order_by_primes(a, ((sp.n, hint),))
            )
            assert record == run_trial(case, "allz")
        assert run_trial(small, "allz").r == 27

    def test_prime_parts_are_kept_below_ten_thousand(self, monkeypatch):
        monkeypatch.setattr(campaign, "_PRIME_PARTS", {})
        primes = [p for p in campaign._SMALL_PRIMES if p < 10**4]
        assert len(primes) == 1229
        for p in primes:
            assert campaign._prime_part(p) == (p, factorize(p - 1))
        assert list(campaign._PRIME_PARTS) == [(p, False) for p in primes]
        assert all(campaign._prime_part(p) is campaign._PRIME_PARTS[p, False] for p in primes)

    def test_square_and_full_parts_are_kept_apart(self, monkeypatch):
        monkeypatch.setattr(campaign, "_PRIME_PARTS", {})
        primes = [p for p in campaign._SMALL_PRIMES if p < 10**4]
        for p in primes:
            full = campaign._prime_part(p)
            square = campaign._prime_part(p, squares=True)
            # p = 2 keeps its p - 1 = 1: (p - 1) // 2 = 0 has no factorization.
            assert square == (p, factorize((p - 1) // 2 if p > 2 else 1))
            assert campaign._PRIME_PARTS[p, False] is full
            assert campaign._PRIME_PARTS[p, True] is square
            assert campaign._prime_part(p) is full
            assert campaign._prime_part(p, squares=True) is square
        assert len(campaign._PRIME_PARTS) == 2 * 1229
        # Past the memo limit neither kind is kept.
        assert campaign._prime_part(10007, squares=True) == (10007, factorize(5003))
        assert campaign._prime_part(10007) == (10007, factorize(10006))
        assert len(campaign._PRIME_PARTS) == 2 * 1229

    def test_square_parts_give_every_unit_square_its_order(self):
        # Every unit square mod every semiprime below 2000, p = 2 included.
        checked = 0
        for n, p, q in semiprimes_below(2000):
            sp = Semiprime(n, p, q)
            full, square = campaign.order_function(sp), campaign.order_function(sp, squares=True)
            for a in {b * b % n for b in range(1, n) if math.gcd(b, n) == 1}:
                assert square(a) == full(a), (a, n)
                checked += 1
        assert checked > 100_000

    def test_square_parts_refuse_every_quadratic_non_residue(self):
        for p in campaign._SMALL_PRIMES[1:]:
            if p > 2000:
                break
            part = campaign._prime_part(p, squares=True)
            residues = {b * b % p for b in range(1, p)}
            for a in range(1, p):
                if a not in residues:
                    with pytest.raises(ValueError, match="does not annihilate"):
                        order_mod_primes(a, (part,))
        # A unit of a semiprime that is no square mod p or no square mod q.
        for n, p, q in semiprimes_below(300):
            square = campaign.order_function(Semiprime(n, p, q), squares=True)
            for a in range(1, n):
                if math.gcd(a, n) == 1 and not (_is_square_mod(a, p) and _is_square_mod(a, q)):
                    with pytest.raises(ValueError, match="does not annihilate"):
                        square(a)

    def test_prime_part_errors_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(campaign, "_PRIME_PARTS", {})
        # Each pair raises what the prime check of carmichael_exponent
        # raises, checked in the same order: distinct first, then p, then q.
        pairs = [(7, 7), (9, 9), (9, 7), (7, 9), (15, 21), (3 * 120_000_007, 3)]
        for p, q in pairs:
            with pytest.raises(ValueError) as expected:
                carmichael_exponent(p, q)
            sp = Semiprime(p * q, p, q)
            for squares in (False, True, False, True):
                with pytest.raises(ValueError) as raised:
                    campaign.order_function(sp, squares=squares)
                assert str(raised.value) == str(expected.value)
        assert list(campaign._PRIME_PARTS) == [(7, False), (7, True)]

    def test_campaign_keeps_no_prime_part_above_ten_thousand(self, monkeypatch):
        monkeypatch.setattr(campaign, "_PRIME_PARTS", {})
        run_campaign(CampaignConfig(digits=12, trials=50, retry_limit=2))
        run_campaign(CampaignConfig(digits=12, trials=50, base_mode="perfect_square", retry_limit=2))
        assert campaign._PRIME_PARTS == {}
        run_campaign(CampaignConfig(digits=8, trials=50))
        run_campaign(CampaignConfig(digits=8, trials=50, base_mode="perfect_square"))
        assert {squares for _, squares in campaign._PRIME_PARTS} == {False, True}
        assert max(p for p, _ in campaign._PRIME_PARTS) < 10**4


class TestCampaign:
    def test_empty_campaign(self):
        result = run_campaign(CampaignConfig(digits=4, trials=0))
        assert result.records == []
        assert result.stats == CampaignStats()

    def test_records_are_ordered_and_deterministic(self):
        config = CampaignConfig(digits=4, trials=40, master_seed=7)
        first = run_campaign(config)
        second = run_campaign(config)
        assert [r.case_id for r in first.records] == list(range(40))
        assert first.records == second.records
        assert first.stats == second.stats

    def test_worker_count_does_not_change_results(self):
        base = CampaignConfig(digits=4, trials=300, master_seed=11)
        lone = run_campaign(base)
        pooled = run_campaign(base._replace(workers=4))
        assert lone.records == pooled.records
        assert lone.stats == pooled.stats

    def test_pooled_workers_build_their_own_tables(self, monkeypatch):
        # 10 digits draw 5-digit primes, whose class sieve is cut from the
        # odd factor table. With both caches cleared here, this process and
        # its forked helper each build their own table and sieve.
        monkeypatch.setattr(campaign, "_usable_cpus", lambda: 2)
        config = CampaignConfig(
            digits=10,
            trials=600,
            master_seed=23,
            base_mode="perfect_square",
            strategy="dong2023",
            retry_limit=2,
        )
        numtheory._odd_factor_table.cache_clear()
        campaign._prime_draw_params.cache_clear()
        pooled = run_campaign(config._replace(workers=2))
        lone = run_campaign(config)
        assert lone.records == pooled.records
        assert lone.stats == pooled.stats

    def test_streamed_stats_match_recomputation(self):
        result = run_campaign(CampaignConfig(digits=5, trials=200, master_seed=3))
        assert compute_metrics(result.records) == result.stats

    def test_success_factors_are_ground_truth(self):
        result = run_campaign(CampaignConfig(digits=5, trials=300, master_seed=4))
        for record in result.records:
            if record.status == "success":
                assert record.factor in (record.p, record.q)
                assert record.factor * (record.n // record.factor) == record.n

    def test_invalid_configs_rejected(self):
        for bad in (
            CampaignConfig(digits=1, trials=1),
            CampaignConfig(digits=13, trials=1),
            CampaignConfig(digits=4, trials=-1),
            CampaignConfig(digits=4, trials=1, base_mode="bogus"),
            CampaignConfig(digits=4, trials=1, strategy="bogus"),
            CampaignConfig(digits=4, trials=1, bound=1),
            CampaignConfig(digits=4, trials=1, workers=0),
            CampaignConfig(digits=4, trials=1, retry_limit=-1),
            # A JSON true is no integer.
            CampaignConfig(digits=4, trials=True, workers=True),
            CampaignConfig(digits=4, trials=1, master_seed=True),
            CampaignConfig(digits=4, trials=1, retry_limit=True),
            CampaignConfig(digits=4, trials=1, bound=True),
        ):
            with pytest.raises(ValueError):
                run_campaign(bad)

    def test_fan_out_has_no_more_processes_than_blocks(self, monkeypatch):
        started = []

        class CountedProcess(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        def processes(config):
            """The records of a run, and how many processes computed them."""
            before = len(started)
            records = run_campaign(config).records
            return records, 1 + len(started) - before  # this one, and its helpers

        # campaign_blocks imports multiprocessing only where it starts helpers.
        monkeypatch.setattr(multiprocessing, "Process", CountedProcess)
        monkeypatch.setattr(campaign, "_usable_cpus", lambda: 64)
        config = CampaignConfig(digits=4, trials=600, master_seed=6, workers=64)
        fanned, used = processes(config)
        assert used == 3  # 600 trials are 3 blocks of at most 256
        assert fanned == run_campaign(config._replace(workers=1)).records
        # No more processes than CPUs this process may use, either.
        monkeypatch.setattr(campaign, "_usable_cpus", lambda: 2)
        assert processes(config) == (fanned, 2)
        # One usable CPU runs the blocks here, without a helper.
        monkeypatch.setattr(campaign, "_usable_cpus", lambda: 1)
        assert processes(config) == (fanned, 1)
        assert multiprocessing.active_children() == []

    def test_early_close_stops_every_helper(self, monkeypatch, capfd):
        monkeypatch.setattr(campaign, "_usable_cpus", lambda: 3)
        blocks = campaign_blocks(CampaignConfig(digits=7, trials=10**5, workers=3))
        next(blocks)
        blocks.close()
        assert multiprocessing.active_children() == []
        assert capfd.readouterr() == ("", "")  # helpers print no traceback

    def test_helper_that_dies_after_its_last_block_raises_oserror(self, monkeypatch, capfd):
        # Three blocks on two processes: the helper's turn comes once more,
        # for the end it never sends.
        def dying(reader, writer, produce, *args):
            reader.close()
            for item in produce(*args):
                writer.send(item)
            os._exit(5)

        monkeypatch.setattr(fanout, "_helper", dying)
        monkeypatch.setattr(campaign, "_usable_cpus", lambda: 2)
        blocks = campaign_blocks(CampaignConfig(digits=4, trials=600, workers=2))
        assert len([next(blocks) for _ in range(3)]) == 3
        with pytest.raises(OSError) as info:
            next(blocks)
        assert str(info.value) == "helper process exited with code 5 before sending its end"
        assert multiprocessing.active_children() == []
        assert capfd.readouterr() == ("", "")

    def test_helper_stops_quietly_once_its_reader_is_gone(self):
        # The helper closes the reading end it is handed, here the only one,
        # so its first send past the pipe's buffer fails and it stops.
        reader, writer = multiprocessing.Pipe(duplex=False)
        signals = (signal.SIGINT, signal.SIGHUP, signal.SIGTERM)
        handlers = [signal.getsignal(signum) for signum in signals]
        try:
            config = CampaignConfig(digits=4, trials=300)
            fanout._helper(reader, writer, campaign_blocks, config)
        finally:
            # _helper sets these from here on.
            for signum, handler in zip(signals, handlers):
                signal.signal(signum, handler)
        assert reader.closed

    def test_helper_sends_on_through_ctrl_c(self):
        # Ctrl-C reaches every process of the group: a helper ignores it and
        # leaves the main process to stop the campaign. A block is larger
        # than the pipe holds, so the helper is still running when signalled.
        config = CampaignConfig(digits=7, trials=6 * campaign._BLOCK_SIZE)
        reader, writer = multiprocessing.Pipe(duplex=False)
        blocks = (map, functools.partial(campaign._run_block, config), range(256, 1536, 512))
        helper = multiprocessing.Process(target=fanout._helper, args=(reader, writer, *blocks))
        helper.start()
        writer.close()
        try:
            chunks = [reader.recv()[0]]
            os.kill(helper.pid, signal.SIGINT)
            chunks += [reader.recv()[0] for _ in range(2)]
            helper.join(timeout=60)
        finally:
            helper.terminate()
            helper.join()
            reader.close()
        assert helper.exitcode == 0
        assert chunks == [campaign._run_block(config, lo)[0] for lo in (256, 768, 1280)]

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(campaign.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: None)
        assert campaign._usable_cpus() == 1
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: 5)
        assert campaign._usable_cpus() == 5

    def test_first_block_streams_alone(self, monkeypatch):
        cases = []
        execute = campaign._execute_case

        def counted(config, case_id):
            cases.append(case_id)
            return execute(config, case_id)

        monkeypatch.setattr(campaign, "_execute_case", counted)
        chunk, stats = next(campaign_blocks(CampaignConfig(digits=7, trials=10**6)))
        assert cases == list(range(campaign._BLOCK_SIZE))
        monkeypatch.setattr(campaign, "_execute_case", execute)
        whole = run_campaign(CampaignConfig(digits=7, trials=256))
        assert chunk == "".join(record_json_line(r) + "\n" for r in whole.records).encode()
        assert stats == whole.stats

    def test_merged_block_stats_match_decoded_records(self):
        config = CampaignConfig(
            digits=5, trials=600, master_seed=8, strategy="traditional", retry_limit=2
        )
        merged, records = CampaignStats(), []
        for chunk, stats in campaign_blocks(config):
            records += map(record_from_json_line, chunk.splitlines())
            merged = merge_stats(merged, stats)
        assert [r.case_id for r in records] == list(range(600))
        assert merged == compute_metrics(records)
        assert merged.attempts_per_success_histogram.keys() > {1}  # retries ran

    def test_each_case_opens_with_its_sampling_and_runs_one_trial_per_attempt(self, monkeypatch):
        # The benchmark's tracer counts calls from outside: a case opens with
        # its one sample_semiprime call and the run_trial calls after it
        # belong to it, one per attempt, retries included.
        events = []
        sample, trial = campaign.sample_semiprime, campaign.run_trial

        def counted_sample(*args):
            events.append(None)
            return sample(*args)

        def counted_trial(case, *args):
            events.append(case.case_id)
            return trial(case, *args)

        monkeypatch.setattr(campaign, "sample_semiprime", counted_sample)
        monkeypatch.setattr(campaign, "run_trial", counted_trial)
        config = CampaignConfig(
            digits=10, trials=60, base_mode="perfect_square", strategy="traditional",
            master_seed=2, retry_limit=3,
        )
        records = run_campaign(config).records
        assert events.count(None) == config.trials
        cases = []
        for event in events:
            if event is None:
                cases.append([])
            else:
                cases[-1].append(event)
        for record, trials in zip(records, cases):
            assert trials == [record.case_id] * record.attempts_used
        assert max(r.attempts_used for r in records) > 1  # retries ran

    def test_retry_heavy_campaign_equals_its_reference(self):
        # 12 digits, square bases, traditional and 3 retries: every attempt
        # count from 1 to 4 occurs, and a fourth attempt both resolves a
        # case and leaves one unresolved. The reference rebuilds each case
        # from the public samplers, run_trial and _replace.
        config = CampaignConfig(
            digits=12, trials=150, base_mode="perfect_square", strategy="traditional",
            retry_limit=3,
        )
        expected = []
        for case_id in range(config.trials):
            seed = case_seed(config.master_seed, case_id)
            rng = RandomStream(seed)
            sp = sample_semiprime(config.digits, rng)
            case = make_case(*sp, sample_base(sp.n, "perfect_square", rng), case_id,
                             "perfect_square", seed)
            first = run_trial(case, "traditional")
            attempts, resolved = 1, first.status == "success"
            retry_rng = RandomStream(mix64(seed ^ campaign._RETRY_SALT))
            tried = {case.a}
            while not resolved and attempts <= config.retry_limit:
                fresh = (sample_base(sp.n, "perfect_square", retry_rng) for _ in range(64))
                a = next(a for a in fresh if a not in tried)
                tried.add(a)
                attempts += 1
                resolved = run_trial(case._replace(a=a), "traditional").status == "success"
            expected.append(first._replace(attempts_used=attempts, resolved=resolved))
        records = run_campaign(config).records
        assert records == expected
        outcomes = {(r.attempts_used, r.resolved) for r in records}
        assert {attempts for attempts, _ in outcomes} == {1, 2, 3, 4}
        assert {(4, True), (4, False)} <= outcomes

    def test_retries_only_annotate_not_rewrite(self):
        base = CampaignConfig(digits=4, trials=150, master_seed=21, strategy="traditional")
        plain = run_campaign(base)
        retried = run_campaign(base._replace(retry_limit=3))
        for a, b in zip(plain.records, retried.records):
            assert a._replace(attempts_used=b.attempts_used, resolved=b.resolved) == b
        assert plain.stats.successes == retried.stats.successes
        resolved_extra = sum(
            1 for r in retried.records if r.resolved and r.status == "failure"
        )
        assert resolved_extra > 0  # traditional at 4 digits fails often; retries rescue some
        hist = retried.stats.attempts_per_success_histogram
        assert sum(hist.values()) == sum(1 for r in retried.records if r.resolved)
        assert set(hist) <= {1, 2, 3, 4}

    def test_cumulative_bound_curve_is_monotone(self):
        result = run_campaign(CampaignConfig(digits=6, trials=400, master_seed=5))
        curve = result.stats.cumulative_success_by_bound
        values = [curve.get(c, 0) for c in BOUND_CLASSES]
        assert values == sorted(values)
        assert values[-1] == result.stats.successes

    def test_bound_class_crediting(self):
        base = run_trial(make_case(21, 3, 7, 2), "allz")  # succeeds via z=2
        one_digit = compute_metrics([base]).cumulative_success_by_bound
        assert one_digit == {c: 1 for c in BOUND_CLASSES}
        two_digit = compute_metrics([base._replace(succeeded_z=23)])
        assert two_digit.cumulative_success_by_bound == {
            "2": 1, "3": 1, "4": 1, "inf": 1
        }
        five_digit = compute_metrics([base._replace(succeeded_z=10007)])
        assert five_digit.cumulative_success_by_bound == {"inf": 1}
        marker = compute_metrics([base._replace(succeeded_z="fallback")])
        assert marker.cumulative_success_by_bound == {c: 1 for c in BOUND_CLASSES}

    def test_retries_resolve_losses_at_desk_scale(self):
        # soft reliability claim: with two retries at small digit classes,
        # effectively every modulus ends up factored
        for digits in (4, 5, 6):
            result = run_campaign(
                CampaignConfig(digits=digits, trials=1000, master_seed=6, retry_limit=2)
            )
            resolved = sum(1 for r in result.records if r.resolved)
            assert resolved >= 998, digits


def varied_records():
    """Each strategy, both base modes, retries, a gcd shortcut and a poisoned
    record, as `run_trial` and the retries build them."""
    records = [
        campaign._execute_case(
            CampaignConfig(
                digits=5, trials=12, strategy=strategy, base_mode=base_mode, retry_limit=2
            ),
            case_id,
        )
        for strategy in campaign.STRATEGIES
        for base_mode in campaign.BASE_MODES
        for case_id in range(12)
    ]
    records.append(run_trial(make_case(15, 3, 5, 5), "allz"))
    records.append(run_trial(make_case(21, 3, 7, 22), "allz"))
    assert records[-2].succeeded_z == "shortcut" and records[-1].error is not None
    assert any(r.attempts_used > 1 for r in records)
    assert {(r.strategy, r.base_mode) for r in records} == {
        (s, m) for s in campaign.STRATEGIES for m in campaign.BASE_MODES
    }
    return records


def absorbed_one_by_one(records):
    stats = CampaignStats()
    for record in records:
        stats.absorb(record)
    return stats


class TestStatsAlgebra:
    @staticmethod
    def stats_strategy():
        counts = st.dictionaries(st.integers(1, 8), st.integers(1, 50), max_size=4)
        reasons = st.dictionaries(
            st.sampled_from(["odd_period_unusable", "all_divisors_trivial", "fallback_trivial"]),
            st.integers(1, 50),
            max_size=3,
        )
        curve = st.dictionaries(st.sampled_from(BOUND_CLASSES), st.integers(1, 50), max_size=5)
        return st.builds(
            CampaignStats,
            trials=st.integers(0, 1000),
            successes=st.integers(0, 500),
            failures=st.integers(0, 500),
            failures_by_reason=reasons,
            gcd_count_histogram=counts,
            attempts_per_success_histogram=counts,
            r_count=st.integers(0, 1000),
            r_digits_sum=st.integers(0, 10_000),
            r_distinct_primes_sum=st.integers(0, 10_000),
            even_r_count=st.integers(0, 1000),
            half_power_minus_one_count=st.integers(0, 1000),
            cumulative_success_by_bound=curve,
            fallback_success_count=st.integers(0, 100),
            outcomes_by_digits_strategy=st.dictionaries(
                st.tuples(
                    st.integers(2, 12),
                    st.sampled_from(campaign.STRATEGIES),
                    st.sampled_from(["success", "failure"]),
                ),
                st.integers(1, 50),
                max_size=4,
            ),
        )

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_merge_associative_commutative_identity(self, data):
        s1 = data.draw(self.stats_strategy())
        s2 = data.draw(self.stats_strategy())
        s3 = data.draw(self.stats_strategy())
        assert merge_stats(s1, s2) == merge_stats(s2, s1)
        assert merge_stats(merge_stats(s1, s2), s3) == merge_stats(s1, merge_stats(s2, s3))
        assert merge_stats(CampaignStats(), s1) == s1
        assert merge_stats(s1, CampaignStats()) == s1

    def test_merge_example(self):
        a = CampaignStats(trials=4, successes=3, failures=1)
        b = CampaignStats(trials=2, successes=2, failures=0)
        merged = merge_stats(a, b)
        assert merged.trials == 6
        assert merged.successes == 5
        assert merged.failures == 1

    @settings(max_examples=25, deadline=None)
    @given(
        digits=st.integers(4, 7),
        strategy=st.sampled_from(campaign.STRATEGIES),
        base_mode=st.sampled_from(campaign.BASE_MODES),
        bound=st.sampled_from([None, 9, 99]),
        retry_limit=st.integers(0, 2),
        seed=st.integers(0, 2**32),
        trials=st.integers(0, 60),
    )
    def test_counted_fold_matches_absorbing_each_record(
        self, digits, strategy, base_mode, bound, retry_limit, seed, trials
    ):
        config = CampaignConfig(
            digits=digits, trials=trials, strategy=strategy, base_mode=base_mode,
            bound=bound, retry_limit=retry_limit, master_seed=seed,
        )
        result = run_campaign(config)
        assert result.stats == absorbed_one_by_one(result.records)
        doubled = result.records + result.records[::-1]
        assert compute_metrics(doubled) == absorbed_one_by_one(doubled)

    def test_counted_fold_matches_on_varied_records(self):
        records = varied_records()
        # No campaign here fails `traditional` with a failed_z, which alone
        # would move the failure to another reason.
        failure = next(r for r in records if r.strategy == "traditional" and r.status == "failure")
        records.append(failure._replace(failed_z=(2,)))
        # In chunks, as `report` tallies them, and with records repeated.
        tally = campaign.RecordTally()
        for lo in range(0, len(records), 7):
            tally.add(records[lo : lo + 7])
        tally.add(records[::3])
        want = absorbed_one_by_one(records + records[::3])
        assert tally.stats() == want
        reasons = {"precondition_error", "fallback_trivial", "odd_period_unusable"}
        assert reasons <= want.failures_by_reason.keys()
        assert want.attempts_per_success_histogram.keys() > {1}  # retries ran

    def test_absorb_with_a_count_is_that_many_absorbs(self):
        for k, record in enumerate(varied_records()):
            count = k % 5 + 1
            once = CampaignStats()
            once.absorb(record, count)
            assert once == absorbed_one_by_one([record] * count)


class TestCampaignStatsType:
    """`CampaignStats` is a slotted class; these pin what it kept of the dataclass."""

    MAPS = (
        "failures_by_reason",
        "gcd_count_histogram",
        "attempts_per_success_histogram",
        "cumulative_success_by_bound",
        "outcomes_by_digits_strategy",
    )

    def test_each_instance_gets_its_own_empty_maps(self):
        first, second = CampaignStats(), CampaignStats()
        for name in self.MAPS:
            assert getattr(first, name) == {}
            assert getattr(first, name) is not getattr(second, name)
        first.gcd_count_histogram[1] = 5
        assert second.gcd_count_histogram == {} and second == CampaignStats()

    def test_a_map_passed_in_is_kept_as_given(self):
        for name in self.MAPS:
            given_map = {"k": 1}
            assert getattr(CampaignStats(**{name: given_map}), name) is given_map

    def test_equality(self):
        a = CampaignStats(trials=3, successes=2, failures=1, gcd_count_histogram={1: 3})
        b = CampaignStats(trials=3, successes=2, failures=1, gcd_count_histogram={1: 3})
        assert a == b and not a != b
        assert a != CampaignStats(trials=3, successes=2, failures=1)
        assert a.__eq__(object()) is NotImplemented
        assert a.__eq__(tuple(getattr(a, name) for name in CampaignStats.__slots__)) is NotImplemented
        assert a != (3, 2, 1)

    def test_repr_names_every_field(self):
        text = repr(CampaignStats(trials=2, failures_by_reason={"fallback_trivial": 1}))
        assert text.startswith("CampaignStats(trials=2, successes=0, failures=0, ")
        assert "failures_by_reason={'fallback_trivial': 1}" in text
        assert all(f"{name}=" in text for name in CampaignStats.__slots__)
        assert text.endswith("outcomes_by_digits_strategy={})")

    def test_pickle_round_trip(self):
        stats = compute_metrics(varied_records())
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(stats, protocol))
            assert type(copy) is CampaignStats and copy == stats
            assert copy.outcomes_by_digits_strategy is not stats.outcomes_by_digits_strategy

    def test_unknown_keyword_raises(self):
        with pytest.raises(TypeError):
            CampaignStats(trials=1, bogus=2)

    def test_no_attribute_outside_the_fields(self):
        with pytest.raises(AttributeError):
            CampaignStats().bogus = 1


class TestCochran:
    def test_examples(self):
        assert cochran_sample_size(0.5, 0.01, 1.96) == 9604
        assert cochran_sample_size(0.0, 0.3, 2.0) == 0
        # exact evaluation: ceil(2401 * 9999 / 625) = ceil(38412.1584)
        assert cochran_sample_size(0.0001, 0.0001, 1.96) == 38413

    def test_accepts_fractions_and_ints(self):
        assert cochran_sample_size(Fraction(1, 2), Fraction(1, 100), Fraction(49, 25)) == 9604
        assert cochran_sample_size(1, 1, 1) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cochran_sample_size(0.5, 0, 1.96)
        with pytest.raises(ValueError):
            cochran_sample_size(0.5, -0.1, 1.96)
        with pytest.raises(ValueError):
            cochran_sample_size(1.5, 0.1, 1.96)
        with pytest.raises(ValueError):
            cochran_sample_size(0.5, 0.1, 0)


class TestRecordSerialization:
    @pytest.mark.parametrize("size", [1, 3, 64, 1 << 16])
    def test_chunks_are_whole_lines(self, monkeypatch, tmp_path, size):
        monkeypatch.setattr(fanout, "_CHUNK_BYTES", size)
        long_line = b"x" * 200 + b"\r\n"  # spans reads of 64 bytes
        for data in (b"", b"\n", b"a\n\nbc\n" + long_line, b"a\nbc" + long_line + b"tail"):
            path = tmp_path / "data"
            path.write_bytes(data)
            with open(path, "rb") as handle:
                chunks = list(fanout.read_chunks(handle))
            assert b"".join(chunks) == data
            assert all(chunk.endswith(b"\n") for chunk in chunks[:-1])
            assert all(chunks)
            if size == 1:  # a byte at a time: a chunk per line
                assert chunks == data.splitlines(keepends=True)

    def test_round_trip(self):
        result = run_campaign(CampaignConfig(digits=4, trials=60, master_seed=17))
        for record in result.records:
            assert TrialRecord.from_json_dict(record.to_json_dict()) == record

    def test_decoded_records_rebuild_their_lines(self):
        records = varied_records()
        names = list(TrialRecord._fields)
        for record in records:
            line = record_json_line(record)
            assert line == compact_json(record)  # the reference encoder
            decoded = TrialRecord.from_json_dict(record.to_json_dict())
            assert decoded == record
            assert list(record._asdict()) == list(decoded._asdict()) == names
            assert record_json_line(decoded) == line
            assert record_from_json_line(line.encode()) == record
            assert record_from_json_line(line) == record
        lines = "\n".join(map(record_json_line, records))
        assert fanout.decode_chunk(lines.encode()) == records
        assert fanout.decode_chunk(lines.encode() + b"\n") == records

    def test_line_template_on_edge_values(self):
        base = run_trial(make_case(21, 3, 7, 2), "allz")
        edges = {
            "case_id": (0, (1 << 64) - 1, 1 << 64),
            "seed": (0, 1 << 64),
            "n": (-1, 1 << 64),
            "base_mode": ("", 'a"b', "é"),
            "bound": (None, 2, 1 << 64),
            "factor": (None, 7, 1 << 64),
            "succeeded_z": (None, 2, 1 << 64, "fallback", "shortcut"),
            "failed_z": ((), (2,), (3, 6, 9, 1 << 64)),
            "fallback_tried": (True, False),
            "fallback_succeeded": (True, False),
            "r_even": (True, False),
            "resolved": (True, False),
            "half_power_is_minus_one": (None, True, False),
            "error": (
                None,
                "",
                'a quote " and a backslash \\',
                "controls \t\n\r\x00\x07\x1f\x7f",
                "non-ASCII \xe9 \xdf \u221e \xa0 \u2028",
                "astral \U0001F600 \U0001D538",
            ),
        }
        for name, values in edges.items():
            for value in values:
                record = base._replace(**{name: value})
                assert record_json_line(record) == compact_json(record), (name, value)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_line_template_on_any_values(self, data):
        wide = st.integers(-(1 << 64), 1 << 64)
        kinds = {int: wide, str: st.text(), bool: st.booleans(), type(None): st.none()}
        values = []
        for name, types in zip(TrialRecord._fields, campaign._RECORD_TYPES):
            if types == (list,):
                values.append(tuple(data.draw(st.lists(wide, max_size=6), label=name)))
            else:
                values.append(data.draw(st.one_of([kinds[t] for t in types]), label=name))
        record = TrialRecord._make(values)
        assert record_json_line(record) == compact_json(record)

    def test_record_shape(self):
        config = CampaignConfig(digits=5, trials=3, strategy="traditional", retry_limit=2)
        chunk, _ = next(campaign_blocks(config))
        assert TrialRecord._fields == tuple(json.loads(chunk.split(b"\n")[0]))
        records = varied_records()
        with pytest.raises(AttributeError):
            records[0].r = 1
        row_fields = ("digits", "n", "a", "case_id", "r", "failed_z", "fallback_tried")
        for record in records:
            decoded = TrialRecord.from_json_dict(record.to_json_dict())
            assert type(decoded) is TrialRecord
            absorbed = tuple(getattr(record, name) for name in campaign._Absorbed._fields)
            assert campaign._absorbed(record) == absorbed
            assert cli._failure_row(record) == tuple(getattr(record, name) for name in row_fields)


# Keys put first into a record's object. `from_json_dict` ignores a key
# outside the fields, and of a key given twice the decoder keeps the last.
EXTRA_KEYS = {
    "duplicate failed_z": b'"failed_z":[[1],[2]]',
    "duplicate r": b'"r":[]',
    "[ in a string": b'"note":"a [ b"',
    "[ escaped": b'"note":"\\u005b"',
    "[ as a key": b'"[":0',
}
CHUNK_MUTATIONS = (
    "join", "join records", "split", "insert ],[", "insert ]", "append ]", "append ,{}",
    *EXTRA_KEYS, "crlf", "blank", "bom", "non-utf-8", "deep [", "deep {",
)


def mutate_lines(lines, kind, i, j):
    """Apply one mutation to line i % len(lines), at byte j of it modulo its length + 1."""
    i %= len(lines)
    line = lines[i]
    j %= len(line) + 1
    if kind == "join" and i + 1 < len(lines):
        lines[i : i + 2] = [line + lines[i + 1]]
    elif kind == "join records" and i + 1 < len(lines):
        lines[i : i + 2] = [line + b"],[" + lines[i + 1]]
    elif kind == "split":
        lines[i : i + 1] = [line[:j], line[j:]]
    elif kind.startswith("insert "):
        lines[i] = line[:j] + kind[7:].encode() + line[j:]
    elif kind.startswith("append "):
        lines[i] = line + kind[7:].encode()
    elif kind in EXTRA_KEYS:
        lines[i] = line.replace(b"{", b"{" + EXTRA_KEYS[kind] + b",", 1)
    elif kind == "crlf":
        lines[i] = line + b"\r"
    elif kind == "blank":
        lines.insert(i, b"")
    elif kind == "bom":
        lines[i] = b"\xef\xbb\xbf" + line
    elif kind == "non-utf-8":
        lines[i] = line[:j] + b"\xff" + line[j:]
    elif kind == "deep [":  # past the decoder's recursion limit
        lines.insert(i, b"[" * 5000)
    elif kind == "deep {":
        lines.insert(i, b'{"a":' * 5000)


def decode_line_by_line(chunk):
    """The reference reading of a chunk: each line alone, by the line reader."""
    try:
        lines = chunk.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = chunk.split(b"\n")
    if not lines[-1]:
        lines.pop()
    records = []
    for index, line in enumerate(lines):
        try:
            records.append(record_from_json_line(line))
        except fanout._LINE_ERRORS as exc:
            raise fanout.BadLine(index) from exc
    return records


def decode_outcome(decode, chunk):
    """A chunk's records, or its first bad line's index and the type of its cause."""
    try:
        return decode(chunk)
    except fanout.BadLine as exc:
        return exc.index, type(exc.__cause__)


@functools.cache
def varied_lines():
    return tuple(record_json_line(r).encode() for r in varied_records())


def split_beside_doubled(line):
    """Two lines that hold one record between them, split inside a duplicate
    key's [[1],[2]], then a line that holds two records joined by "],[".
    Decoded as one list with "],\n[" between lines, the three lines give
    three lists of one accepted record each; only the "[" count tells them
    from three records."""
    return [b'{"failed_z":[[1', b"2]]," + line[1:], line + b"],[" + line]


def split_in_three(line):
    """Three lines that hold one record, split inside a duplicate key's
    [[1],[2],[3]]. They hold as many "[" as lines, but decoded as one list
    with "],\n[" between lines they give one list of one record."""
    return [b'{"failed_z":[[1', b"2", b"3]]," + line[1:]]


# Lines made from one record line, in ways that keep a chunk's one JSON
# call whole more often than not.
TAKEN_PIECES = {
    "record": lambda line: [line],
    "no failed_z": lambda line: [re.sub(rb',"failed_z":\[[^\]]*\]', b"", line, count=1)],
    **{
        kind: lambda line, key=key: [line.replace(b"{", b"{" + key + b",", 1)]
        for kind, key in EXTRA_KEYS.items()
    },
    "split in a key": lambda line: [b'{"failed_z":[[1', b"2]]," + line[1:]],
    "merged then refused": merged_then_refused,
    "join records": lambda line: [line + b"],[" + line],
    "join ,": lambda line: [line + b"," + line],
    "{}": lambda line: [b"{}"],
    "{}],[{}": lambda line: [b"{}],[{}"],
}


class TestChunkDecode:
    @settings(max_examples=400, deadline=None)
    # A record line that a "]" or another object follows: the decode of the
    # whole chunk stops early, or gives a list of two items.
    @example(picks=[0], mutations=[("append ]", 0, 0)], final_end=True)
    @example(picks=[0, 1], mutations=[("append ,{}", 0, 0)], final_end=False)
    @given(
        picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=6),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(CHUNK_MUTATIONS), st.integers(0, 1 << 16), st.integers(0, 1 << 16)
            ),
            max_size=4,
        ),
        final_end=st.booleans(),
    )
    def test_matches_the_line_by_line_reading(self, picks, mutations, final_end):
        pool = varied_lines()
        lines = [pool[k % len(pool)] for k in picks]
        for kind, i, j in mutations:
            mutate_lines(lines, kind, i, j)
        chunk = b"\n".join(lines) + b"\n" * final_end
        expected = decode_outcome(decode_line_by_line, chunk)
        assert decode_outcome(fanout.decode_chunk, chunk) == expected

    @settings(max_examples=400, deadline=None)
    @example(pieces=[("record", 0), ("merged then refused", 1)], at=0, final_end=True)
    @given(
        pieces=st.lists(
            st.tuples(st.sampled_from(list(TAKEN_PIECES)), st.integers(0, 1 << 16)),
            min_size=1,
            max_size=5,
        ),
        at=st.integers(0, 5),
        final_end=st.booleans(),
    )
    def test_a_refused_row_means_a_bad_line_in_the_chunk(self, pieces, at, final_end):
        # Where the guard takes the chunk's JSON call, the load checks refuse
        # a row exactly when the line reader fails on a line of the chunk,
        # and the first it fails on is the one named.
        pool = varied_lines()
        lines = [out for kind, k in pieces for out in TAKEN_PIECES[kind](pool[k % len(pool)])]
        # As many "[" as lines: an accepted record whose extra key holds the
        # "[" missing, or a line "{}" for each "[" over.
        missing = len(lines) - b"".join(lines).count(b"[")
        note = pool[at % len(pool)].replace(b"{", b'{"note":"' + b"[" * missing + b'",', 1)
        at %= len(lines) + 1
        lines[at:at] = [note] if missing >= 0 else [b"{}"] * -missing
        chunk = b"\n".join(lines) + b"\n" * final_end
        rows = fanout._parse_chunk(chunk)
        assume(rows is not None)
        records = fanout._checked_rows(rows)
        read = decode_outcome(lambda chunk: fanout._decode_lines(chunk.split(b"\n")), chunk)
        assert (records is None) == (type(read) is tuple)
        if records is not None:
            assert records == read
        assert decode_outcome(fanout.decode_chunk, chunk) == read

    def test_split_and_joined_records_are_refused(self):
        good = varied_lines()
        trap = split_beside_doubled(good[0])
        whole = b"[[" + b"],\n[".join(trap) + b"]]"
        rows = json.loads(whole)
        assert len(rows) == len(trap) and all(len(row) == 1 for row in rows)
        assert all(TrialRecord.from_json_dict(row[0]) for row in rows)
        three = split_in_three(good[0])
        assert b"".join(three).count(b"[") == len(three)
        assert len(json.loads(b"[[" + b"],\n[".join(three) + b"]]")) == 1
        # The first bad line is a split record's first half, which is no
        # JSON, or the two records, which are more than one JSON value.
        for lines, bad in (
            (trap, (0, json.JSONDecodeError)),
            ([*good[:3], *trap, *good[3:6]], (3, json.JSONDecodeError)),
            ([*good[:3], trap[2], *trap[:2]], (3, ValueError)),
            (three, (0, json.JSONDecodeError)),
            ([*good[:2], *three, *good[2:4]], (2, json.JSONDecodeError)),
        ):
            for chunk in (
                b"\n".join(lines),
                b"\n".join(lines) + b"\n",
                b"".join(line + b"\r\n" for line in lines),
            ):
                outcome = decode_outcome(fanout.decode_chunk, chunk)
                assert outcome == decode_outcome(decode_line_by_line, chunk)
                assert outcome == bad

    def test_a_valid_chunk_is_decoded_whole_and_each_record_once(self, monkeypatch):
        records = varied_records()
        chunk = b"".join(line + b"\n" for line in varied_lines())
        seen = []
        decode = TrialRecord.from_json_dict

        def counted(data):
            seen.append(data["case_id"])
            return decode(data)

        monkeypatch.setattr(TrialRecord, "from_json_dict", counted)
        # Read whole, the chunk never reaches the line reader.
        monkeypatch.setattr(fanout, "record_from_json_line", None)
        assert fanout.decode_chunk(chunk) == records
        assert seen == [r.case_id for r in records]

    def test_a_mistyped_field_is_named(self):
        good = varied_records()[0].to_json_dict()
        samples = {int: 7, str: "x", bool: True, type(None): None, list: [], dict: {}, float: 1.5}
        fields = TrialRecord._fields
        for name, types in zip(fields, campaign._RECORD_TYPES):
            for kind, value in samples.items():
                if kind in types:
                    continue
                with pytest.raises(TypeError) as info:
                    TrialRecord.from_json_dict({**good, name: value})
                assert str(info.value) == f"record field {name!r} cannot be {kind.__name__}"
        # Of two mistyped fields, the first in field order is named.
        for first, second in zip(fields, fields[1:]):
            with pytest.raises(TypeError, match=f"^record field {first!r} cannot be float$"):
                TrialRecord.from_json_dict({**good, second: 1.5, first: 1.5})
        assert len(campaign._TYPE_ROWS) == math.prod(map(len, campaign._RECORD_TYPES)) == 48


def compact_json(record):
    """The reference encoding of a results-file line."""
    return json.dumps(record.to_json_dict(), separators=(",", ":"))
