"""Monte Carlo campaign harness.

Generates RSA-style semiprimes and bases, runs strategy trials at scale,
and aggregates statistics. Determinism is the load-bearing property:

* every trial derives its own 64-bit seed from the campaign master seed
  and the trial's case id through the splitmix64 stream
  (seed_i = mix64(master + (i + 1) * GOLDEN)), so records are pure
  functions of (config, case_id);
* workers only change scheduling, never values, and records are always
  emitted in case_id order;
* a block of cases is the unit of work: it is run, JSON-encoded and
  folded into its statistics where it is scheduled, so the caller only
  writes bytes and merges statistics;
* statistics are plain sums and count maps, so partial aggregates merge
  associatively and commutatively with the empty stats as identity.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
from array import array
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import length_hint
from typing import Any, Iterable, Iterator, Literal

from .numtheory import _PRIME_TABLE, _TRIAL_DIVISION_LIMIT, Factorization, factorize, is_probable_prime
from .period_oracle import (
    PeriodRecord,
    carmichael_exponent,
    lcm_of_orders,
    multiplicative_order,
)
from .strategies import FactorOutcome, all_z, dong2023, traditional_shor

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_RETRY_SALT = 0x5DEECE66D
_SAMPLING_CAP = 1_000_000
# Below this a modulus is one CPython digit, and reducing the order mod n
# directly costs less than two reductions and an lcm. Above it, reducing
# mod p and mod q works on one-digit operands instead of several.
_DIRECT_ORDER_LIMIT = 1 << sys.int_info.bits_per_digit

BaseMode = Literal["random", "perfect_square"]
StrategyName = Literal["traditional", "dong2023", "allz"]

BASE_MODES = ("random", "perfect_square")
STRATEGIES = ("traditional", "dong2023", "allz")

#: Divisor-bound digit classes used for cumulative success curves.
BOUND_CLASSES = ("1", "2", "3", "4", "inf")

FAILURE_REASONS = (
    "odd_period_unusable",
    "all_divisors_trivial",
    "half_power_minus_one",
    "fallback_trivial",
    "precondition_error",
)


def mix64(x: int) -> int:
    """splitmix64 finalizer: a documented, platform-independent 64-bit mix."""
    x &= MASK64
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & MASK64
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & MASK64
    x ^= x >> 31
    return x


def case_seed(master_seed: int, case_id: int) -> int:
    """Per-case seed: element case_id of the splitmix64 stream of the master seed."""
    return mix64((master_seed + (case_id + 1) * GOLDEN) & MASK64)


def _draw_limit(bound: int) -> int:
    """Raw draws at or above this are rejected, so draw % bound is unbiased."""
    return (MASK64 + 1) - (MASK64 + 1) % bound


@lru_cache(maxsize=16)
def _lane_constants(k: int) -> tuple[int, int, int]:
    """Per-lane ones, the steps i * GOLDEN (i = 1..k) and 64-bit masks, in 128-bit lanes."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    ramp = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(1, k + 1)), "little")
    return ones, ramp * GOLDEN, ones * MASK64


def mix64_batch(state: int, k: int) -> list[int]:
    """[mix64(state + i * GOLDEN) for i in 1..k], computed in one packed pass.

    Lane i of one Python int holds the state of draw i in its low 64 bits.
    Each lane is 128 bits wide so a 64 x 64-bit product never carries into
    the next lane, and every xor-shift is masked back to 64 bits per lane so
    the bits it shifts down from the next lane are dropped before the
    following multiply.
    """
    ones, steps, lanes = _lane_constants(k)
    x = ((state & MASK64) * ones + steps) & lanes
    x = (x ^ x >> 30) & lanes
    x = x * 0xBF58476D1CE4E5B9 & lanes
    x = (x ^ x >> 27) & lanes
    x = x * 0x94D049BB133111EB & lanes
    x = (x ^ x >> 31) & lanes
    raw = x.to_bytes(16 * k, "little")
    if sys.byteorder == "little":
        return memoryview(raw).cast("Q")[::2].tolist()
    words = array("Q", raw)
    words.byteswap()
    return words[::2].tolist()


_FIRST_BATCH = 32
_LAST_BATCH = 256


class RandomStream:
    """Deterministic uniform integer stream over splitmix64.

    Draw k is mix64(seed + k * GOLDEN). The state is a plain counter, so
    draws are computed ahead in counter-based batches by `mix64_batch`; the
    draw sequence is exactly that of one `mix64` call per draw. The batch
    doubles on each refill from `_FIRST_BATCH` up to `_LAST_BATCH`, so the
    draws computed ahead never exceed those handed out by more than
    `_FIRST_BATCH`. Bounded draws are unbiased via rejection; identical
    across platforms and Python versions, unlike the stdlib Mersenne layer.
    """

    __slots__ = ("_state", "_draws", "_batch")

    def __init__(self, seed: int) -> None:
        # The counter of the last draw computed, not of the last one handed out.
        self._state = seed & MASK64
        self._draws = iter(())
        self._batch = _FIRST_BATCH

    def _refill(self) -> None:
        """Compute the next batch of draws; only call with the current one used up."""
        k = self._batch
        self._draws = iter(mix64_batch(self._state, k))
        self._state = (self._state + k * GOLDEN) & MASK64
        if k < _LAST_BATCH:
            self._batch = 2 * k

    def next_raw(self) -> int:
        for x in self._draws:
            return x
        self._refill()
        return next(self._draws)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _draw_limit(bound)
        while True:
            v = self.next_raw()
            if v < limit:
                return v % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)


@dataclass(frozen=True)
class Semiprime:
    """A test modulus with its ground-truth prime factors."""

    n: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p * self.q != self.n or self.p == self.q:
            raise ValueError("n must be the product of two distinct primes")


@dataclass(frozen=True)
class TrialCase:
    """One fully-specified trial input."""

    case_id: int
    semiprime: Semiprime
    a: int
    base_mode: BaseMode
    seed: int


@dataclass(frozen=True)
class TrialRecord:
    """Everything one trial produced, flat and JSON-ready.

    `status`/`factor` describe the first attempt only; `attempts_used` and
    `resolved` additionally describe what happened once same-n retries
    with fresh bases were allowed. A precondition violation poisons the
    record via `error` instead of being dropped.
    """

    case_id: int
    digits: int
    n: int
    p: int
    q: int
    a: int
    base_mode: str
    seed: int
    strategy: str
    bound: int | None
    status: str
    factor: int | None
    r: int
    r_digits: int
    r_distinct_primes: int
    succeeded_z: int | str | None
    failed_z: tuple[int, ...]
    fallback_tried: bool
    fallback_succeeded: bool
    gcd_count: int
    r_even: bool
    half_power_is_minus_one: bool | None
    attempts_used: int
    resolved: bool
    error: str | None

    def to_json_dict(self) -> dict[str, Any]:
        # The instance dict holds the fields and nothing else, in field order.
        out = dict(vars(self))
        out["failed_z"] = list(self.failed_z)
        return out

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "TrialRecord":
        """Decode one JSON object.

        KeyError or TypeError if a field is missing or mistyped; ValueError
        if the status is neither "success" nor "failure".
        """
        values = {}
        for name, types in _RECORD_TYPES.items():
            values[name] = value = data[name]
            if type(value) not in types:
                raise TypeError(f"record field {name!r} cannot be {type(value).__name__}")
        if values["status"] not in ("success", "failure"):
            raise ValueError(f"record status cannot be {values['status']!r}")
        failed_z = values["failed_z"] = tuple(values["failed_z"])
        for z in failed_z:
            if type(z) is not int:
                raise TypeError(f"record field 'failed_z' cannot hold {type(z).__name__}")
        return cls(**values)


# One compact encoder for every record: json.dumps builds a new one per
# call whenever separators are given.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))


def record_json_line(record: TrialRecord) -> str:
    """One results-file line of the record, without its line end."""
    return _RECORD_ENCODER.encode(record.to_json_dict())


# The JSON value types each record field accepts, read off its annotation
# and matched exactly, so a bool is no int. A tuple travels as a list.
_JSON_TYPES = {"int": int, "str": str, "bool": bool, "None": type(None), "tuple[int, ...]": list}
_RECORD_TYPES = {
    f.name: tuple(_JSON_TYPES[t] for t in f.type.split(" | ")) for f in fields(TrialRecord)
}


@dataclass(frozen=True)
class CampaignConfig:
    digits: int
    trials: int
    base_mode: BaseMode = "random"
    strategy: StrategyName = "allz"
    bound: int | None = None
    master_seed: int = 0
    workers: int = 1
    retry_limit: int = 0

    def validate(self) -> None:
        # Exact type, as for records: a JSON true is no integer.
        for name in ("digits", "trials", "master_seed", "workers", "retry_limit"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        if self.bound is not None and type(self.bound) is not int:
            raise ValueError("bound must be an integer or omitted")
        if not 2 <= self.digits <= 12:
            raise ValueError(f"digits must be in [2, 12], got {self.digits}")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.base_mode not in BASE_MODES:
            raise ValueError(f"unknown base mode {self.base_mode!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.bound is not None and self.bound < 2:
            raise ValueError(f"bound must be >= 2, got {self.bound}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.retry_limit < 0:
            raise ValueError(f"retry limit must be >= 0, got {self.retry_limit}")


def _digit_count(x: int) -> int:
    return len(str(x))


@lru_cache(maxsize=16)
def _prime_draw_params(digit_count: int) -> tuple[int, int, int, bytes | None]:
    """lo, span and rejection limit of a digit class, and its sieve if below 10**4.

    Entry r of the sieve is 1 exactly when lo + r is prime.
    """
    if digit_count < 1:
        raise ValueError("digit count must be >= 1")
    lo = 10 ** (digit_count - 1)
    span = 10**digit_count - lo
    sieve = bytes(_PRIME_TABLE[lo : lo + span]) if lo + span <= _TRIAL_DIVISION_LIMIT else None
    return lo, span, _draw_limit(span), sieve


def random_prime(digit_count: int, rng: RandomStream) -> int:
    """A uniformly drawn prime with exactly digit_count decimal digits.

    The same draws and rejections as rng.randint(lo, lo + span - 1) per
    candidate, read straight from the stream's batch. The draw budget is
    `_SAMPLING_CAP` draws.
    """
    lo, span, limit, sieve = _prime_draw_params(digit_count)
    budget = _SAMPLING_CAP
    while True:
        draws = rng._draws
        left = length_hint(draws)  # exact for a list iterator: the draws not yet read
        if left > budget:
            draws, left = islice(draws, budget), budget
        if sieve is not None:
            for x in draws:
                if x < limit and sieve[r := x % span]:
                    return lo + r
        else:
            # Looked up as a module global on every use and never kept, so a
            # wrapper swapped in for a traced run leaves with its restore.
            for x in draws:
                if x < limit and is_probable_prime(v := lo + x % span):
                    return v
        budget -= left
        if not budget:
            raise RuntimeError(f"no {digit_count}-digit prime found within the draw budget")
        rng._refill()


def sample_semiprime(digits: int, rng: RandomStream) -> Semiprime:
    """A semiprime with exactly `digits` decimal digits.

    Both primes are drawn with ceil(digits / 2) digits and the pair is
    rejected until the factors differ and the product lands in the digit
    class; that balanced split is what the reference failure cases at 7
    and 8 digits exhibit.
    """
    if digits < 2:
        raise ValueError("digits must be >= 2")
    prime_digits = (digits + 1) // 2
    lo, hi = 10 ** (digits - 1), 10**digits
    for _ in range(_SAMPLING_CAP):
        p = random_prime(prime_digits, rng)
        q = random_prime(prime_digits, rng)
        if p != q and lo <= p * q < hi:
            return Semiprime(n=p * q, p=p, q=q)
    raise RuntimeError(f"no {digits}-digit semiprime found within the draw budget")


def sample_base(n: int, mode: BaseMode, rng: RandomStream) -> int:
    """A base coprime to n: uniform in [2, n-1], or a uniform square b*b."""
    if n < 6:
        raise ValueError(f"modulus must be >= 6, got {n}")
    if mode == "random":
        while True:
            a = rng.randint(2, n - 1)
            if math.gcd(a, n) == 1:
                return a
    if mode == "perfect_square":
        hi = math.isqrt(n - 1)
        for b in range(2, hi + 1):
            if math.gcd(b, n) == 1:
                break
        else:
            raise ValueError(f"no square b*b with 2 <= b <= {hi} is coprime to {n}")
        while True:
            b = rng.randint(2, hi)
            a = b * b
            if math.gcd(a, n) == 1:
                return a
    raise ValueError(f"unknown base mode {mode!r}")


def run_strategy(
    strategy: StrategyName, n: int, a: int, period: PeriodRecord | None, bound: int | None
) -> FactorOutcome:
    """Run the named strategy; the bound only restricts all_z."""
    if strategy == "allz":
        return all_z(n, a, period, bound)
    if strategy == "traditional":
        return traditional_shor(n, a, period)
    if strategy == "dong2023":
        return dong2023(n, a, period)
    raise ValueError(f"unknown strategy {strategy!r}")


OrderHints = Factorization | tuple[Factorization, Factorization]


def order_hints(sp: Semiprime) -> OrderHints:
    """The factored exponents `run_trial` reduces the order from.

    lcm(p - 1, q - 1) for a modulus below `_DIRECT_ORDER_LIMIT`, otherwise
    p - 1 and q - 1. Either way `carmichael_exponent` first checks that p
    and q are distinct primes, without which the order mod p*q would not
    be the lcm of the orders mod p and mod q.
    """
    lam = carmichael_exponent(sp.p, sp.q)
    if sp.n < _DIRECT_ORDER_LIMIT:
        return factorize(lam)
    return factorize(sp.p - 1), factorize(sp.q - 1)


def run_trial(
    case: TrialCase,
    strategy: StrategyName,
    bound: int | None = None,
    exponent_hints: OrderHints | None = None,
) -> TrialRecord:
    """Run one strategy attempt and fill every diagnostic field.

    Deterministic function of the case. Below `_DIRECT_ORDER_LIMIT` the
    order is reduced mod n; above it, mod p and mod q and merged by lcm
    (CRT). Both give the same record. `exponent_hints` are the case's
    `order_hints` when the caller already has them; otherwise they are
    computed here when needed. Precondition violations come back as a
    poisoned record carrying the error message.
    """
    sp = case.semiprime
    n, a = sp.n, case.a
    base = dict(
        case_id=case.case_id,
        digits=_digit_count(n),
        n=n,
        p=sp.p,
        q=sp.q,
        a=a,
        base_mode=case.base_mode,
        seed=case.seed,
        strategy=strategy,
        bound=bound,
    )
    try:
        if math.gcd(a, n) > 1:
            period = None
        else:
            if exponent_hints is None:
                exponent_hints = order_hints(sp)
            if n < _DIRECT_ORDER_LIMIT:
                period = multiplicative_order(a, n, exponent_hint=exponent_hints)
            else:
                hint_p, hint_q = exponent_hints
                period = lcm_of_orders(
                    multiplicative_order(a % sp.p, sp.p, exponent_hint=hint_p),
                    multiplicative_order(a % sp.q, sp.q, exponent_hint=hint_q),
                )
        outcome = run_strategy(strategy, n, a, period, bound)
    except ValueError as exc:
        return TrialRecord(
            **base,
            status="failure",
            factor=None,
            r=0,
            r_digits=0,
            r_distinct_primes=0,
            succeeded_z=None,
            failed_z=(),
            fallback_tried=False,
            fallback_succeeded=False,
            gcd_count=0,
            r_even=False,
            half_power_is_minus_one=None,
            attempts_used=1,
            resolved=False,
            error=str(exc),
        )

    if period is not None:
        r = period.order
        r_digits = _digit_count(r)
        r_distinct = len(period.factors.entries)
        r_even = r % 2 == 0
        half_minus_one = pow(a, r // 2, n) == n - 1 if r_even else None
    else:
        r, r_digits, r_distinct, r_even, half_minus_one = 0, 0, 0, False, None

    succeeded_z = outcome.succeeded_z
    success = outcome.status == "success"
    return TrialRecord(
        **base,
        status=outcome.status,
        factor=outcome.factor,
        r=r,
        r_digits=r_digits,
        r_distinct_primes=r_distinct,
        succeeded_z=succeeded_z,
        failed_z=outcome.failed_z,
        fallback_tried=outcome.fallback_tried,
        fallback_succeeded=succeeded_z == "fallback",
        gcd_count=outcome.gcd_count,
        r_even=r_even,
        half_power_is_minus_one=half_minus_one,
        attempts_used=1,
        resolved=success,
        error=None,
    )


def failure_reason(record: TrialRecord) -> str | None:
    """Bucket a failed record; None for successes.

    The bucket is the last failure mode the strategy hit: a trivial
    fallback beats trivial divisors beats the even/odd period conditions.
    """
    if record.status != "failure":
        return None
    if record.error is not None:
        return "precondition_error"
    if record.fallback_tried:
        return "fallback_trivial"
    if record.failed_z:
        return "all_divisors_trivial"
    if record.strategy == "allz":
        return "all_divisors_trivial"
    if not record.r_even:
        return "odd_period_unusable"
    return "half_power_minus_one"


def _credited_bound_classes(succeeded_z: int | str | None) -> tuple[str, ...]:
    """Bound digit classes a success counts under (the curve's x axis)."""
    if succeeded_z is None:
        return ()
    if isinstance(succeeded_z, str):
        return BOUND_CLASSES
    z_digits = _digit_count(succeeded_z)
    finite = tuple(c for c in BOUND_CLASSES[:-1] if int(c) >= z_digits)
    return finite + ("inf",)


@dataclass
class CampaignStats:
    """Mergeable aggregate over trial records; every field is a sum or count."""

    trials: int = 0
    successes: int = 0
    failures: int = 0
    failures_by_reason: dict[str, int] = field(default_factory=dict)
    gcd_count_histogram: dict[int, int] = field(default_factory=dict)
    attempts_per_success_histogram: dict[int, int] = field(default_factory=dict)
    r_count: int = 0
    r_digits_sum: int = 0
    r_distinct_primes_sum: int = 0
    even_r_count: int = 0
    half_power_minus_one_count: int = 0
    cumulative_success_by_bound: dict[str, int] = field(default_factory=dict)
    fallback_success_count: int = 0

    @property
    def success_rate(self) -> Fraction:
        if self.trials == 0:
            return Fraction(0)
        return Fraction(self.successes, self.trials)

    @property
    def mean_gcd_count(self) -> Fraction:
        if self.trials == 0:
            return Fraction(0)
        total = sum(k * v for k, v in self.gcd_count_histogram.items())
        return Fraction(total, self.trials)

    @property
    def mean_r_digits(self) -> Fraction:
        if self.r_count == 0:
            return Fraction(0)
        return Fraction(self.r_digits_sum, self.r_count)

    @property
    def mean_r_distinct_primes(self) -> Fraction:
        if self.r_count == 0:
            return Fraction(0)
        return Fraction(self.r_distinct_primes_sum, self.r_count)

    def absorb(self, record: TrialRecord) -> None:
        """Fold one record in; shared by streaming and recomputation paths."""
        self.trials += 1
        if record.status == "success":
            self.successes += 1
        else:
            self.failures += 1
            reason = failure_reason(record)
            assert reason is not None
            self.failures_by_reason[reason] = self.failures_by_reason.get(reason, 0) + 1
        hist = self.gcd_count_histogram
        hist[record.gcd_count] = hist.get(record.gcd_count, 0) + 1
        if record.resolved:
            aps = self.attempts_per_success_histogram
            aps[record.attempts_used] = aps.get(record.attempts_used, 0) + 1
        if record.error is None and record.r > 0:
            self.r_count += 1
            self.r_digits_sum += record.r_digits
            self.r_distinct_primes_sum += record.r_distinct_primes
            if record.r_even:
                self.even_r_count += 1
            if record.half_power_is_minus_one:
                self.half_power_minus_one_count += 1
        if record.status == "success":
            curve = self.cumulative_success_by_bound
            for cls_name in _credited_bound_classes(record.succeeded_z):
                curve[cls_name] = curve.get(cls_name, 0) + 1
            if record.fallback_succeeded:
                self.fallback_success_count += 1


def _merge_counts(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def merge_stats(s1: CampaignStats, s2: CampaignStats) -> CampaignStats:
    """Field-wise sum; associative and commutative with CampaignStats() as identity."""
    merged = {}
    for f in fields(CampaignStats):
        x, y = getattr(s1, f.name), getattr(s2, f.name)
        merged[f.name] = _merge_counts(x, y) if isinstance(x, dict) else x + y
    return CampaignStats(**merged)


def compute_metrics(records: Iterable[TrialRecord]) -> CampaignStats:
    """Recompute aggregate stats from raw records."""
    stats = CampaignStats()
    for record in records:
        stats.absorb(record)
    return stats


def _build_case(config: CampaignConfig, case_id: int) -> TrialCase:
    seed = case_seed(config.master_seed, case_id)
    rng = RandomStream(seed)
    sp = sample_semiprime(config.digits, rng)
    a = sample_base(sp.n, config.base_mode, rng)
    return TrialCase(case_id=case_id, semiprime=sp, a=a, base_mode=config.base_mode, seed=seed)


def _execute_case(config: CampaignConfig, case_id: int) -> TrialRecord:
    case = _build_case(config, case_id)
    # Every attempt on the case shares its modulus, and so the factored
    # exponents that seed the order computation.
    hints = order_hints(case.semiprime)
    record = run_trial(case, config.strategy, config.bound, hints)
    if record.status == "success" or record.error is not None or config.retry_limit == 0:
        return record
    # Retries draw fresh bases for the same modulus from a sub-stream of
    # the case seed, so they never perturb the primary sampling sequence.
    retry_rng = RandomStream(mix64(case.seed ^ _RETRY_SALT))
    tried = {case.a}
    attempts_used = 1
    resolved = False
    for _ in range(config.retry_limit):
        a_next = None
        for _ in range(64):
            candidate = sample_base(case.semiprime.n, config.base_mode, retry_rng)
            if candidate not in tried:
                a_next = candidate
                break
        if a_next is None:
            break  # tiny modulus: no unused base left to try
        tried.add(a_next)
        attempts_used += 1
        retry_case = replace(case, a=a_next)
        retry_record = run_trial(retry_case, config.strategy, config.bound, hints)
        if retry_record.status == "success":
            resolved = True
            break
    return replace(record, attempts_used=attempts_used, resolved=resolved)


Block = tuple[bytes, CampaignStats]


def _run_block(args: tuple[CampaignConfig, int, int]) -> Block:
    """Cases lo..hi-1 as results-file bytes, and their stats, both made here."""
    config, lo, hi = args
    records = [_execute_case(config, cid) for cid in range(lo, hi)]
    # Folded and encoded in loops of their own, which run faster than one
    # loop that interleaves them with the cases. Not by compute_metrics: the
    # benchmark's tracer takes its calls to lie outside any case, and a call
    # per block would restart the case count of a traced serial run.
    stats = CampaignStats()
    for record in records:
        stats.absorb(record)
    lines = [record_json_line(record) for record in records]
    lines.append("")
    return "\n".join(lines).encode(), stats


@dataclass(frozen=True)
class CampaignResult:
    """Records in case_id order plus their aggregate statistics."""

    records: list[TrialRecord]
    stats: CampaignStats


_BLOCK_SIZE = 256


def _usable_cpus() -> int:
    """The CPUs this process may run on, read afresh on every call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def campaign_blocks(config: CampaignConfig) -> Iterator[Block]:
    """Each block's results-file bytes and stats, in case_id order.

    Blocks of `_BLOCK_SIZE` cases run in this process, or on a pool of at
    most `config.workers` processes, one per block and per usable CPU at
    most. The bytes and stats are the same either way, and only the
    blocks in flight are held, so memory does not grow with the trials.
    """
    config.validate()
    starts = range(0, config.trials, _BLOCK_SIZE)
    blocks = ((config, lo, min(lo + _BLOCK_SIZE, config.trials)) for lo in starts)
    processes = min(config.workers, len(starts), _usable_cpus())
    if processes < 2:
        yield from map(_run_block, blocks)
        return
    with multiprocessing.Pool(processes=processes) as pool:
        yield from pool.imap(_run_block, blocks)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run `config.trials` independent seeded trials, in parallel if asked.

    Records come back in case_id order no matter how workers schedule the
    blocks, and rerunning the same config reproduces them exactly. Each
    one is decoded from its results-file line, as `allz report` reads it.
    """
    records: list[TrialRecord] = []
    stats = CampaignStats()
    for chunk, block_stats in campaign_blocks(config):
        records.extend(TrialRecord.from_json_dict(json.loads(line)) for line in chunk.splitlines())
        stats = merge_stats(stats, block_stats)
    return CampaignResult(records=records, stats=stats)


def cochran_sample_size(p_expected, margin, z_alpha) -> int:
    """ceil(z**2 * p * (1 - p) / margin**2), evaluated exactly.

    Arguments are interpreted at decimal face value (1.96 means exactly
    196/100), so results never depend on binary float rounding.
    """
    p = _as_fraction(p_expected)
    e = _as_fraction(margin)
    z = _as_fraction(z_alpha)
    if not 0 <= p <= 1:
        raise ValueError(f"expected proportion must be in [0, 1], got {p_expected}")
    if e <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    if z <= 0:
        raise ValueError(f"z value must be positive, got {z_alpha}")
    return math.ceil(z * z * p * (1 - p) / (e * e))


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)
