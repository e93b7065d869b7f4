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

import math
import os
import struct
from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import chain, islice, product
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Literal,
    NamedTuple,
    get_args,
    get_origin,
    get_type_hints,
)

from .numtheory import _SMALL_PRIMES, _prime_flags, factorize, is_probable_prime
from .period_oracle import (
    PeriodRecord,
    # Unused here, but kept for perfbench's tracer: perfbench/child.py patches them on allz.campaign.
    carmichael_exponent,
    multiplicative_order,
    order_mod_primes,
)
from .strategies import _NO_ATTEMPT, FactorOutcome, all_z, dong2023, traditional_shor

if TYPE_CHECKING:
    from fractions import Fraction

    from .numtheory import Factorization

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_RETRY_SALT = 0x5DEECE66D
_SAMPLING_CAP = 1_000_000
# Primes below this keep their order parts once made, keyed by (p, squares):
# the primes of every campaign of at most 8 digits. A larger prime's parts,
# cheap from the odd factor table, are made again on each case.
_PART_MEMO_LIMIT = 10_000
_PRIME_PARTS: dict[tuple[int, bool], tuple[int, Factorization]] = {}

BaseMode = Literal["random", "perfect_square"]
StrategyName = Literal["traditional", "dong2023", "allz"]

BASE_MODES = ("random", "perfect_square")
STRATEGIES = ("traditional", "dong2023", "allz")

#: Divisor-bound digit classes used for cumulative success curves.
BOUND_CLASSES = ("1", "2", "3", "4", "inf")

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


# mix64_batch's 32 lanes of 128 bits: a one in each lane, the steps i * GOLDEN
# (i = 1..32), the 64-bit masks, and the unpacker of each lane's low word.
_LANE_ONES = sum(1 << 128 * i for i in range(32))
_LANE_STEPS = sum(i * GOLDEN << 128 * (i - 1) for i in range(1, 33))
_LANE_MASKS = _LANE_ONES * MASK64
_LANE_WORDS = struct.Struct("<" + "Q8x" * 32)


def mix64_batch(state: int) -> tuple[int, ...]:
    """mix64(state + i * GOLDEN) for i in 1..32 as a tuple, computed in one packed pass.

    Lane i of one Python int holds the state of draw i in its low 64 bits.
    Each lane is 128 bits wide so a 64 x 64-bit product never carries into
    the next lane, and every xor-shift is masked back to 64 bits per lane so
    the bits it shifts down from the next lane are dropped before the
    following multiply.
    """
    lanes = _LANE_MASKS
    x = ((state & MASK64) * _LANE_ONES + _LANE_STEPS) & lanes
    x = (x ^ x >> 30) & lanes
    x = x * 0xBF58476D1CE4E5B9 & lanes
    x = (x ^ x >> 27) & lanes
    x = x * 0x94D049BB133111EB & lanes
    x = (x ^ x >> 31) & lanes
    return _LANE_WORDS.unpack(x.to_bytes(512, "little"))


def _draw_batches(state: int) -> Iterator[tuple[int, ...]]:
    """The draws after `state` in batches of 32."""
    while True:
        yield mix64_batch(state)
        state = (state + 32 * GOLDEN) & MASK64


class RandomStream:
    """Deterministic uniform integer stream over splitmix64.

    Draw k is mix64(seed + k * GOLDEN). The state is a plain counter, so
    draws are computed ahead in counter-based batches of 32 by `mix64_batch`;
    the draw sequence is exactly that of one `mix64` call per draw. A batch
    is computed only once the one before is used up, so after h draws handed
    out at most h + 31 are computed. Bounded draws are unbiased via
    rejection; identical across platforms and Python versions, unlike the
    stdlib Mersenne layer.
    """

    __slots__ = ("draws",)

    def __init__(self, seed: int) -> None:
        #: The raw draws not yet handed out; reading one consumes it.
        self.draws = chain.from_iterable(_draw_batches(seed & MASK64))

    def next_raw(self) -> int:
        return next(self.draws)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), for 0 < bound <= 2**64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > MASK64 + 1:
            # Every draw would be rejected: the limit is 0.
            raise ValueError("bound must be at most 2**64")
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


class Semiprime(NamedTuple):
    """A test modulus with its ground-truth prime factors.

    `run_trial`, where a caller's case enters, checks that n = p * q with
    p != q; `order_function` checks that p and q are distinct primes.
    """

    n: int
    p: int
    q: int


class TrialCase(NamedTuple):
    """One fully-specified trial input."""

    case_id: int
    semiprime: Semiprime
    a: int
    base_mode: BaseMode
    seed: int


class TrialRecord(NamedTuple):
    """Everything one trial produced, flat and JSON-ready.

    `status`/`factor` describe the first attempt only; `attempts_used` and
    `resolved` additionally describe what happened once same-n retries
    with fresh bases were allowed. A precondition violation poisons the
    record via `error` instead of being dropped.

    A named tuple: built, encoded and read by field position, immutable,
    and equal to a plain tuple of the same values. `_replace` and
    `_asdict` stand in for `dataclasses.replace` and `vars`.
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
        out = self._asdict()
        out["failed_z"] = list(self.failed_z)
        return out

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "TrialRecord":
        """Decode one JSON object.

        KeyError or TypeError if a field is missing or mistyped; ValueError
        if a value is outside its vocabulary or range, or if fields
        contradict each other where `run_trial` and the retries derive one
        from another.
        """
        values = list(_record_values(data))
        # One lookup of every field's type at once; the fields are walked one
        # by one only to name the first mistyped one.
        if tuple(map(type, values)) not in _TYPE_ROWS:
            for name, types, value in zip(_RECORD_FIELDS, _RECORD_TYPES, values):
                if type(value) not in types:
                    raise TypeError(f"record field {name!r} cannot be {type(value).__name__}")
        (
            _, digits, n, p, q, a, base_mode, _, strategy, bound, status, factor, r, r_digits,
            distinct, z, failed_z, fallback_tried, fallback_succeeded, gcd_count, r_even,
            half_power_is_minus_one, attempts_used, resolved, error,
        ) = values
        failed_z = values[_FAILED_Z_INDEX] = tuple(failed_z)
        for divisor in failed_z:
            if type(divisor) is not int:
                raise TypeError(f"record field 'failed_z' cannot hold {type(divisor).__name__}")
            if divisor < 2 or r % divisor:
                raise ValueError("record failed_z holds no divisor >= 2 of r")
        if strategy not in STRATEGIES or base_mode not in BASE_MODES:
            raise ValueError("record strategy or base_mode is unknown")
        if type(z) is str and z not in ("fallback", "shortcut"):
            raise ValueError(f"record succeeded_z cannot be {z!r}")
        if bound is not None and bound < 2:
            raise ValueError("record bound is below 2")
        if n != p * q or r < 0:
            raise ValueError("record n is not p * q, or r is negative")
        if _dependent_fields(n, r, z) != (
            digits, status, r_digits, r_even, fallback_succeeded, half_power_is_minus_one
        ):
            raise ValueError("record fields disagree with their n, r and succeeded_z")
        # k distinct primes of r > 1 make r at least the product of the first
        # k primes, and so k <= r.bit_length(); checking that first keeps the
        # product small.
        if not (
            1 <= distinct <= r.bit_length() and math.prod(_SMALL_PRIMES[:distinct]) <= r
            if r > 1
            else distinct == 0
        ):
            raise ValueError("record r_distinct_primes is out of range for its r")
        if type(z) is int and (z < 2 or r % z):
            raise ValueError("record succeeded_z is no divisor >= 2 of r")
        success = status == "success"
        if factor not in ((p, q) if success else (None,)):
            raise ValueError("record factor and status disagree")
        # Only a poisoned record (error set) counts no gcd; it has no order,
        # success or attempt.
        poisoned = error is not None
        if attempts_used < 1 or gcd_count < 0 or (gcd_count == 0) != poisoned:
            raise ValueError("record attempts_used or gcd_count out of range")
        if poisoned and (r != 0 or z is not None or failed_z or fallback_tried):
            raise ValueError("a poisoned record has an order, a success or an attempt")
        # The strategies reject any other base, and so poison its record,
        # and they factor n by gcd(a, n) exactly when a is no unit.
        if not poisoned and not 2 <= a < n:
            raise ValueError("a clean record's base is not in [2, n - 1]")
        if not poisoned and (math.gcd(a, n) > 1) != (z == "shortcut"):
            raise ValueError("a clean record is a gcd shortcut exactly when its base is no unit")
        # An order mod p * q divides lcm(p - 1, q - 1); a poisoned record has r = 0.
        if r and math.lcm(p - 1, q - 1) % r:
            raise ValueError("record r does not divide lcm(p - 1, q - 1)")
        if success and (not resolved or attempts_used != 1):
            raise ValueError("a success is resolved by its first attempt")
        if resolved and attempts_used < 2 and not success:
            raise ValueError("a failure is resolved only by a retry")
        return cls._make(values)


_RECORD_FIELDS = TrialRecord._fields
_FAILED_Z_INDEX = _RECORD_FIELDS.index("failed_z")
_ATTEMPTS_USED_INDEX = _RECORD_FIELDS.index("attempts_used")
# The fields' values of a decoded JSON object, in field order.
_record_values = itemgetter(*_RECORD_FIELDS)


def _json_types(hint: Any) -> tuple[type, ...]:
    """The JSON value types a record field of type `hint` accepts, matched
    exactly, so a bool is no int. A tuple travels as a list."""
    if get_origin(hint) is tuple:
        return (list,)
    return get_args(hint) or (hint,)


# Read off the evaluated annotations, in field order: under postponed
# evaluation the class holds them as forward references, whose form
# varies across versions.
_RECORD_TYPES = tuple(map(_json_types, _record_values(get_type_hints(TrialRecord))))
# Every well-typed row of value types, one pick per field: 48 rows.
_TYPE_ROWS = frozenset(product(*_RECORD_TYPES))

# A record's line with each value's JSON text in place of its `%s`: one
# object, its keys in field order, no spaces, as compact `json.dumps` writes it.
_RECORD_LINE = "{" + ",".join(_quote(name) + ":%s" for name in _RECORD_FIELDS) + "}"
# JSON's literals. Looked up by value, so only for fields that hold no int:
# an int 1 would find true.
_LITERALS = {None: "null", True: "true", False: "false"}


class _QuotedStrings(dict):
    """JSON text of a string: made at import for the strings records
    repeat, and by the encoder's quoting function for any other."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        return _quote(text)


_QUOTED = _QuotedStrings(
    (text, _quote(text))
    for text in (*BASE_MODES, *STRATEGIES, "success", "failure", "fallback", "shortcut")
)


def record_json_line(record: TrialRecord) -> str:
    """One results-file line of the record, without its line end.

    Byte for byte `json.dumps(record.to_json_dict(), separators=(",", ":"))`:
    an int is written by its repr and a string by the encoder's own ASCII
    quoting function, as `json.dumps` writes them; the strings records
    repeat were quoted by it at import.
    """
    (
        case_id, digits, n, p, q, a, base_mode, seed, strategy, bound, status, factor, r, r_digits,
        distinct, z, failed_z, fallback_tried, fallback_succeeded, gcd_count, r_even,
        half_power_is_minus_one, attempts_used, resolved, error,
    ) = record
    return _RECORD_LINE % (
        case_id, digits, n, p, q, a, _QUOTED[base_mode], seed, _QUOTED[strategy],
        "null" if bound is None else bound,
        _QUOTED[status],
        "null" if factor is None else factor,
        r, r_digits, distinct,
        "null" if z is None else _QUOTED[z] if type(z) is str else z,
        "[" + ",".join(map(str, failed_z)) + "]",
        _LITERALS[fallback_tried], _LITERALS[fallback_succeeded], gcd_count, _LITERALS[r_even],
        _LITERALS[half_power_is_minus_one], attempts_used, _LITERALS[resolved],
        "null" if error is None else _quote(error),
    )


class CampaignConfig(NamedTuple):
    """One campaign's settings; `_replace` makes a changed copy."""

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


def _dependent_fields(
    n: int, r: int, z: int | str | None
) -> tuple[int, str, int, bool, bool, bool | None]:
    """digits, status, r_digits, r_even, fallback_succeeded and
    half_power_is_minus_one of a record with this n, order r (0 when none
    was found) and succeeded_z (null on failure).

    The flag needs r to be the exact order of the unit a. Then t = a**(r/2)
    has t * t == 1 and t != 1 mod n = p * q, and every strategy tries z = 2
    first on an even r. On an odd n, t == -1 exactly when gcd(t - 1, n) = 1;
    otherwise t == 1 mod exactly one of p and q, and the z = 2 attempt finds
    that prime. On an even n = 2 * q, t == -1 always. So t == -1 exactly when
    n is even or the case did not succeed at z = 2.
    """
    r_even = r > 0 and r % 2 == 0
    return (
        _digit_count(n),
        "failure" if z is None else "success",
        _digit_count(r) if r else 0,
        r_even,
        z == "fallback",
        (n % 2 == 0 or z != 2) if r_even else None,
    )


@lru_cache(maxsize=16)
def _prime_draw_params(digit_count: int) -> tuple[int, int, int, bytearray]:
    """lo, span and rejection limit of a digit class, and its sieve, cut from
    numtheory's prime tables by `_prime_flags`. Those reach 6 digits, every
    class a campaign draws; `_prime_flags` refuses a longer class.

    Built on a class's first draw, so importing the package builds no sieve.
    The cache hands every caller the same sieve, so callers only read it: a
    read-only copy would double the build's peak memory, and a read-only
    view makes each lookup slower.
    """
    if digit_count < 1:
        raise ValueError("digit count must be >= 1")
    lo = 10 ** (digit_count - 1)
    span = 10**digit_count - lo
    return lo, span, _draw_limit(span), _prime_flags(lo, lo + span)


def _class_primes(digit_count: int, rng: RandomStream) -> Iterator[int]:
    """Successive uniform primes of digit_count digits, read from rng's draws.

    Each prime takes the same draws and rejections as
    rng.randint(lo, lo + span - 1) per candidate, within a budget of
    `_SAMPLING_CAP` draws of its own, rejected ones included. A suspended
    generator has read no draw past the prime it yielded, so the stream
    stands exactly where the caller stopped taking primes. A candidate is
    tested by a lookup in the class sieve, before the rejection limit,
    which most candidates never reach.
    """
    lo, span, limit, sieve = _prime_draw_params(digit_count)
    draws = rng.draws
    while True:
        for x in islice(draws, _SAMPLING_CAP):
            if sieve[r := x % span] and x < limit:
                break
        else:
            break  # the prime's budget is spent
        yield lo + r
    raise RuntimeError(f"no {digit_count}-digit prime found within the draw budget")


def random_prime(digit_count: int, rng: RandomStream) -> int:
    """A uniformly drawn prime with exactly digit_count decimal digits: the
    first prime of `_class_primes`, with its draws, budget and messages."""
    return next(_class_primes(digit_count, rng))


def sample_semiprime(digits: int, rng: RandomStream) -> Semiprime:
    """A semiprime with exactly `digits` decimal digits.

    Both primes are drawn with ceil(digits / 2) digits, p then q, from one
    `_class_primes` generator, and the pair is rejected until the factors
    differ and the product lands in the digit class, within a budget of
    `_SAMPLING_CAP` pairs; that balanced split is what the reference
    failure cases at 7 and 8 digits exhibit.
    """
    if digits < 2:
        raise ValueError("digits must be >= 2")
    primes = _class_primes((digits + 1) // 2, rng)
    lo, hi = 10 ** (digits - 1), 10**digits
    for p, q in islice(zip(primes, primes), _SAMPLING_CAP):
        if p != q and lo <= p * q < hi:
            return Semiprime(p * q, p, q)
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


def _prime_part(p: int, squares: bool = False) -> tuple[int, Factorization]:
    """(p, factorize(p - 1)) for a prime p, the part `order_mod_primes`
    reduces the order mod p from; a composite p raises `ValueError`.

    The square part, for squares only, is (p, factorize((p - 1) // 2)) for
    an odd p: by Euler's criterion (p - 1) / 2 annihilates every square
    unit mod p, so the order's first reduction by 2 is skipped. p = 2 keeps
    p - 1 = 1. A non-residue fails every reduction from the square part,
    and so the annihilation check, with `ValueError`.

    A prime below `_PART_MEMO_LIMIT` is checked and factored once per
    process for each kind of part, and kept; an error is never kept.
    """
    part = _PRIME_PARTS.get((p, squares))
    if part is None:
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        part = (p, factorize((p - 1) // 2 if squares and p > 2 else p - 1))
        if p < _PART_MEMO_LIMIT:
            _PRIME_PARTS[p, squares] = part
    return part


def order_function(sp: Semiprime, squares: bool = False) -> Callable[[int], PeriodRecord]:
    """The factored order of a unit mod sp.n, as a function of the unit.

    The order is reduced mod p and mod q from the factored p - 1 and q - 1
    and merged by lcm (CRT) in one pass of `order_mod_primes`, for every
    modulus. p and q are first checked to be distinct primes, without
    which the order mod p*q would not be the lcm of the orders mod p and
    mod q; each prime's check and factoring come from `_prime_part`. The
    returned function looks the oracle up by name on each call.

    With `squares`, the function takes only squares b*b of units, and each
    order is reduced from the square parts of p and q instead: the same
    order, for one power fewer per odd prime. A base that is no square mod
    p or mod q raises `ValueError`.
    """
    p, q = sp.p, sp.q
    if p == q:
        raise ValueError("primes must be distinct")
    parts = (_prime_part(p, squares), _prime_part(q, squares))
    return lambda a: order_mod_primes(a, parts)


def run_trial(
    case: TrialCase,
    strategy: StrategyName,
    bound: int | None = None,
    order: Callable[[int], PeriodRecord] | None = None,
) -> TrialRecord:
    """Run one strategy attempt and fill every diagnostic field.

    Deterministic function of the case. `order` is the case modulus's
    `order_function` when the caller already has it; otherwise it is made
    here when needed. A precondition violation comes back as a poisoned
    record: a failure with no order, no attempts and the error message.
    The case's semiprime is checked first, n = p * q with p != q, so a bad
    one poisons the record whatever the base. No order is found for a base
    outside [2, n - 1] or for a non-unit, which the order mod p and mod q
    would take mod each prime, so the strategy's own check names the fault.

    `half_power_is_minus_one` is read off the outcome, with no power taken,
    by an identity (`_dependent_fields`) that needs `order` to give the
    exact order, as `order_function` does.
    """
    n, p, q = case.semiprime
    a = case.a
    error = None
    try:
        if p * q != n or p == q:
            raise ValueError("n must be the product of two distinct primes")
        if not 2 <= a < n or math.gcd(a, n) > 1:
            period = None
        else:
            period = (order or order_function(case.semiprime))(a)
        outcome = run_strategy(strategy, n, a, period, bound)
    except ValueError as exc:
        period, outcome, error = None, _NO_ATTEMPT, str(exc)

    r, r_distinct = (0, 0) if period is None else (period.order, len(period.factors.entries))
    succeeded_z = outcome.succeeded_z
    digits, status, r_digits, r_even, fallback_succeeded, half_power = _dependent_fields(
        n, r, succeeded_z
    )
    # The values in field order, past `_make`'s length check.
    return tuple.__new__(
        TrialRecord,
        (
            case.case_id,
            digits,
            n,
            p,
            q,
            a,
            case.base_mode,
            case.seed,
            strategy,
            bound,
            status,
            outcome.factor,
            r,
            r_digits,
            r_distinct,
            succeeded_z,
            outcome.failed_z,
            outcome.fallback_tried,
            fallback_succeeded,
            # gcd_count: a poisoned record counts no gcd, not even the gcd(a, n) probe.
            0 if error is not None else outcome.gcd_count,
            r_even,
            half_power,
            1,  # attempts_used
            status == "success",  # resolved
            error,
        )
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
    if record.failed_z or record.strategy == "allz":
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
    # The class of k-digit bounds sits at index k - 1, and "inf" last.
    return BOUND_CLASSES[min(_digit_count(succeeded_z), len(BOUND_CLASSES)) - 1 :]


class CampaignStats:
    """Mergeable aggregate over trial records; every field is a sum or count.

    A slotted class, so that importing the package loads no `dataclasses`.
    `__slots__` maps each field to the type whose call gives its start
    value, so a count not passed in starts at 0 and a map at a new {}.
    """

    __slots__ = {
        "trials": int,
        "successes": int,
        "failures": int,
        "failures_by_reason": dict,
        "gcd_count_histogram": dict,
        "attempts_per_success_histogram": dict,
        "r_count": int,
        "r_digits_sum": int,
        "r_distinct_primes_sum": int,
        "even_r_count": int,
        "half_power_minus_one_count": int,
        "cumulative_success_by_bound": dict,
        "fallback_success_count": int,
        "outcomes_by_digits_strategy": dict,  # records per (digits, strategy, status)
    }

    def __init__(self, **fields: Any) -> None:
        for name, start in self.__slots__.items():
            setattr(self, name, fields.pop(name) if name in fields else start())
        if fields:
            raise TypeError(f"unknown CampaignStats fields: {sorted(fields)}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({values})"

    @property
    def gcd_count_sum(self) -> int:
        return sum(k * v for k, v in self.gcd_count_histogram.items())

    def absorb(self, record: TrialRecord, count: int = 1) -> None:
        """Fold `count` copies of one record in, or of its `_Absorbed` tuple."""
        self.trials += count
        outcomes = self.outcomes_by_digits_strategy
        key = (record.digits, record.strategy, record.status)
        outcomes[key] = outcomes.get(key, 0) + count
        if record.status == "success":
            self.successes += count
        else:
            self.failures += count
            reason = failure_reason(record)
            assert reason is not None
            self.failures_by_reason[reason] = self.failures_by_reason.get(reason, 0) + count
        hist = self.gcd_count_histogram
        hist[record.gcd_count] = hist.get(record.gcd_count, 0) + count
        if record.resolved:
            aps = self.attempts_per_success_histogram
            aps[record.attempts_used] = aps.get(record.attempts_used, 0) + count
        # r_digits is 0 exactly when r is, so it tells whether there is an order.
        if record.error is None and record.r_digits > 0:
            self.r_count += count
            self.r_digits_sum += record.r_digits * count
            self.r_distinct_primes_sum += record.r_distinct_primes * count
            if record.r_even:
                self.even_r_count += count
            if record.half_power_is_minus_one:
                self.half_power_minus_one_count += count
        if record.status == "success":
            curve = self.cumulative_success_by_bound
            for cls_name in _credited_bound_classes(record.succeeded_z):
                curve[cls_name] = curve.get(cls_name, 0) + count
            if record.fallback_succeeded:
                self.fallback_success_count += count


# The fields `CampaignStats.absorb` reads; records that agree on them fold alike.
_Absorbed = namedtuple(
    "_Absorbed",
    (
        "digits", "strategy", "status", "error", "fallback_tried", "failed_z", "r_even",
        "gcd_count", "resolved", "attempts_used", "r_digits", "r_distinct_primes",
        "half_power_is_minus_one", "succeeded_z", "fallback_succeeded",
    ),
)
# By field index, which costs less than the named tuple's attribute lookups.
_absorbed = itemgetter(*map(_RECORD_FIELDS.index, _Absorbed._fields))


class RecordTally:
    """The stats of many records, absorbed once per distinct `_Absorbed` tuple.

    Records repeat few such tuples (~800 over 9500 mixed records, or over
    1M 6-digit allz ones), so counting them and absorbing each once with
    its count costs less than absorbing every record, and keeps no record.
    The stats are the same.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def add(self, records: Iterable[TrialRecord]) -> None:
        self.counts.update(map(_absorbed, records))

    def stats(self) -> CampaignStats:
        stats = CampaignStats()
        for absorbed, count in self.counts.items():
            stats.absorb(_Absorbed._make(absorbed), count)
        return stats


def _merge_counts(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def merge_stats(s1: CampaignStats, s2: CampaignStats) -> CampaignStats:
    """Field-wise sum; associative and commutative with CampaignStats() as identity."""
    merged = {}
    for name in CampaignStats.__slots__:
        x, y = getattr(s1, name), getattr(s2, name)
        merged[name] = _merge_counts(x, y) if isinstance(x, dict) else x + y
    return CampaignStats(**merged)


def compute_metrics(records: Iterable[TrialRecord]) -> CampaignStats:
    """Recompute aggregate stats from raw records."""
    tally = RecordTally()
    tally.add(records)
    return tally.stats()


def _build_case(config: CampaignConfig, case_id: int) -> TrialCase:
    seed = case_seed(config.master_seed, case_id)
    rng = RandomStream(seed)
    sp = sample_semiprime(config.digits, rng)
    a = sample_base(sp.n, config.base_mode, rng)
    return TrialCase(case_id, sp, a, config.base_mode, seed)


def _execute_case(config: CampaignConfig, case_id: int) -> TrialRecord:
    case = _build_case(config, case_id)
    # Every attempt on the case shares its modulus, and so its order function;
    # in perfect-square mode `sample_base` draws only squares b*b.
    order = order_function(case.semiprime, squares=config.base_mode == "perfect_square")
    record = run_trial(case, config.strategy, config.bound, order)
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
        retry_case = TrialCase(case.case_id, case.semiprime, a_next, case.base_mode, case.seed)
        if run_trial(retry_case, config.strategy, config.bound, order).status == "success":
            resolved = True
            break
    # The first attempt's record, with the case's attempts_used and resolved.
    return tuple.__new__(
        TrialRecord, record[:_ATTEMPTS_USED_INDEX] + (attempts_used, resolved, record.error)
    )


Block = tuple[bytes, CampaignStats]


def _run_block(config: CampaignConfig, lo: int) -> Block:
    """The block of cases from lo as results-file bytes, and its stats, made here."""
    hi = min(lo + _BLOCK_SIZE, config.trials)
    records = [_execute_case(config, cid) for cid in range(lo, hi)]
    # Folded and encoded in loops of their own, which run faster than one
    # loop that interleaves them with the cases. Not by compute_metrics: the
    # benchmark's tracer takes its calls to lie outside any case, and a call
    # per block would restart the case count of a traced serial run.
    tally = RecordTally()
    tally.add(records)
    lines = [record_json_line(record) for record in records]
    lines.append("")
    return "\n".join(lines).encode(), tally.stats()


class CampaignResult(NamedTuple):
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

    Blocks of `_BLOCK_SIZE` cases run in W = min(workers, blocks, usable
    CPUs) processes: this one runs blocks 0, W, 2W, ... and each of W - 1
    helper processes sends its own stride of blocks through
    `fanout.fan_out`. The bytes and stats do not depend on W.
    """
    config.validate()
    starts = range(0, config.trials, _BLOCK_SIZE)
    processes = min(config.workers, len(starts), _usable_cpus())
    run = partial(_run_block, config)
    if processes < 2:
        # No helper: a one-process campaign leaves allz.fanout unloaded.
        yield from map(run, starts)
        return
    from .fanout import fan_out

    yield from fan_out(
        map(run, starts[::processes]),
        [(map, run, starts[k::processes]) for k in range(1, processes)],
        lambda i: f"case {starts[i]}" if i < len(starts) else "its end",
    )


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run `config.trials` independent seeded trials, in parallel if asked.

    Records come back in case_id order no matter how workers schedule the
    blocks, and rerunning the same config reproduces them exactly. Each
    block's bytes are decoded as `allz report` decodes a chunk.
    """
    from .fanout import decode_chunk

    records: list[TrialRecord] = []
    stats = CampaignStats()
    for chunk, block_stats in campaign_blocks(config):
        records.extend(decode_chunk(chunk))
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
    from fractions import Fraction

    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)
