"""Exact integer arithmetic primitives.

Everything here is deterministic and exact: primality (deterministic
Miller-Rabin below 2**64), perfect-square roots, and complete and bounded
factorization of small-to-medium integers (trial division plus Brent's
cycle-finding variant of the rho method). Between 10**4 and 10**6,
primality and factorization read a table of least odd prime factors
instead, built on first need.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, compress, count


def _sieve(limit: int) -> bytearray:
    """Sieve of Eratosthenes: entry i is 1 exactly when i <= limit is prime."""
    table = bytearray([1]) * (limit + 1)
    table[0] = table[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if table[i]:
            table[i * i :: i] = bytearray(len(table[i * i :: i]))
    return table


_TRIAL_DIVISION_LIMIT = 10_000
_PRIME_TABLE = _sieve(_TRIAL_DIVISION_LIMIT)
_SMALL_PRIMES: tuple[int, ...] = tuple(compress(range(_TRIAL_DIVISION_LIMIT + 1), _PRIME_TABLE))

# x in [_TRIAL_DIVISION_LIMIT, _FACTOR_TABLE_LIMIT) is decided and factored
# from `_odd_factor_table`. The range holds p - 1 for every prime of at most
# 6 digits, as a campaign draws; a table to 10**7 would take 4.8 MiB.
_FACTOR_TABLE_LIMIT = 10**6

#: Exclusive upper end of the range is_probable_prime decides.
PRIMALITY_LIMIT = 1 << 64

# Miller-Rabin with the 12 primes up to 37 as witnesses is deterministic for
# every x < 2**64 (Sorenson and Webster, Math. Comp. 2017, prove it below
# 3.18 * 10**23); trial division before it uses the same primes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Sets a slot of an immutable instance from its own __init__.
_setattr = object.__setattr__


class Factorization:
    """A complete prime factorization as (prime, multiplicity) pairs.

    Entries are strictly ascending in the prime and every multiplicity is
    positive; the empty factorization represents 1. `value`, the integer
    the entries reconstruct, is computed once in the validating pass.
    Immutable; iterates its entries, and two factorizations are equal (and
    hash equal) exactly when their entries are.
    """

    __slots__ = ("entries", "value")

    def __init__(self, entries: tuple[tuple[int, int], ...]) -> None:
        last = 1
        out = 1
        for prime, mult in entries:
            if prime <= last:
                raise ValueError("factor entries must be strictly ascending primes")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            last = prime
            out *= prime**mult
        _setattr(self, "entries", entries)
        _setattr(self, "value", out)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Factorization is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Factorization is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Factorization, (self.entries,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Factorization:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Factorization(entries={self.entries!r})"

    @property
    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(prime for prime, _ in self.entries)

    def __iter__(self):
        return iter(self.entries)


@lru_cache(maxsize=None)
def _odd_factor_table() -> bytearray:
    """Entry x >> 1 for odd x below 10**6: 0 when x is prime (or 1), else the
    `_SMALL_PRIMES` index of x's least prime factor.

    Each odd prime p below 1000 writes its index over the odd multiples of
    p from p * p on, the largest p first, so each entry ends with its least
    prime factor; a composite below 10**6 has one below 1000. 0.48 MiB,
    built in about 0.7 ms on first need, so importing the package builds none.
    The cache hands every caller the same table, so callers only read it.
    """
    size = _FACTOR_TABLE_LIMIT // 2
    table = bytearray(size)
    # From the largest prime below 1000 down to 3 (index 0 is 2).
    for index in range(bisect_left(_SMALL_PRIMES, math.isqrt(_FACTOR_TABLE_LIMIT)) - 1, 0, -1):
        p = _SMALL_PRIMES[index]
        start = p * p >> 1
        table[start::p] = bytes((index,)) * len(range(start, size, p))
    return table


# Maps an odd factor table entry to 1 when it marks a prime, else to 0.
_PRIME_ENTRY_FLAGS = bytes((1,)) + bytes(255)


def _prime_flags(lo: int, hi: int) -> bytearray:
    """A new sieve of [lo, hi): entry i is 1 exactly when lo + i is prime.

    For hi <= 10**4 it is a slice of the trial-division sieve. Up to 10**6
    the odd entries are read off the odd factor table and the even ones are
    0, which is exact for lo >= 3. hi > 10**6, beyond both tables, raises
    `ValueError`.
    """
    if hi <= _TRIAL_DIVISION_LIMIT:
        return _PRIME_TABLE[lo:hi]
    if hi > _FACTOR_TABLE_LIMIT:
        raise ValueError(f"no prime sieve of [{lo}, {hi}): the tables stop at 10**6")
    flags = bytearray(hi - lo)
    odd = lo | 1
    entries = _odd_factor_table()[odd >> 1 : (hi + 1) >> 1]
    flags[odd - lo :: 2] = entries.translate(_PRIME_ENTRY_FLAGS)
    return flags


def is_probable_prime(x: int) -> bool:
    """Deterministic primality test, correct for every x below 2**64.

    Below 10**4 the answer is a lookup in the trial-division sieve, and
    below 10**6 a parity test and one lookup in the odd factor table, with
    no division. A larger x is first tried by the primes up to 37, then
    goes through Miller-Rabin with those 12 primes as witnesses, the one
    set that is deterministic below 2**64 (see above). Despite the
    traditional name there is nothing probabilistic in this range.
    """
    if x < _TRIAL_DIVISION_LIMIT:
        return x >= 2 and _PRIME_TABLE[x] == 1
    if x < _FACTOR_TABLE_LIMIT:
        return x & 1 == 1 and _odd_factor_table()[x >> 1] == 0
    for p in _MR_WITNESSES:
        if x % p == 0:
            return False
    if x >= PRIMALITY_LIMIT:
        raise ValueError("deterministic witnesses only cover x < 2**64")
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        t = pow(a, d, x)
        if t == 1 or t == x - 1:
            continue
        for _ in range(s - 1):
            t = t * t % x
            if t == x - 1:
                break
        else:
            return False
    return True


def perfect_square_root(x: int) -> int | None:
    """The integer b with b*b == x, or None when x is not a perfect square."""
    if x < 0:
        raise ValueError("argument must be non-negative")
    b = math.isqrt(x)
    return b if b * b == x else None


def _brent_rho(n: int) -> int:
    """A non-trivial factor of odd composite n with no factor <= 10**4.

    Brent's variant of Pollard's rho with a fixed, deterministic parameter
    schedule (x0 = 2, polynomial offsets c = 1, 2, ...), so repeated runs
    factor identically.
    """
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho parameter schedule exhausted for {n}")


def _factor_into(x: int, out: dict[int, int]) -> None:
    """Accumulate the factorization of x (no factor <= 10**4) into out."""
    if x == 1:
        return
    if is_probable_prime(x):
        out[x] = out.get(x, 0) + 1
        return
    d = _brent_rho(x)
    _factor_into(d, out)
    _factor_into(x // d, out)


def factorize(x: int) -> Factorization:
    """Complete prime factorization of x >= 1; factorize(1) is empty.

    From 10**4 up to 10**6, the 2s are stripped and the odd part is walked
    down the odd factor table, one least prime factor at a time. Otherwise,
    trial division by all primes up to 10**4, then Brent rho on whatever
    composite cofactor remains.
    """
    if x < 1:
        raise ValueError(f"cannot factor {x}; argument must be >= 1")
    if _TRIAL_DIVISION_LIMIT <= x < _FACTOR_TABLE_LIMIT:
        twos = (x & -x).bit_length() - 1
        entries = [(2, twos)] if twos else []
        rem = x >> twos
        table = _odd_factor_table()
        while rem > 1:
            index = table[rem >> 1]
            if not index:
                entries.append((rem, 1))
                break
            p = _SMALL_PRIMES[index]
            rem //= p
            mult = 1
            while rem % p == 0:
                rem //= p
                mult += 1
            entries.append((p, mult))
        return Factorization(tuple(entries))
    out: dict[int, int] = {}
    rem = x
    for p in _SMALL_PRIMES:
        if p * p > rem:
            break
        if rem % p == 0:
            e = 1
            rem //= p
            while rem % p == 0:
                e += 1
                rem //= p
            out[p] = e
    if rem > 1:
        if rem <= _TRIAL_DIVISION_LIMIT * _TRIAL_DIVISION_LIMIT or is_probable_prime(rem):
            # below the squared trial bound the cofactor is necessarily prime
            out[rem] = out.get(rem, 0) + 1
        else:
            _factor_into(rem, out)
    return Factorization(tuple(sorted(out.items())))


def distinct_primes_bounded(x: int, bound: int) -> list[int]:
    """All distinct primes p <= bound dividing x, by trial division alone.

    The walk runs over the primes up to 10**4 and then over the odd
    numbers beyond; an odd d > 10**4 that divides what is left is prime,
    since every smaller prime has been divided out by then. Each prime
    found is divided out, and the walk stops at the bound or once d*d
    exceeds what is left. That remainder is then 1, a prime, or has only
    prime factors beyond the bound; it is reported when it is within the
    bound. The cofactor is never factored, so this stays cheap even when
    x has huge prime factors beyond the bound.
    """
    if x < 1:
        raise ValueError(f"argument must be >= 1, got {x}")
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    out = []
    rem = x
    for d in chain(_SMALL_PRIMES, count(_TRIAL_DIVISION_LIMIT + 1, 2)):
        if d > bound or d * d > rem:
            break
        if rem % d == 0:
            out.append(d)
            rem //= d
            while rem % d == 0:
                rem //= d
    if 1 < rem <= bound:
        out.append(rem)
    return out
