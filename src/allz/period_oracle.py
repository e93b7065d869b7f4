"""Exact multiplicative-order computation.

This is the classical stand-in for the quantum period-finding stage: given
a base a and modulus n with gcd(a, n) = 1 it returns the least r >= 1 with
a**r = 1 (mod n), together with the complete factorization of r. The
oracle may factor n internally (it plays the role of an idealized quantum
subroutine); callers downstream only ever see (n, a, r).

The campaign, which knows n = p*q, gets its orders prime by prime once
n is longer than one CPython digit: `order_mod_primes` reduces the order
mod p from the factored p - 1, the same for q, and merges the two in the
same pass, since by the CRT the order mod p*q is their lcm.
`lcm_of_orders` is that merge on two finished orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .numtheory import Factorization, factorize, is_probable_prime

#: Largest modulus order_brute_force accepts; successive multiplication
#: beyond this is pathologically slow.
BRUTE_FORCE_LIMIT = 10**6


@dataclass(frozen=True)
class PeriodRecord:
    """The multiplicative order r together with its complete factorization."""

    order: int
    factors: Factorization

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.factors.value != self.order:
            raise ValueError("factorization does not reconstruct the order")


def carmichael_exponent(p: int, q: int) -> int:
    """lcm(p - 1, q - 1) for distinct primes p, q.

    Every unit a modulo p*q satisfies a**lcm(p-1, q-1) = 1, so the value
    is a universal exponent that the order of any base divides.
    """
    if p == q:
        raise ValueError("primes must be distinct")
    for v in (p, q):
        if not is_probable_prime(v):
            raise ValueError(f"{v} is not prime")
    return math.lcm(p - 1, q - 1)


def _carmichael_of(factors: Factorization) -> int:
    """The Carmichael function from a prime factorization."""
    lam = 1
    for prime, mult in factors:
        if prime == 2:
            block = 1 if mult == 1 else (2 if mult == 2 else 1 << (mult - 2))
        else:
            block = prime ** (mult - 1) * (prime - 1)
        lam = math.lcm(lam, block)
    return lam


def multiplicative_order(
    a: int, n: int, exponent_hint: Factorization | None = None
) -> PeriodRecord:
    """Least r >= 1 with a**r = 1 (mod n), with r fully factored.

    Starts from a universal exponent E (the factored `exponent_hint` when
    provided, otherwise the Carmichael function of n computed by factoring
    n) and divides out each prime of E while the power still collapses to
    1. The hint lets a caller that already knows the factorization of n
    skip refactoring it.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if not 1 <= a < n:
        raise ValueError(f"base must satisfy 1 <= a < n, got a={a}, n={n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"base {a} shares a factor with modulus {n}")
    if exponent_hint is None:
        exponent_hint = factorize(_carmichael_of(factorize(n)))
    exponent = exponent_hint.value
    if pow(a, exponent, n) != 1:
        raise ValueError("exponent hint does not annihilate the base")
    r = exponent
    remaining: list[tuple[int, int]] = []
    for z, mult in exponent_hint.entries:
        while mult and pow(a, r // z, n) == 1:
            r //= z
            mult -= 1
        if mult:
            remaining.append((z, mult))
    return PeriodRecord(order=r, factors=Factorization(tuple(remaining)))


def order_mod_primes(a: int, parts: Iterable[tuple[int, Factorization]]) -> PeriodRecord:
    """The factored order of a modulo the product of distinct primes.

    `parts` holds each prime p with the factored p - 1. Per prime, the
    order of a mod p is reduced from that exponent as `multiplicative_order`
    does, with its checks and messages. By the CRT the order mod the
    product is the lcm of these orders, so each prime of the order keeps
    its largest valuation over the parts. One factorization and one record
    are built, both validated.
    """
    order = 1
    valuations: dict[int, int] = {}
    for p, hint in parts:
        b = a % p
        if b == 0:
            raise ValueError(f"base must satisfy 1 <= a < n, got a={b}, n={p}")
        r = hint.value
        if pow(b, r, p) != 1:
            raise ValueError("exponent hint does not annihilate the base")
        for z, mult in hint.entries:
            while mult and pow(b, r // z, p) == 1:
                r //= z
                mult -= 1
            if mult > valuations.get(z, 0):
                valuations[z] = mult
        order = math.lcm(order, r)
    return PeriodRecord(order=order, factors=Factorization(tuple(sorted(valuations.items()))))


def lcm_of_orders(first: PeriodRecord, second: PeriodRecord) -> PeriodRecord:
    """The lcm of two factored orders, fully factored.

    With first and second the orders of a modulo distinct primes p and q,
    this is the order of a modulo p*q. Each prime keeps its larger
    multiplicity.
    """
    merged = dict(first.factors.entries)
    for prime, mult in second.factors.entries:
        if mult > merged.get(prime, 0):
            merged[prime] = mult
    return PeriodRecord(
        order=math.lcm(first.order, second.order),
        factors=Factorization(tuple(sorted(merged.items()))),
    )


def order_brute_force(a: int, n: int) -> int:
    """Order of a mod n by successive multiplication; independent check path.

    Guarded to n <= 10**6 because the walk takes order-of-r steps.
    """
    if n < 2 or n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"modulus must be in [2, {BRUTE_FORCE_LIMIT}], got {n}")
    if not 1 <= a < n:
        raise ValueError(f"base must satisfy 1 <= a < n, got a={a}, n={n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"base {a} shares a factor with modulus {n}")
    r = 1
    cur = a % n
    while cur != 1:
        cur = cur * a % n
        r += 1
    return r
