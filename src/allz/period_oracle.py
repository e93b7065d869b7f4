"""Exact multiplicative-order computation.

This is the classical stand-in for the quantum period-finding stage: given
a base a and modulus n with gcd(a, n) = 1 it returns the least r >= 1 with
a**r = 1 (mod n), together with the complete factorization of r. The
oracle may factor n internally (it plays the role of an idealized quantum
subroutine); callers downstream only ever see (n, a, r).

Every order is reduced in one place, `order_mod_primes`: per modulus it
divides the primes of a factored annihilating exponent out of that
exponent while the power still collapses to 1, and it merges the orders
mod pairwise coprime moduli by lcm (CRT). `multiplicative_order` hands it
n with the caller's exponent hint, or else each prime power p**e of n with
the factored phi(p**e). The campaign, which knows n = p*q, hands it p and
q with the factored p - 1 and q - 1 once n is longer than one CPython
digit. `lcm_of_orders` is the CRT merge on two finished orders.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .numtheory import Factorization, factorize, is_probable_prime

#: Largest modulus order_brute_force accepts; successive multiplication
#: beyond this is pathologically slow.
BRUTE_FORCE_LIMIT = 10**6


class PeriodRecord(NamedTuple("PeriodRecord", (("order", int), ("factors", Factorization)))):
    """The multiplicative order r together with its complete factorization.

    A named tuple that checks its values however it is built: directly,
    by `_make` or by `_replace`, which builds through `_make`.
    """

    __slots__ = ()

    def __new__(cls, order: int, factors: Factorization) -> "PeriodRecord":
        if order < 1:
            raise ValueError("order must be >= 1")
        if factors.value != order:
            raise ValueError("factorization does not reconstruct the order")
        return tuple.__new__(cls, (order, factors))

    @classmethod
    def _make(cls, iterable: Iterable) -> "PeriodRecord":
        return cls(*iterable)


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


def multiplicative_order(
    a: int, n: int, exponent_hint: Factorization | None = None
) -> PeriodRecord:
    """Least r >= 1 with a**r = 1 (mod n), with r fully factored.

    `order_mod_primes` reduces it mod n from the factored `exponent_hint`,
    a universal exponent mod n, or without one mod each prime power p**e
    of n from the factored phi(p**e). The hint lets a caller that already
    knows the factorization of n skip refactoring it.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if not 1 <= a < n:
        raise ValueError(f"base must satisfy 1 <= a < n, got a={a}, n={n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"base {a} shares a factor with modulus {n}")
    if exponent_hint is not None:
        return order_mod_primes(a, ((n, exponent_hint),))
    return order_mod_primes(
        a, ((p**e, factorize(p ** (e - 1) * (p - 1))) for p, e in factorize(n))
    )


def order_mod_primes(a: int, parts: Iterable[tuple[int, Factorization]]) -> PeriodRecord:
    """The factored order of a modulo the product of pairwise coprime moduli.

    `parts` holds each modulus m with a factored exponent that annihilates
    every unit mod m: p - 1 for a prime, phi(p**e) for a prime power, or a
    known universal exponent of m itself. Per modulus, a mod m must be
    nonzero and annihilated by the exponent; each prime of the exponent is
    then divided out while the power still collapses to 1, which leaves the
    order mod m. By the CRT the order mod the product is the lcm of these
    orders, so each prime of the order keeps its largest valuation over the
    parts. The reduced entries of every part go into one list. While at
    most one part has an order above 1, that list is already the order's
    factorization, so a single part needs no merge, sort or lcm; otherwise
    the list is merged once, at the end. One factorization and one record
    are built, both validated.
    """
    order, entries, merged = 1, [], False
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
                entries.append((z, mult))
        if order == 1:  # the lcm is r, and the entries so far are r's own
            order = r
        else:
            order, merged = math.lcm(order, r), True
    return PeriodRecord(
        order=order, factors=Factorization(_lcm_entries(entries) if merged else tuple(entries))
    )


def lcm_of_orders(first: PeriodRecord, second: PeriodRecord) -> PeriodRecord:
    """The lcm of two factored orders, fully factored.

    With first and second the orders of a modulo distinct primes p and q,
    this is the order of a modulo p*q. Each prime keeps its larger
    multiplicity.
    """
    return PeriodRecord(
        order=math.lcm(first.order, second.order),
        factors=Factorization(_lcm_entries(first.factors.entries + second.factors.entries)),
    )


def _lcm_entries(entries: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The factorization entries of the lcm of factored numbers, from all
    their (prime, multiplicity) entries: sorted, each prime's entries come
    in rising multiplicity, so the dict keeps its largest."""
    return tuple(dict(sorted(entries)).items())


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
