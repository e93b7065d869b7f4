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
each prime power p**e of n with the factored phi(p**e). The campaign,
which knows n = p*q, hands it p and q with the factored p - 1 and q - 1.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .numtheory import Factorization, factorize, is_probable_prime


class PeriodRecord(NamedTuple):
    """The multiplicative order r together with its complete factorization.

    `order_mod_primes` builds it from one validated factorization whose
    value is the order. A caller's record is checked where it enters a
    strategy: its order must be at least 1 and its factorization must
    reconstruct it.
    """

    order: int
    factors: Factorization


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


def multiplicative_order(a: int, n: int) -> PeriodRecord:
    """Least r >= 1 with a**r = 1 (mod n), with r fully factored.

    `order_mod_primes` reduces it mod each prime power p**e of n from the
    factored phi(p**e).
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if not 1 <= a < n:
        raise ValueError(f"base must satisfy 1 <= a < n, got a={a}, n={n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"base {a} shares a factor with modulus {n}")
    return order_mod_primes(
        a, ((p**e, factorize(p ** (e - 1) * (p - 1))) for p, e in factorize(n))
    )


def order_mod_primes(a: int, parts: Iterable[tuple[int, Factorization]]) -> PeriodRecord:
    """The factored order of a modulo the product of pairwise coprime moduli.

    `parts` holds each modulus m with a factored exponent that annihilates
    every unit mod m: p - 1 for a prime, phi(p**e) for a prime power, or a
    known universal exponent of m itself. Per modulus, a mod m must be
    nonzero and annihilated by the exponent; each prime of the exponent is
    divided out while the power still collapses to 1, which leaves the
    order mod m. A division that succeeds shows that a divisor of the
    exponent annihilates a mod m, and so the exponent does too; only a part
    where none succeeds pays a full power to check the exponent, and a
    failed check raises `ValueError` on that part. By the CRT the order
    mod the product is the lcm of these orders, so each prime of the order
    keeps its largest valuation over the parts: the reduced entries of
    every part go into one list, merged once at the end. The one
    factorization built from them is validated, and its value is the
    order, so the record is built from it by position.
    """
    entries = []
    for m, hint in parts:
        b = a % m
        if b == 0:
            raise ValueError(f"base must satisfy 1 <= a < n, got a={b}, n={m}")
        r = hint.value
        for z, mult in hint.entries:
            while mult and pow(b, r // z, m) == 1:
                r //= z
                mult -= 1
            if mult:
                entries.append((z, mult))
        # Unless r is still the hint, a reduction showed b**r = 1 with r | hint.
        if r == hint.value and pow(b, r, m) != 1:
            raise ValueError("exponent hint does not annihilate the base")
    factors = Factorization(_lcm_entries(entries))
    return tuple.__new__(PeriodRecord, (factors.value, factors))


def _lcm_entries(entries: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The factorization entries of the lcm of factored numbers, from all
    their (prime, multiplicity) entries: sorted, each prime's entries come
    in rising multiplicity, so the dict keeps its largest."""
    return tuple(dict(sorted(entries)).items())
