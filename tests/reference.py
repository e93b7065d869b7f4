"""Reference implementations the tests compare the package against.

No command runs these. Each is the plain form of something the package
does faster or by position: the attempt log's summary, the two single
attempts with their argument checks, and the order by successive
multiplication.
"""

import math

from allz.strategies import FACTOR_FOUND, AttemptResult, FactorOutcome, _attempt

#: Largest modulus order_brute_force accepts; successive multiplication
#: beyond this is pathologically slow.
BRUTE_FORCE_LIMIT = 10**6


def summarize(attempts: tuple[AttemptResult, ...]) -> FactorOutcome:
    """The outcome whose log is `attempts`, every other value read off the
    log in one pass, from the log alone."""
    failed: dict[int, None] = {}
    fallback_tried = False
    gcd_count = 1
    for kind, z, g, outcome in attempts:
        if kind != "gcd_shortcut":
            gcd_count += 1
            if kind == "fallback":
                fallback_tried = True
            elif kind == "divisor" and outcome != FACTOR_FOUND:
                failed[z] = None
    factor = succeeded_z = None
    if attempts and outcome == FACTOR_FOUND:  # the loop's last attempt is the witness
        factor = g
        succeeded_z = z if kind == "divisor" else "fallback" if kind == "fallback" else "shortcut"
    return FactorOutcome(attempts, factor, succeeded_z, tuple(failed), fallback_tried, gcd_count)


def attempt_divisor(n: int, a: int, r: int, z: int) -> AttemptResult:
    """Try the divisor z of r: gcd(a**(r/z) - 1, n), classified."""
    if r % z:
        raise ValueError(f"{z} does not divide the order {r}")
    return _attempt("divisor", z, pow(a, r // z, n), n)


def fallback_square(n: int, b: int, r: int) -> AttemptResult:
    """Square-base fallback: gcd(b**r - 1, n) for a = b*b, classified."""
    if math.gcd(b, n) != 1:
        raise ValueError(f"square root {b} shares a factor with {n}")
    if r < 1:
        raise ValueError("order must be >= 1")
    return _attempt("fallback", None, pow(b, r, n), n)


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
