"""Classical post-processing strategies that turn a known order into a factor.

Three variants share one attempt vocabulary:

* `traditional_shor` needs an even order r with a**(r/2) != -1 (mod n)
  and takes gcd(a**(r/2) - 1, n).
* `dong2023` additionally tries the divisor 3 and a perfect-square
  fallback (a reconstruction of the 2023 improved variant from its
  one-line description; treat its label accordingly in reports).
* `all_z` tries every distinct prime divisor z of r (optionally only
  those below a trial-division bound) and then the square fallback.

Every gcd of the form gcd(a**k - 1, n) is evaluated as
gcd((a**k mod n) + n - 1 mod n, n), which is equal by gcd periodicity and
never materializes a large power.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal, NamedTuple

from .numtheory import distinct_primes_bounded, perfect_square_root
from .period_oracle import PeriodRecord

AttemptKind = Literal["gcd_shortcut", "divisor", "fallback"]
AttemptOutcome = Literal["factor_found", "trivial_one", "trivial_n"]

FACTOR_FOUND: AttemptOutcome = "factor_found"
TRIVIAL_ONE: AttemptOutcome = "trivial_one"
TRIVIAL_N: AttemptOutcome = "trivial_n"


class AttemptResult(NamedTuple):
    """One gcd attempt: which route, which divisor, and what came out."""

    kind: AttemptKind
    divisor_z: int | None
    gcd_value: int
    outcome: AttemptOutcome


class FactorOutcome(NamedTuple):
    """Result of running one strategy on (n, a, r): its attempt log.

    `attempts` logs everything tried in order; on success it ends with the
    witnessing attempt, on failure every entry is trivial. Everything else
    is read off the log.
    """

    attempts: tuple[AttemptResult, ...]

    @property
    def witness(self) -> AttemptResult | None:
        """The last attempt when it found a factor; None on failure."""
        if self.attempts and self.attempts[-1].outcome == FACTOR_FOUND:
            return self.attempts[-1]
        return None

    @property
    def status(self) -> Literal["success", "failure"]:
        return "failure" if self.witness is None else "success"

    @property
    def factor(self) -> int | None:
        witness = self.witness
        return None if witness is None else witness.gcd_value

    @property
    def gcd_count(self) -> int:
        """Every gcd evaluated. The gcd(a, n) probe always runs but is
        logged only when it found a factor."""
        return 1 + sum(att.kind != "gcd_shortcut" for att in self.attempts)

    @property
    def succeeded_z(self) -> int | str | None:
        """The witnessing divisor z, "fallback" or "shortcut"; None on failure."""
        witness = self.witness
        if witness is None:
            return None
        if witness.kind == "divisor":
            return witness.divisor_z
        return "fallback" if witness.kind == "fallback" else "shortcut"

    @property
    def failed_z(self) -> tuple[int, ...]:
        """Divisors z whose attempts were trivial, once each, in attempt order."""
        return tuple(
            dict.fromkeys(
                att.divisor_z
                for att in self.attempts
                if att.kind == "divisor" and att.outcome != FACTOR_FOUND
            )
        )

    @property
    def fallback_tried(self) -> bool:
        return any(att.kind == "fallback" for att in self.attempts)


def _classify(kind: AttemptKind, z: int | None, g: int, n: int) -> AttemptResult:
    if g == n:
        outcome = TRIVIAL_N
    elif g <= 1:
        outcome = TRIVIAL_ONE
    else:
        outcome = FACTOR_FOUND
    return AttemptResult(kind=kind, divisor_z=z, gcd_value=g, outcome=outcome)


def _power_minus_one_gcd(n: int, base: int, exponent: int) -> int:
    t = pow(base, exponent, n)
    return math.gcd((t + n - 1) % n, n)


def attempt_divisor(n: int, a: int, r: int, z: int) -> AttemptResult:
    """Try the divisor z of r: gcd(a**(r/z) - 1, n), classified."""
    if r % z:
        raise ValueError(f"{z} does not divide the order {r}")
    g = _power_minus_one_gcd(n, a, r // z)
    return _classify("divisor", z, g, n)


def fallback_square(n: int, b: int, r: int) -> AttemptResult:
    """Square-base fallback: gcd(b**r - 1, n) for a = b*b, classified."""
    if math.gcd(b, n) != 1:
        raise ValueError(f"square root {b} shares a factor with {n}")
    if r < 1:
        raise ValueError("order must be >= 1")
    g = _power_minus_one_gcd(n, b, r)
    return _classify("fallback", None, g, n)


def _shortcut_or_period(
    n: int, a: int, period: PeriodRecord | None
) -> tuple[FactorOutcome, None] | tuple[None, PeriodRecord]:
    """Validate (n, a), then probe gcd(a, n).

    Returns the shortcut outcome when the probe found a factor, otherwise
    None and the period record, which is then required.
    """
    if n < 4:
        raise ValueError(f"modulus must be a composite >= 4, got {n}")
    if not 2 <= a < n:
        raise ValueError(f"base must satisfy 2 <= a < n, got a={a}, n={n}")
    g = math.gcd(a, n)
    if g > 1:
        return FactorOutcome((_classify("gcd_shortcut", None, g, n),)), None
    if period is None:
        raise ValueError("a period record is required when gcd(a, n) == 1")
    return None, period


def _divisors_then_square(n: int, a: int, r: int, divisors: Iterable[int]) -> FactorOutcome:
    """Try each divisor z of r in turn, stopping at the first factor; if
    none is found and a is a perfect square b*b, try gcd(b**r - 1, n) last."""
    attempts: list[AttemptResult] = []
    for z in divisors:
        attempts.append(attempt_divisor(n, a, r, z))
        if attempts[-1].outcome == FACTOR_FOUND:
            return FactorOutcome(tuple(attempts))
    b = perfect_square_root(a)
    if b is not None:
        attempts.append(fallback_square(n, b, r))
    return FactorOutcome(tuple(attempts))


def all_z(
    n: int, a: int, period: PeriodRecord | None, bound: int | None = None
) -> FactorOutcome:
    """Generalized divisor decomposition of the order.

    After the gcd(a, n) shortcut, walks the distinct prime divisors z of r
    in ascending order (only those found by trial division up to `bound`
    when a bound is given), returning on the first non-trivial
    gcd(a**(r/z) - 1, n). If every divisor is trivial and a is a perfect
    square b*b, tries gcd(b**r - 1, n) last. Failure is a value, never an
    exception.
    """
    shortcut, period = _shortcut_or_period(n, a, period)
    if shortcut is not None:
        return shortcut
    r = period.order
    primes = period.factors.distinct_primes if bound is None else distinct_primes_bounded(r, bound)
    return _divisors_then_square(n, a, r, primes)


def traditional_shor(n: int, a: int, period: PeriodRecord | None) -> FactorOutcome:
    """Baseline post-processing: even r, a factor from gcd(a**(r/2) - 1, n).

    Fails when r is odd or a**(r/2) = -1 (mod n). Otherwise t = a**(r/2)
    is a square root of 1 other than +-1, so n divides (t - 1)(t + 1) but
    neither factor, and gcd(t - 1, n) is always proper: the plus gcd
    gcd(t + 1, n) is never needed.
    """
    shortcut, period = _shortcut_or_period(n, a, period)
    if shortcut is not None:
        return shortcut
    r = period.order
    if r % 2 or (t := pow(a, r // 2, n)) == n - 1:
        return FactorOutcome(())
    return FactorOutcome((_classify("divisor", 2, math.gcd(t - 1, n), n),))


def dong2023(n: int, a: int, period: PeriodRecord | None) -> FactorOutcome:
    """Reconstructed 2023 variant: traditional, then divisor 3, then fallback.

    A failed traditional run logs no attempt, so its log is not carried over.
    """
    base = traditional_shor(n, a, period)
    if base.status == "success":
        return base
    r = period.order
    return _divisors_then_square(n, a, r, (3,) if r % 3 == 0 else ())
