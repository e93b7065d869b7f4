"""Classical post-processing strategies that turn a known order into a factor.

Three variants share one attempt vocabulary:

* `traditional_shor` needs an even order r and works from a**(r/2) +- 1.
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
from dataclasses import dataclass
from typing import Literal

from .numtheory import distinct_primes_bounded, perfect_square_root
from .period_oracle import PeriodRecord

AttemptKind = Literal["gcd_shortcut", "divisor", "fallback"]
AttemptOutcome = Literal["factor_found", "trivial_one", "trivial_n"]

FACTOR_FOUND: AttemptOutcome = "factor_found"
TRIVIAL_ONE: AttemptOutcome = "trivial_one"
TRIVIAL_N: AttemptOutcome = "trivial_n"


@dataclass(frozen=True)
class AttemptResult:
    """One gcd attempt: which route, which divisor, and what came out."""

    kind: AttemptKind
    divisor_z: int | None
    gcd_value: int
    outcome: AttemptOutcome


@dataclass(frozen=True)
class FactorOutcome:
    """Result of running one strategy on (n, a, r).

    `attempts` logs everything tried in order; on success it ends with the
    witnessing attempt, on failure every entry is trivial. `gcd_count`
    counts every gcd evaluated, including the initial gcd(a, n) shortcut
    probe even when that probe found nothing and was therefore not logged.
    """

    status: Literal["success", "failure"]
    factor: int | None
    witness: AttemptResult | None
    attempts: tuple[AttemptResult, ...]
    gcd_count: int

    @property
    def succeeded_z(self) -> int | str | None:
        """The witnessing divisor z, "fallback" or "shortcut"; None on failure."""
        if self.witness is None:
            return None
        if self.witness.kind == "divisor":
            return self.witness.divisor_z
        return "fallback" if self.witness.kind == "fallback" else "shortcut"

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


def _validate_instance(n: int, a: int) -> None:
    if n < 4:
        raise ValueError(f"modulus must be a composite >= 4, got {n}")
    if not 2 <= a < n:
        raise ValueError(f"base must satisfy 2 <= a < n, got a={a}, n={n}")


def _shortcut(n: int, a: int) -> AttemptResult | None:
    """The gcd(a, n) probe; an AttemptResult only when it found a factor."""
    g = math.gcd(a, n)
    if g > 1:
        return _classify("gcd_shortcut", None, g, n)
    return None


def _success(attempts: list[AttemptResult], witness: AttemptResult, gcd_count: int) -> FactorOutcome:
    return FactorOutcome(
        status="success",
        factor=witness.gcd_value,
        witness=witness,
        attempts=tuple(attempts),
        gcd_count=gcd_count,
    )


def _failure(attempts: list[AttemptResult], gcd_count: int) -> FactorOutcome:
    return FactorOutcome(
        status="failure", factor=None, witness=None, attempts=tuple(attempts), gcd_count=gcd_count
    )


def _require_period(period: PeriodRecord | None) -> PeriodRecord:
    if period is None:
        raise ValueError("a period record is required when gcd(a, n) == 1")
    return period


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
    _validate_instance(n, a)
    sc = _shortcut(n, a)
    if sc is not None:
        return _success([sc], sc, 1)
    record = _require_period(period)
    r = record.order
    if bound is not None:
        primes: tuple[int, ...] | list[int] = distinct_primes_bounded(r, bound)
    else:
        primes = record.distinct_primes()
    gcd_count = 1
    attempts: list[AttemptResult] = []
    for z in primes:
        att = attempt_divisor(n, a, r, z)
        attempts.append(att)
        gcd_count += 1
        if att.outcome == FACTOR_FOUND:
            return _success(attempts, att, gcd_count)
    b = perfect_square_root(a)
    if b is not None:
        att = fallback_square(n, b, r)
        attempts.append(att)
        gcd_count += 1
        if att.outcome == FACTOR_FOUND:
            return _success(attempts, att, gcd_count)
    return _failure(attempts, gcd_count)


def traditional_shor(n: int, a: int, period: PeriodRecord | None) -> FactorOutcome:
    """Baseline post-processing: even r, factors from gcd(a**(r/2) -+ 1, n).

    Fails when r is odd or a**(r/2) = -1 (mod n). Both the minus and the
    plus gcd are tested, which can only strengthen this baseline.
    """
    _validate_instance(n, a)
    sc = _shortcut(n, a)
    if sc is not None:
        return _success([sc], sc, 1)
    r = _require_period(period).order
    if r % 2:
        return _failure([], 1)
    t = pow(a, r // 2, n)
    if t == n - 1:
        return _failure([], 1)
    attempts: list[AttemptResult] = []
    minus = _classify("divisor", 2, math.gcd((t + n - 1) % n, n), n)
    attempts.append(minus)
    if minus.outcome == FACTOR_FOUND:
        return _success(attempts, minus, 2)
    plus = _classify("divisor", 2, math.gcd((t + 1) % n, n), n)
    attempts.append(plus)
    if plus.outcome == FACTOR_FOUND:
        return _success(attempts, plus, 3)
    return _failure(attempts, 3)


def dong2023(n: int, a: int, period: PeriodRecord | None) -> FactorOutcome:
    """Reconstructed 2023 variant: traditional, then divisor 3, then fallback."""
    base = traditional_shor(n, a, period)
    if base.status == "success":
        return base
    r = _require_period(period).order
    attempts = list(base.attempts)
    gcd_count = base.gcd_count
    if r % 3 == 0:
        att = attempt_divisor(n, a, r, 3)
        attempts.append(att)
        gcd_count += 1
        if att.outcome == FACTOR_FOUND:
            return _success(attempts, att, gcd_count)
    b = perfect_square_root(a)
    if b is not None:
        att = fallback_square(n, b, r)
        attempts.append(att)
        gcd_count += 1
        if att.outcome == FACTOR_FOUND:
            return _success(attempts, att, gcd_count)
    return _failure(attempts, gcd_count)
