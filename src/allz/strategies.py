"""Classical post-processing strategies that turn a known order into a factor.

Three variants share one attempt vocabulary:

* `traditional_shor` needs an even order r with a**(r/2) != -1 (mod n)
  and takes gcd(a**(r/2) - 1, n).
* `dong2023` additionally tries the divisor 3 and a perfect-square
  fallback (a reconstruction of the 2023 improved variant from its
  one-line description; treat its label accordingly in reports).
* `all_z` tries every distinct prime divisor z of r (optionally only
  those up to a bound) and then the square fallback.

Every gcd of the form gcd(a**k - 1, n) is evaluated as
gcd((a**k mod n) - 1, n), which is equal by gcd periodicity and never
materializes a large power.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal, NamedTuple

from .numtheory import (
    perfect_square_root,
    # Unused here, but kept for perfbench's tracer: perfbench/child.py patches it on allz.strategies.
    distinct_primes_bounded,
)
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
    """Result of running one strategy on (n, a, r): its attempt log, summarised.

    `attempts` logs everything tried in order; on success it ends with the
    witnessing attempt, on failure every entry is trivial. The strategies
    build the other values by position, from what their walk already
    knows; a differential test holds each outcome to the summary that a
    reference walk of its own log gives.

    * `factor`: the witness's gcd; None on failure.
    * `succeeded_z`: the witnessing divisor z, "fallback" or "shortcut";
      None on failure.
    * `failed_z`: divisors z whose attempts were trivial, once each, in
      attempt order.
    * `fallback_tried`: whether the square fallback was attempted.
    * `gcd_count`: every gcd evaluated. The gcd(a, n) probe always runs
      but is logged only when it found a factor.
    """

    attempts: tuple[AttemptResult, ...]
    factor: int | None
    succeeded_z: int | str | None
    failed_z: tuple[int, ...]
    fallback_tried: bool
    gcd_count: int

    @property
    def witness(self) -> AttemptResult | None:
        """The last attempt when it found a factor; None on failure."""
        return None if self.factor is None else self.attempts[-1]

    @property
    def status(self) -> Literal["success", "failure"]:
        return "failure" if self.factor is None else "success"


# The one outcome with no attempt: a failure with only the gcd(a, n) probe.
_NO_ATTEMPT = tuple.__new__(FactorOutcome, ((), None, None, (), False, 1))


def _attempt(kind: AttemptKind, z: int | None, t: int, n: int) -> AttemptResult:
    """The attempt whose power a**k mod n is t: gcd(t - 1, n), classified.

    Every gcd attempt is built here, by position, past the named tuple's
    own constructor; the callers take the power, so a walk pays one call
    per attempt.
    """
    g = math.gcd(t - 1, n)
    outcome = TRIVIAL_N if g == n else TRIVIAL_ONE if g == 1 else FACTOR_FOUND
    return tuple.__new__(AttemptResult, (kind, z, g, outcome))


def _shortcut_or_period(
    n: int, a: int, period: PeriodRecord | None
) -> tuple[FactorOutcome, None] | tuple[None, PeriodRecord]:
    """Validate (n, a) and a given period record, then probe gcd(a, n).

    Every strategy takes its caller's period here, so this is where the
    record is checked: its order is at least 1 and its factorization
    reconstructs it. Returns the shortcut outcome when the probe found a
    factor, otherwise None and the period record, which is then required.
    """
    if n < 4:
        raise ValueError(f"modulus must be a composite >= 4, got {n}")
    if not 2 <= a < n:
        raise ValueError(f"base must satisfy 2 <= a < n, got a={a}, n={n}")
    if period is not None:
        if period.order < 1:
            raise ValueError("order must be >= 1")
        if period.factors.value != period.order:
            raise ValueError("factorization does not reconstruct the order")
    g = math.gcd(a, n)
    if g > 1:
        # 2 <= a < n, so 1 < g < n: the probe's gcd is always a factor.
        probe = tuple.__new__(AttemptResult, ("gcd_shortcut", None, g, FACTOR_FOUND))
        return tuple.__new__(FactorOutcome, ((probe,), g, "shortcut", (), False, 1)), None
    if period is None:
        raise ValueError("a period record is required when gcd(a, n) == 1")
    return None, period


def _divisors_then_square(
    n: int, a: int, r: int, entries: Iterable[tuple[int, int]], bound: int
) -> FactorOutcome:
    """Walk the ascending (prime, multiplicity) entries of r's factorization
    up to the prime `bound`, trying each prime z as a divisor and stopping
    at the first factor; if none is found and a is a perfect square b*b,
    try gcd(b**r - 1, n) last. Each z divides r, so no attempt checks it.

    The outcome is built by position: the primes are distinct, so every
    divisor tried before the witness failed once, and each attempt took
    one gcd beside the gcd(a, n) probe."""
    attempts: list[AttemptResult] = []
    failed: list[int] = []
    for z, _ in entries:
        if z > bound:
            break
        attempts.append(attempt := _attempt("divisor", z, pow(a, r // z, n), n))
        if attempt.outcome == FACTOR_FOUND:
            return tuple.__new__(
                FactorOutcome,
                (tuple(attempts), attempt.gcd_value, z, tuple(failed), False, len(attempts) + 1),
            )
        failed.append(z)
    factor = succeeded_z = None
    b = perfect_square_root(a)
    if b is not None:
        # b is a unit with a, and r >= 1, so gcd(b**r - 1, n) is a fair attempt.
        attempts.append(attempt := _attempt("fallback", None, pow(b, r, n), n))
        if attempt.outcome == FACTOR_FOUND:
            factor, succeeded_z = attempt.gcd_value, "fallback"
    return tuple.__new__(
        FactorOutcome,
        (tuple(attempts), factor, succeeded_z, tuple(failed), b is not None, len(attempts) + 1),
    )


def all_z(
    n: int, a: int, period: PeriodRecord | None, bound: int | None = None
) -> FactorOutcome:
    """Generalized divisor decomposition of the order.

    After the gcd(a, n) shortcut, walks the distinct prime divisors z of r
    in ascending order (only those up to `bound` when a bound is given,
    which is what trial division up to the bound would find, read off the
    period's factorization), returning on the first non-trivial
    gcd(a**(r/z) - 1, n). If every divisor is trivial and a is a perfect
    square b*b, tries gcd(b**r - 1, n) last. Failure is a value, never an
    exception.
    """
    shortcut, period = _shortcut_or_period(n, a, period)
    if shortcut is not None:
        return shortcut
    r = period.order
    if bound is None:
        bound = r  # every prime of r is at most r
    elif bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    return _divisors_then_square(n, a, r, period.factors.entries, bound)


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
        return _NO_ATTEMPT
    attempt = _attempt("divisor", 2, t, n)
    if attempt.outcome != FACTOR_FOUND:  # only when r is no exact order
        return tuple.__new__(FactorOutcome, ((attempt,), None, None, (2,), False, 2))
    return tuple.__new__(FactorOutcome, ((attempt,), attempt.gcd_value, 2, (), False, 2))


def dong2023(n: int, a: int, period: PeriodRecord | None) -> FactorOutcome:
    """Reconstructed 2023 variant: traditional, then divisor 3, then fallback.

    A failed traditional run logs no attempt, so its log is not carried over.
    """
    base = traditional_shor(n, a, period)
    if base.status == "success":
        return base
    threes = [entry for entry in period.factors.entries if entry[0] == 3]
    return _divisors_then_square(n, a, period.order, threes, 3)
