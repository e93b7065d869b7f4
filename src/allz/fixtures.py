"""Reference failure cases replayed by the `verify-paper` subcommand.

Thirteen known complete-failure instances of the generalized divisor
method at 7 and 8 digits: five with randomly drawn bases and eight with
perfect-square bases. Each row pins the expected order, the primes whose
divisor attempts all come out trivial, and whether the square fallback
runs (it does exactly when the base is a perfect square).
"""

from __future__ import annotations

from typing import NamedTuple


class ReferenceFailureCase(NamedTuple):
    digits: int
    n: int
    a: int
    expected_r: int
    expected_fail_factors: tuple[int, ...]
    expects_fallback: bool


RANDOM_BASE_FAILURES: tuple[ReferenceFailureCase, ...] = (
    ReferenceFailureCase(7, 2540107, 1316667, 27, (3,), False),
    ReferenceFailureCase(7, 3622301, 3622300, 2, (2,), False),
    ReferenceFailureCase(7, 3825407, 3012304, 46, (2, 23), False),
    ReferenceFailureCase(7, 4436533, 1986154, 108, (2, 3), False),
    ReferenceFailureCase(8, 53948449, 25036489, 8, (2,), False),
)

PERFECT_SQUARE_FAILURES: tuple[ReferenceFailureCase, ...] = (
    ReferenceFailureCase(7, 1148743, 87025, 21, (3, 7), True),
    ReferenceFailureCase(7, 1279903, 49729, 39, (3, 13), True),
    ReferenceFailureCase(7, 1406371, 36, 15, (3, 5), True),
    ReferenceFailureCase(7, 1406371, 1296, 15, (3, 5), True),
    ReferenceFailureCase(7, 1406371, 46656, 5, (5,), True),
    ReferenceFailureCase(7, 1619953, 248004, 24, (2, 3), True),
    ReferenceFailureCase(7, 1896283, 91204, 51, (3, 17), True),
    ReferenceFailureCase(8, 10995631, 30976, 15, (3, 5), True),
)

REFERENCE_FAILURE_CASES: tuple[ReferenceFailureCase, ...] = (
    RANDOM_BASE_FAILURES + PERFECT_SQUARE_FAILURES
)
