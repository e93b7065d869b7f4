"""A fixed CPU kernel that tracks how fast this machine runs Python right now.

On a shared host the same work can take 30% longer for minutes at a time
while another tenant loads the core. The kernel mixes what allz spends its
time on (64-bit mixing, modular powers of 6-digit moduli, small dicts and
strings, JSON encoding), so its time moves with the program's. Timed work
is scaled by NOMINAL_S / kernel time, which turns seconds measured at
whatever speed the machine had into seconds at the kernel's nominal speed.
The kernel is part of the benchmark, not of the program, so it is the same
on every commit compared.
"""

from __future__ import annotations

import json
import time

MASK64 = (1 << 64) - 1
# Kernel seconds at the reference speed (the fast state of the 2-core Xeon
# the baseline was taken on). Only the scale of calibrated numbers depends
# on it, not their spread.
NOMINAL_S = 0.020
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _mix64(x: int) -> int:
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & MASK64
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & MASK64
    return x ^ (x >> 31)


def kernel() -> int:
    """Two fixed loops; their times track different parts of the program."""
    x, acc, table = 12345, 0, {}
    # Modular powers of 6-digit moduli, dict and str churn, JSON encoding.
    for i in range(3000):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = _mix64(x)
        n = z % 900_000 + 100_001
        acc += pow(3, n - 1, n)
        table[i & 255] = (n, str(n))
        if i % 50 == 0:
            acc += len(json.dumps({"n": n, "z": z, "t": [1, 2, 3], "s": "x"}))
    # Trial division and Miller-Rabin rounds on 4-digit odd numbers.
    kept = []
    for _ in range(3750):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        n = _mix64(x) % 9000 + 1001 | 1
        if all(n % p for p in _SMALL_PRIMES):
            d, s = n - 1, 0
            while d % 2 == 0:
                d //= 2
                s += 1
            for a in (2, 3):
                t = pow(a, d, n)
                for _ in range(s - 1):
                    if t in (1, n - 1):
                        break
                    t = t * t % n
                acc += t
        kept.append((n, str(n), {"n": n}))
        if len(kept) > 200:
            kept.clear()
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
