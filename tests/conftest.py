"""Shared test helpers."""

import os

import allz

SRC_DIR = os.path.dirname(os.path.dirname(allz.__file__))


def subprocess_env():
    """The environment for a Python subprocess that imports this `allz`.

    PYTHONUNBUFFERED is dropped, so standard output is buffered as in a
    plain run whatever the calling environment sets.
    """
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def semiprimes_below(limit):
    """All (n, p, q) with n = p*q < limit, p < q both prime, ascending in n."""
    sieve_limit = limit // 2
    flags = bytearray([1]) * (sieve_limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(sieve_limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    primes = [i for i in range(sieve_limit + 1) if flags[i]]
    out = []
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if p * q >= limit:
                break
            out.append((p * q, p, q))
    return sorted(out)


def merged_then_refused(line):
    """Four lines, made from the record line `line`, that the chunk decode's
    guard takes whole: `line`'s record, with an extra key split over lines
    0 and 1, is row 0 and is accepted, and row 1 is refused; the line
    reader names line 0, which is no JSON."""
    return [line[:-1] + b',"x":[[1', b"2]]}", b"{}],[{}", b"{}"]
