"""Brute-force reference implementations: slow but independently simple.

These exist so the fast paths can be audited against code with no shared
logic: literal repeated addition instead of double-and-add, and toy-scale
discrete-log solvers that demonstrate why only small curves are used here.
None of this is, or pretends to be, secure.

Every general public key leaks alpha*C = K1 - K2 on a base C that many
keys share, so breaking many keys means many logs to one base.  The
baby-step giant-step solver therefore keeps the baby steps of the last
generator it was asked about: a run of breaks on one base builds them once
and pays only the giant steps for each key.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .curve import Point


def slow_scalar_mul(k: int, point: Point) -> Point:
    """k * point by literally adding the point k times."""
    if k < 0:
        raise ValueError("scalar must be non-negative")
    acc = point.curve.infinity()
    for _ in range(k):
        acc = acc + point
    return acc


def ecdlp_exhaustive(generator: Point, target: Point, n: int) -> int | None:
    """Smallest k in [0, n) with k*generator == target, by walking every multiple.

    Returns None when the target is not a multiple of the generator.
    """
    acc = generator.curve.infinity()
    for k in range(n):
        if acc == target:
            return k
        acc = acc + generator
    return None


def ecdlp_bsgs(generator: Point, target: Point, n: int) -> int | None:
    """Baby-step giant-step discrete log in O(sqrt(n)) group operations.

    Same contract as ecdlp_exhaustive: the two must agree everywhere.  The
    baby steps of the last (generator, m) are kept, m = ceil(sqrt(n)), so
    further calls on an equal generator and m take only the giant steps.
    """
    if n <= 0 or target.curve != generator.curve:
        return None
    m = isqrt(n - 1) + 1
    baby, stride = _baby_steps(generator, m)
    current = target
    for i in range(m):
        j = baby.get(current)
        if j is not None:
            # The first hit is the smallest k in [0, m*m); past n there is none.
            k = i * m + j
            return k if k < n else None
        current = current + stride
    return None


@lru_cache(maxsize=1)
def _baby_steps(generator: Point, m: int) -> tuple[dict[Point, int], Point]:
    """The least j < m for each point j*generator, and the stride -m*generator.

    Keyed by point value, so an equal generator on an equal but separate
    curve finds the same entry.  The dict is complete before it is returned
    and never changed, so threads sharing an entry each see all of it.
    """
    baby = {}
    step = generator.curve.infinity()
    for j in range(m):
        baby.setdefault(step, j)
        step = step + generator
    # step is now m*generator.
    return baby, -step
