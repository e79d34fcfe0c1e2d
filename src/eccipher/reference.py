"""Brute-force reference implementations: slow but independently simple.

These exist so the fast paths can be audited against another algorithm:
literal repeated addition instead of double-and-add, and an exhaustive
discrete log that walks every multiple instead of the baby-step giant-step
solver in `attack`.  They share the group step, `Point.__add__` and so
`curve._chord`, with the fast paths; the paper's table of multiples and
the chord-and-tangent geometry tests in `tests/test_curve.py` pin that
step on its own.  None of this is, or pretends to be, secure.
"""

from __future__ import annotations

from .curve import Point

# perfbench/workloads.py calls reference.ecdlp_bsgs and perfbench/tracer.py
# hooks it here, so the solver stays bound in this module until both move.
from .attack import ecdlp_bsgs


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
