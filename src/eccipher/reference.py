"""Brute-force reference implementations: slow but independently simple.

These exist so the fast paths can be audited against code with no shared
logic: literal repeated addition instead of double-and-add, and toy-scale
discrete-log solvers that demonstrate why only small curves are used here.
None of this is, or pretends to be, secure.

Every general public key leaks alpha*C = K1 - K2 on a base C that many
keys share, so breaking many keys means many logs to one base.  The
baby-step giant-step solver therefore keeps the baby steps of the last
generator it was asked about, and each further call on that generator
grows them, up to 2**12: the first key on a base costs about 2*sqrt(n)
group additions, and each further key about n/2**13 once the table is full.
"""

from __future__ import annotations

import threading
from math import isqrt

from .curve import Point, _ceil_sqrt, _Multiples


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
    least k lies below ord(generator) <= #E <= p + 1 + floor(2*sqrt(p))
    (Hasse), so n is first clamped to that bound, which changes no answer.

    The baby steps of the last generator are kept.  A call on a new
    generator builds m = ceil(sqrt(n)) of them and takes up to m - 1 giant
    steps: about 2*sqrt(n) group additions, as for a one-off solve.  A
    call on an equal generator extends a kept table shorter than m to m.
    Otherwise it takes its giant steps with the kept table, then spends
    what they left of m additions on more baby steps, up to
    T = min(2**12, n).  So such a call makes at most m additions, and once
    the table holds T steps each further key costs about n/(2*T).
    A longer table is a copy, so threads still holding the old one see
    all of it, and `_grown` checks and grows the kept table under one lock.
    """
    if n <= 0:
        return None
    p = generator.curve.p
    n = min(n, p + 1 + isqrt(4 * p))
    m = _ceil_sqrt(n)
    kept = _kept
    if kept is None or kept.generator != generator:
        kept = _grown(_Multiples(generator, 0), m)
    elif len(kept.points) < m:
        kept = _grown(kept, m)
    else:
        k = kept.log(target, n)
        size = len(kept.points)
        giant_steps = (n - 1 if k is None else k) // size
        grown = min(_TABLE_CAP, n, size + m - giant_steps)
        if grown > size:
            _grown(kept, grown)
        return k
    return kept.log(target, n)


def _grown(table: _Multiples, m: int) -> _Multiples:
    """`table`, or the table kept meanwhile for an equal generator, extended
    to at least m baby steps and kept.

    As in the code table's walk, the check and the extension run under one
    lock, so the kept table of a generator only ever grows: a thread that
    read an older table extends the longer one kept since, or keeps it.
    """
    global _kept
    with _lock:
        kept = _kept
        if kept is not None and kept.generator == table.generator:
            table = kept
        if len(table.points) < m:
            table = table.extended(m)
        _kept = table
    return table


# The most baby steps a kept table grows to: about 0.75 MB of points and
# index on a 2**20 curve.
_TABLE_CAP = 1 << 12

# The last generator's baby steps, a curve._Multiples keyed by point value,
# so an equal generator on an equal but separate curve finds it; each value
# is built whole and never changed, and `_grown` replaces it.
_kept: _Multiples | None = None
_lock = threading.Lock()
