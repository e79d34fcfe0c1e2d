"""Breaking keys: the elliptic-curve discrete log at toy scale.

Every general public key leaks alpha*C = K1 - K2 on a base C that many
keys share, so breaking many keys means many logs to one base.  This
module keeps one `curve._Kept`, the baby steps of the last generator,
and is the one place that decides whose steps are kept: a first break
on a base costs about 1.5*sqrt(n) group additions, the next one T - m + 1
more baby steps plus its giant steps, and later ones at most
ceil(n/(2T - 1)) giant steps, for m = ceil(sqrt(n)) and T = min(2**12, n).
"""

from __future__ import annotations

from .curve import Point, _ceil_sqrt, _hasse_reach, _Kept


def ecdlp_bsgs(generator: Point, target: Point, n: int) -> int | None:
    """Baby-step giant-step discrete log in O(sqrt(n)) group operations.

    Same contract as reference.ecdlp_exhaustive: the two must agree
    everywhere.  The least k lies below ord(generator) <= #E <=
    p + 1 + floor(2*sqrt(p)) (Hasse), so n is first clamped to that bound,
    which changes no answer.

    The baby steps of the last generator are kept in `_kept`.  A call on
    another generator replaces the holder with a fresh one, builds
    m = ceil(sqrt(n)) baby steps in m + 1 additions with the stride
    W = (2m - 1)*G, and takes up to about m/2 giant steps, each across
    2m - 1 multiples: about 1.5*sqrt(n) group additions, as for a one-off
    solve.  A call on an equal generator first grows the kept table to
    T = min(2**12, n) steps, at least m, unless the table already holds
    every multiple of the generator, and then searches: the first such
    call makes T - m + 1 additions to grow it, and each further key costs
    at most ceil(n/(2T - 1)) giant steps.  A thread that read the holder
    before another replaced it searches the one it read; no answer
    depends on which.
    """
    global _kept
    if n <= 0:
        return None
    p = generator.curve.p
    n = min(n, p + 1 + _hasse_reach(p))
    m = _ceil_sqrt(n)
    kept = _kept
    if kept is None or kept.walk.generator != generator:
        kept = _kept = _Kept(generator)
    elif kept.walk.order is None:   # else every multiple is indexed
        m = max(m, min(_TABLE_CAP, n))
    return kept.grown(m).log(target, n)


# The most baby steps a kept table grows to: about 1.4 MB of points and
# signed index on a 2**20 curve.
_TABLE_CAP = 1 << 12

# The last generator's baby steps, or None before the first break.  It is
# matched by point value, so an equal generator on an equal but separate
# curve finds them.
_kept: _Kept | None = None
