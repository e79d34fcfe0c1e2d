"""Breaking keys: the elliptic-curve discrete log at toy scale.

Every general public key leaks alpha*C = K1 - K2 on a base C that many
keys share, so breaking many keys means many logs to one base, and
`ecdlp_bsgs` keeps the baby steps of its last generator: a first break
costs about 1.5*sqrt(n) group additions, the next one T - m + 1 more baby
steps plus its giant steps, and later ones at most ceil(n/(2T - 1)) giant
steps, for m = ceil(sqrt(n)) and T = min(2**12, n).
"""

from __future__ import annotations

from .curve import Point, _ceil_sqrt, _hasse_reach, _Kept, _Multiples


def ecdlp_bsgs(generator: Point, target: Point, n: int) -> int | None:
    """Baby-step giant-step discrete log in O(sqrt(n)) group operations.

    Same contract as reference.ecdlp_exhaustive: the two must agree
    everywhere.  The least k lies below ord(generator) <= #E <=
    p + 1 + floor(2*sqrt(p)) (Hasse), so n is first clamped to that bound,
    which changes no answer.

    The baby steps of the last generator are kept.  A call on a new
    generator builds m = ceil(sqrt(n)) of them, in m + 1 additions with
    the stride W = (2m - 1)*G, and takes up to about m/2 giant steps, each
    across 2m - 1 multiples: about 1.5*sqrt(n) group additions, as for a
    one-off solve.  A call on an equal generator first grows the kept
    table to T = min(2**12, n) steps, at least m, unless the table already
    holds every multiple of the generator, and then searches: the first
    such call makes T - m + 1 additions to grow it, and each further key
    costs at most ceil(n/(2T - 1)) giant steps.
    """
    if n <= 0:
        return None
    p = generator.curve.p
    n = min(n, p + 1 + _hasse_reach(p))
    m = _ceil_sqrt(n)
    kept = _kept.walk
    if kept is None or kept.generator != generator:
        kept = _Multiples(generator, 0)
    elif kept.order is None:   # else every multiple is indexed
        m = max(m, min(_TABLE_CAP, n))
    return _kept.grown(kept, m).log(target, n)


# The most baby steps a kept table grows to: about 1.4 MB of points and
# signed index on a 2**20 curve.
_TABLE_CAP = 1 << 12

# The last generator's baby steps, kept by point value, so an equal
# generator on an equal but separate curve finds them.
_kept = _Kept()
