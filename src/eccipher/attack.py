"""Breaking keys: the elliptic-curve discrete log at toy scale.

Every general public key leaks alpha*C = K1 - K2 on a base C that many
keys share, so breaking many keys means many logs to one base, and
`ecdlp_bsgs` keeps the baby steps of its last generator (costs below).
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
    generator builds m = ceil(sqrt(n)) of them and takes up to about m/2
    giant steps, each of 2m - 1 multiples, plus one addition to form that
    stride: about 1.5*sqrt(n) group additions, as for a one-off solve.  A
    call on an equal generator extends a kept table shorter than m to m.
    Otherwise it takes its giant steps with the kept table, then spends
    what they left of m additions, as the search counts them, on more
    baby steps, up to T = min(2**12, n), unless the table already holds
    every multiple of the generator.  So such a call makes at most m
    additions, and once the table holds T steps each further key costs
    about n/(2*(2T - 1)).
    """
    if n <= 0:
        return None
    p = generator.curve.p
    n = min(n, p + 1 + _hasse_reach(p))
    m = _ceil_sqrt(n)
    kept = _kept.walk
    if kept is None or kept.generator != generator:
        kept = _Multiples(generator, 0)
    if len(kept.points) < m:
        return _kept.grown(kept, m).log(target, n)[0]
    k, spent = kept.log(target, n)
    if kept.order is None:   # else every multiple is indexed
        size = len(kept.points)
        grown = min(_TABLE_CAP, n, size + m - spent)
        if grown > size:
            _kept.grown(kept, grown)
    return k


# The most baby steps a kept table grows to: about 1.4 MB of points and
# signed index on a 2**20 curve.
_TABLE_CAP = 1 << 12

# The last generator's baby steps, kept by point value, so an equal
# generator on an equal but separate curve finds them.
_kept = _Kept()
