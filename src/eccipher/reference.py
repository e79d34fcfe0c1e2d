"""Brute-force reference implementations: slow but independently simple.

These exist so the fast paths can be audited against another algorithm:
literal repeated addition instead of double-and-add, and an exhaustive
discrete log that walks every multiple instead of the baby-step giant-step
solver in `attack`.  They share the group step, `Point.__add__` and so
`curve._chord`, with the fast paths; the paper's table of multiples and
the chord-and-tangent geometry tests in `tests/test_curve.py` pin that
step on its own.

The cipher in Z_N shares no group step with the cipher at all.  A code
table of N symbols maps i*G to its i-th symbol, so it is an isomorphism
from <G> to Z_N: once the table decodes a context's public points to their
indices, encryption and decryption are sums and products of ints mod N.
None of this is, or pretends to be, secure.
"""

from __future__ import annotations

from .cipher import DecryptionContext, EncryptionContext
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


def encrypt_by_index(ctx: EncryptionContext, message: str, nonces: list[int]) -> str:
    """encrypt_message(ctx, message, nonces=nonces) in Z_N, from the table
    indices c, k1, k2 and t of C, K1, K2 and S: symbol i under nonce g
    becomes the symbols g*c and i + (s*k1 + t) + g*(k1 - k2), mod N."""
    alphabet, size = ctx.table.alphabet, len(ctx.table)
    position = {symbol: i for i, symbol in enumerate(alphabet)}
    c, k1, k2, t = (position[symbol] for symbol in ctx.table.decode_message(
        [ctx.sender_private.base, ctx.recipient_general.k1, ctx.recipient_general.k2,
         ctx.recipient_specific.point]))
    offset, difference = ctx.sender_private.scalar * k1 + t, k1 - k2
    symbols = []
    for symbol, nonce in zip(message, nonces, strict=True):
        i = position[symbol]
        symbols += alphabet[nonce * c % size], alphabet[(i + offset + nonce * difference) % size]
    return "".join(symbols)


def decrypt_by_index(ctx: DecryptionContext, ciphertext: str) -> str:
    """decrypt_message(ctx, ciphertext) in Z_N, from the table indices j1
    and t of J1 and T: the symbols e1, e2 become the symbol
    e2 - r*e1 - (r*j1 + t), mod N."""
    alphabet, size = ctx.table.alphabet, len(ctx.table)
    position = {symbol: i for i, symbol in enumerate(alphabet)}
    j1, t = (position[symbol] for symbol in ctx.table.decode_message(
        [ctx.sender_k1, ctx.sender_specific.point]))
    offset = ctx.recipient_private.scalar * j1 + t
    indices = [position[symbol] for symbol in ciphertext]
    return "".join(alphabet[(e2 - ctx.recipient_private.scalar * e1 - offset) % size]
                   for e1, e2 in zip(indices[0::2], indices[1::2], strict=True))
