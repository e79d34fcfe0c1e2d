"""Randomized encryption of table-coded symbols into point pairs.

One plaintext symbol becomes one point M and then a pair (E1, E2):

    E1 = g * C
    E2 = M + (s + g) * K1 - g * K2 + S

where C is the shared base, s the sender's secret scalar, g a fresh nonce,
(K1, K2) the recipient's general public key and S the recipient's specific
public key for this sender.  Encryption computes the same E2 as

    E2 = M + (s * K1 + S) + g * (K1 - K2)

with the two bracketed points fixed per context.  The context also holds
the doublings P, 2*P, 4*P, ..., 2**(L-1) * P of both P = C and P = K1 - K2,
L the bit length of C's order n, and g * P is the sum of those that the
set bits of g pick.  So a symbol costs no scalar multiply and at most 2L
additions to encrypt, and E2 needs no group order.  The recipient removes
the mask with

    M = E2 - (r * E1 + r * J1 + T)

using their secret scalar r, the sender's first public point J1 and the
sender's specific key T published for them.  The decryption context holds
r * J1 + T, so a symbol costs one scalar multiply.  Rendering E1 and E2
through the shared table yields two ciphertext symbols per plaintext symbol.
"""

from __future__ import annotations

import operator
import random

from ._messages import brief
from .codec import CodeTable
from .curve import Point
from .keys import GeneralPublicKey, PrivateKey, SpecificPublicKey


class InvalidCiphertextError(ValueError):
    """Ciphertext points that do not belong to the decryption curve."""


class MalformedCiphertextError(ValueError):
    """Ciphertext text that cannot be split into symbol pairs."""


class MessageTooLongError(ValueError):
    """Message needs more distinct nonces than the base point order allows."""


def _doublings(point: Point, count: int) -> tuple[Point, ...]:
    """point, 2*point, 4*point, ..., 2**(count-1) * point: count - 1 doublings."""
    doublings = [point]
    for _ in range(1, count):
        doublings.append(doublings[-1] + doublings[-1])
    return tuple(doublings)


def _sum_at(doublings: tuple[Point, ...], bits: list[int]) -> Point:
    """The sum of doublings[i] over the indices i in `bits`, in their order,
    len(bits) - 1 additions: g * P for the set bits of g, given P's doublings."""
    terms = [doublings[i] for i in bits]
    return sum(terms[1:], terms[0])


class EncryptionContext:
    """Everything the sender needs: own private key, the recipient's
    general and specific public keys, and the shared code table.  Before
    any arithmetic, `CodeTable._require` refuses, by name, a table, base
    point C or key point off the sender's curve, and a C or key point
    outside the table, as E1 and E2 are built from them.  It also holds
    s*K1 + S, the part of E2 that no nonce changes, and the doublings
    2**i * C of the base and 2**i * (K1 - K2) for i < L, the bit length of
    the base's order, which E1 and E2 sum: so a symbol costs no scalar
    multiply and at most 2L additions to encrypt."""

    __slots__ = ("sender_private", "recipient_general", "recipient_specific", "table",
                 "_offset", "_base_doublings", "_difference_doublings")

    def __init__(self, sender_private: PrivateKey, recipient_general: GeneralPublicKey,
                 recipient_specific: SpecificPublicKey, table: CodeTable):
        self.sender_private = sender_private
        self.recipient_general = recipient_general
        self.recipient_specific = recipient_specific
        self.table = table
        k1, k2 = recipient_general.k1, recipient_general.k2
        table._require(sender_private.curve, ("base point", sender_private.base),
                       ("recipient pub1", k1), ("recipient pub2", k2),
                       ("recipient specific point", recipient_specific.point))
        self._offset = sender_private.scalar * k1 + recipient_specific.point
        length = sender_private.base_order.bit_length()
        self._base_doublings = _doublings(sender_private.base, length)
        self._difference_doublings = _doublings(k1 - k2, length)


class DecryptionContext:
    """Everything the recipient needs: own private key, the sender's first
    general public point, the sender's specific key, and the table.  Before
    any arithmetic, `CodeTable._require` refuses, by name, a table or
    sender point off the recipient's curve, and a sender point outside the
    table: the fixed points it computes with.  It also holds
    r*J1 + T, the part of the mask that no nonce changes."""

    __slots__ = ("recipient_private", "sender_k1", "sender_specific", "table", "_offset")

    def __init__(self, recipient_private: PrivateKey, sender_k1: Point,
                 sender_specific: SpecificPublicKey, table: CodeTable):
        self.recipient_private = recipient_private
        self.sender_k1 = sender_k1
        self.sender_specific = sender_specific
        self.table = table
        table._require(recipient_private.curve, ("sender pub1", sender_k1),
                       ("sender specific point", sender_specific.point))
        self._offset = recipient_private.scalar * sender_k1 + sender_specific.point


def encrypt_point(ctx: EncryptionContext, message_point: Point, nonce: int) -> tuple[Point, Point]:
    """Encrypt one message point under one nonce g in [1, n-1] to the pair
    (E1, E2) = (g*C, M + (s*K1 + S) + g*(K1 - K2)): no scalar multiply and
    at most 2L additions, L the bit length of n.  A nonce that is not an
    int, such as a float or str, is refused with TypeError.

    g*C and g*(K1 - K2) each sum the context's doublings of their point
    for the set bits i of g, lowest first, in popcount(g) - 1 additions:
    E1 takes those, and E2 two more.  For C, whose order is n, each
    partial sum is j*C for a j below the next term's 2**i, and
    j + 2**i <= g < n, so no sum meets its term, its negative or infinity,
    and none of E1's additions doubles.  That does not hold for
    K1 - K2 = a*C, a the recipient's scalar: its order n/gcd(a, n) can be
    below 2**i, so a partial sum can equal its term (the addition
    doubles), be its negative (the sum is infinity) or be infinity.  So
    can the sums for any K1 and K2 given to the context.  Point.__add__'s
    law is complete, so each case gives the right point with no branch
    here."""
    nonce = operator.index(nonce)
    private = ctx.sender_private
    n = private.base_order
    if not 1 <= nonce < n:
        raise ValueError(f"nonce must be in [1, {n - 1}], got {brief(nonce)}")
    if message_point.curve != private.curve:
        raise ValueError("message point belongs to a different curve")
    bits = [i for i, bit in enumerate(bin(nonce)[:1:-1]) if bit == "1"]
    e1 = _sum_at(ctx._base_doublings, bits)
    assert not e1.is_infinity, "nonce below the base order cannot annihilate it"
    return e1, message_point + ctx._offset + _sum_at(ctx._difference_doublings, bits)


def decrypt_point(ctx: DecryptionContext, pair: tuple[Point, Point]) -> Point:
    """Recover the message point from one cipher pair (E1, E2), which may be
    any two-item iterable of points."""
    private = ctx.recipient_private
    e1, e2 = pair
    if e1.curve != private.curve or e2.curve != private.curve:
        raise InvalidCiphertextError("cipher points do not belong to this curve")
    return e2 - (private.scalar * e1 + ctx._offset)


def encrypt_message(ctx: EncryptionContext, message: str,
                    rng: random.Random | None = None,
                    nonces: list[int] | None = None) -> str:
    """Encrypt a whole message to text, two cipher symbols per character.

    Nonces are drawn from rng without repetition within the message
    (so equal plaintext characters encrypt differently), or supplied
    explicitly for reproducible output.
    """
    points = ctx.table.encode_message(message)
    n = ctx.sender_private.base_order
    if nonces is not None:
        if len(nonces) != len(message):
            raise ValueError(f"{len(message)} characters need {len(message)} nonces, got {len(nonces)}")
        chosen = list(nonces)
    else:
        if len(message) > n - 1:
            raise MessageTooLongError(
                f"{len(message)} characters need {len(message)} distinct nonces "
                f"but only {n - 1} exist"
            )
        if rng is None:
            rng = random.SystemRandom()
        used = set()
        chosen = []
        for _ in message:
            nonce = rng.randrange(1, n)
            while nonce in used:
                nonce = rng.randrange(1, n)
            used.add(nonce)
            chosen.append(nonce)
    cipher_points = []
    for message_point, nonce in zip(points, chosen):
        cipher_points += encrypt_point(ctx, message_point, nonce)
    return ctx.table.decode_message(cipher_points)


def decrypt_message(ctx: DecryptionContext, ciphertext: str) -> str:
    """Decrypt text produced by encrypt_message back to the plaintext."""
    if len(ciphertext) % 2:
        raise MalformedCiphertextError(
            f"ciphertext length must be even, got {len(ciphertext)}"
        )
    points = ctx.table.encode_message(ciphertext)
    return ctx.table.decode_message([decrypt_point(ctx, pair)
                                     for pair in zip(points[0::2], points[1::2])])
