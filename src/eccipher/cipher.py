"""Randomized encryption of table-coded symbols into point pairs.

One plaintext symbol becomes one point M and then a pair (E1, E2):

    E1 = g * C
    E2 = M + (s + g) * K1 - g * K2 + S

where C is the shared base, s the sender's secret scalar, g a fresh nonce,
(K1, K2) the recipient's general public key and S the recipient's specific
public key for this sender.  The recipient removes the mask with

    M = E2 - (r * E1 + r * J1 + T)

using their secret scalar r, the sender's first public point J1 and the
sender's specific key T published for them.  Rendering E1 and E2 through
the shared code table yields two ciphertext symbols per plaintext symbol.
"""

from __future__ import annotations

import random

from ._messages import brief
from ._record import Record
from .codec import CodeTable
from .curve import Point
from .keys import GeneralPublicKey, PrivateKey, SpecificPublicKey


class InvalidCiphertextError(ValueError):
    """Ciphertext points that do not belong to the decryption curve."""


class MalformedCiphertextError(ValueError):
    """Ciphertext text that cannot be split into symbol pairs."""


class MessageTooLongError(ValueError):
    """Message needs more distinct nonces than the base point order allows."""


class CipherPair(Record):
    """The two cipher points of one plaintext symbol."""

    __slots__ = ("e1", "e2")

    def __init__(self, e1: Point, e2: Point):
        self.e1 = e1
        self.e2 = e2


class EncryptionContext:
    """Everything the sender needs: own private key, the recipient's
    general and specific public keys, and the shared code table."""

    __slots__ = ("sender_private", "recipient_general", "recipient_specific", "table")

    def __init__(self, sender_private: PrivateKey, recipient_general: GeneralPublicKey,
                 recipient_specific: SpecificPublicKey, table: CodeTable):
        self.sender_private = sender_private
        self.recipient_general = recipient_general
        self.recipient_specific = recipient_specific
        self.table = table
        curve = sender_private.curve
        for pt in (recipient_general.k1, recipient_general.k2, recipient_specific.point):
            if pt.curve != curve:
                raise ValueError("all context points must share one curve")
        if table.curve != curve:
            raise ValueError("code table belongs to a different curve")


class DecryptionContext:
    """Everything the recipient needs: own private key, the sender's first
    general public point, the sender's specific key, and the table."""

    __slots__ = ("recipient_private", "sender_k1", "sender_specific", "table")

    def __init__(self, recipient_private: PrivateKey, sender_k1: Point,
                 sender_specific: SpecificPublicKey, table: CodeTable):
        self.recipient_private = recipient_private
        self.sender_k1 = sender_k1
        self.sender_specific = sender_specific
        self.table = table
        curve = recipient_private.curve
        if sender_k1.curve != curve or sender_specific.point.curve != curve:
            raise ValueError("all context points must share one curve")
        if table.curve != curve:
            raise ValueError("code table belongs to a different curve")


def encrypt_point(ctx: EncryptionContext, message_point: Point, nonce: int) -> CipherPair:
    """Encrypt one message point under one nonce in [1, n-1]."""
    private = ctx.sender_private
    n = private.base_order
    if not 1 <= nonce < n:
        raise ValueError(f"nonce must be in [1, {n - 1}], got {brief(nonce)}")
    if message_point.curve != private.curve:
        raise ValueError("message point belongs to a different curve")
    e1 = nonce * private.base
    assert not e1.is_infinity, "nonce below the base order cannot annihilate it"
    k1, k2 = ctx.recipient_general.k1, ctx.recipient_general.k2
    # scalar + nonce can pass #E; reduced mod #E, the product is the same.
    e2 = (message_point
          + ((private.scalar + nonce) % private.curve.order) * k1
          - nonce * k2
          + ctx.recipient_specific.point)
    return CipherPair(e1, e2)


def decrypt_point(ctx: DecryptionContext, pair: CipherPair) -> Point:
    """Recover the message point from one cipher pair."""
    private = ctx.recipient_private
    if pair.e1.curve != private.curve or pair.e2.curve != private.curve:
        raise InvalidCiphertextError("cipher points do not belong to this curve")
    mask = private.scalar * pair.e1 + private.scalar * ctx.sender_k1 + ctx.sender_specific.point
    return pair.e2 - mask


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
        pair = encrypt_point(ctx, message_point, nonce)
        cipher_points += (pair.e1, pair.e2)
    return ctx.table.decode_message(cipher_points)


def decrypt_message(ctx: DecryptionContext, ciphertext: str) -> str:
    """Decrypt text produced by encrypt_message back to the plaintext."""
    if len(ciphertext) % 2:
        raise MalformedCiphertextError(
            f"ciphertext length must be even, got {len(ciphertext)}"
        )
    points = ctx.table.encode_message(ciphertext)
    return ctx.table.decode_message([decrypt_point(ctx, CipherPair(e1, e2))
                                     for e1, e2 in zip(points[0::2], points[1::2])])
