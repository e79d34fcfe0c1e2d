"""Randomized encryption of table-coded symbols into point pairs.

One plaintext symbol becomes one point M and then a pair (E1, E2):

    E1 = g * C
    E2 = M + (s + g) * K1 - g * K2 + S

where C is the shared base, s the sender's secret scalar, g a fresh nonce,
(K1, K2) the recipient's general public key and S the recipient's specific
public key for this sender.  Encryption computes the same E2 as

    E2 = M + (s * K1 + S) + g * (K1 - K2)

with the two bracketed points fixed per context, so a symbol costs two
scalar multiplies and needs no group order.  The recipient removes the
mask with

    M = E2 - (r * E1 + r * J1 + T)

using their secret scalar r, the sender's first public point J1 and the
sender's specific key T published for them.  The decryption context holds
r * J1 + T, so a symbol costs one scalar multiply.  Rendering E1 and E2
through the shared table yields two ciphertext symbols per plaintext symbol.
"""

from __future__ import annotations

import random

from ._messages import brief
from .codec import CodeTable
from .curve import Curve, Point
from .keys import GeneralPublicKey, PrivateKey, SpecificPublicKey


class InvalidCiphertextError(ValueError):
    """Ciphertext points that do not belong to the decryption curve."""


class MalformedCiphertextError(ValueError):
    """Ciphertext text that cannot be split into symbol pairs."""


class MessageTooLongError(ValueError):
    """Message needs more distinct nonces than the base point order allows."""


def _require_in_table(curve: Curve, table: CodeTable, key_points: tuple[Point, ...]) -> None:
    """Both contexts' check: key points and table on `curve`, key points in the table."""
    if any(point.curve != curve for point in key_points):
        raise ValueError("all context points must share one curve")
    if table.curve != curve:
        raise ValueError("code table belongs to a different curve")
    table.decode_message(key_points)


class EncryptionContext:
    """Everything the sender needs: own private key, the recipient's
    general and specific public keys, and the shared code table, which
    must hold them all on one curve before any arithmetic.  It also holds
    s*K1 + S and K1 - K2, the parts of E2 that no nonce changes."""

    __slots__ = ("sender_private", "recipient_general", "recipient_specific", "table",
                 "_offset", "_difference")

    def __init__(self, sender_private: PrivateKey, recipient_general: GeneralPublicKey,
                 recipient_specific: SpecificPublicKey, table: CodeTable):
        self.sender_private = sender_private
        self.recipient_general = recipient_general
        self.recipient_specific = recipient_specific
        self.table = table
        k1, k2 = recipient_general.k1, recipient_general.k2
        _require_in_table(sender_private.curve, table, (k1, k2, recipient_specific.point))
        self._offset = sender_private.scalar * k1 + recipient_specific.point
        self._difference = k1 - k2


class DecryptionContext:
    """Everything the recipient needs: own private key, the sender's first
    general public point, the sender's specific key, and the table, which
    must hold them all on one curve before any arithmetic.  It also holds
    r*J1 + T, the part of the mask that no nonce changes."""

    __slots__ = ("recipient_private", "sender_k1", "sender_specific", "table", "_offset")

    def __init__(self, recipient_private: PrivateKey, sender_k1: Point,
                 sender_specific: SpecificPublicKey, table: CodeTable):
        self.recipient_private = recipient_private
        self.sender_k1 = sender_k1
        self.sender_specific = sender_specific
        self.table = table
        _require_in_table(recipient_private.curve, table, (sender_k1, sender_specific.point))
        self._offset = recipient_private.scalar * sender_k1 + sender_specific.point


def encrypt_point(ctx: EncryptionContext, message_point: Point, nonce: int) -> tuple[Point, Point]:
    """Encrypt one message point under one nonce g in [1, n-1] to the pair
    (E1, E2) = (g*C, M + (s*K1 + S) + g*(K1 - K2)): two scalar multiplies."""
    private = ctx.sender_private
    n = private.base_order
    if not 1 <= nonce < n:
        raise ValueError(f"nonce must be in [1, {n - 1}], got {brief(nonce)}")
    if message_point.curve != private.curve:
        raise ValueError("message point belongs to a different curve")
    e1 = nonce * private.base
    assert not e1.is_infinity, "nonce below the base order cannot annihilate it"
    return e1, message_point + ctx._offset + nonce * ctx._difference


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
