"""Key generation: private keys, general public keys, per-peer specific keys.

Each party holds a secret scalar and a secret point.  From those and the
shared base point it publishes a general public key pair, and later one
extra "specific" point per correspondent, computed from that peer's
second public point.
"""

from __future__ import annotations

import operator
import random

from ._messages import brief
from ._record import Record
from .curve import Curve, Point


class PrivateKey(Record):
    """A party's secrets: scalar in [1, n-1] and a non-identity curve point,
    with the curve and shared base they belong to, and nothing else: what
    its key file holds.

    n is the order of the shared base point, which the curve caches.  A
    scalar that is not an int, such as a float or str, is refused with
    TypeError.
    """

    __slots__ = ("scalar", "point", "curve", "base")

    def __init__(self, scalar: int, point: Point, curve: Curve, base: Point):
        self.scalar = operator.index(scalar)
        self.point = point
        self.curve = curve
        self.base = base
        if base.curve != curve or point.curve != curve:
            raise ValueError("key points must lie on the key's curve")
        if base.is_infinity:
            raise ValueError("base point must not be infinity")
        if point.is_infinity:
            raise ValueError("secret point must not be infinity")
        n = curve.order_of(base)
        if not 1 <= self.scalar < n:
            raise ValueError(f"secret scalar must be in [1, {n - 1}], got {brief(self.scalar)}")

    @property
    def base_order(self) -> int:
        """Order n of the shared base point; scalars live in [1, n-1]."""
        return self.curve.order_of(self.base)


class GeneralPublicKey(Record):
    """The published pair: k1 = scalar*(base + point), k2 = scalar*point."""

    __slots__ = ("k1", "k2")

    def __init__(self, k1: Point, k2: Point):
        self.k1 = k1
        self.k2 = k2


class SpecificPublicKey(Record):
    """A point one party publishes for exactly one peer: scalar * peer's k2."""

    __slots__ = ("point", "issuer", "audience")

    def __init__(self, point: Point, issuer: str = "", audience: str = ""):
        self.point = point
        self.issuer = issuer
        self.audience = audience


def keypair_from_secret(curve: Curve, base: Point, scalar: int,
                        secret_point: Point) -> tuple[PrivateKey, GeneralPublicKey]:
    """Deterministic key pair from explicit secrets (fixed test vectors, file loads)."""
    private = PrivateKey(scalar, secret_point, curve, base)
    k1 = private.scalar * (base + secret_point)
    k2 = private.scalar * secret_point
    return private, GeneralPublicKey(k1, k2)


def keygen(curve: Curve, base: Point,
           rng: random.Random) -> tuple[PrivateKey, GeneralPublicKey]:
    """Fresh key pair: scalar uniform in [1, n-1], secret point t*base, t likewise.

    The rng is any random.Random; pass random.SystemRandom() for real keys
    or a seeded instance for reproducible ones.
    """
    n = curve.order_of(base)
    if n < 2:
        raise ValueError("base point order must be at least 2")
    scalar = rng.randrange(1, n)
    secret_point = rng.randrange(1, n) * base
    return keypair_from_secret(curve, base, scalar, secret_point)


def derive_specific(private: PrivateKey, peer_k2: Point,
                    issuer: str = "", audience: str = "") -> SpecificPublicKey:
    """The specific public key for one peer: own scalar times the peer's k2."""
    if peer_k2.curve != private.curve:
        raise ValueError("peer key belongs to a different curve")
    return SpecificPublicKey(private.scalar * peer_k2, issuer, audience)
