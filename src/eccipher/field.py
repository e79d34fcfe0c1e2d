"""Exact arithmetic in the prime field Z_p."""

from __future__ import annotations

import functools

# Largest modulus accepted.  Keeps every intermediate product within 128 bits
# and every enumeration/search in this package at desk scale.
MAX_MODULUS_BITS = 61

# Witness set making Miller-Rabin deterministic for all n < 3.3e24 (> 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NonInvertibleError(ValueError):
    """Asked for the multiplicative inverse of zero."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2**64."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inv_mod(value: int, modulus: int) -> int:
    """Inverse of value mod a prime modulus."""
    if value % modulus == 0:
        raise NonInvertibleError(f"0 has no inverse mod {modulus}")
    return pow(value, -1, modulus)


class Prime(int):
    """A validated prime modulus p with 3 < p < 2**61.

    Subclasses int, so a Prime can be used directly wherever an integer
    modulus is expected.  Validation happens once, at construction.
    """

    def __new__(cls, value: int) -> Prime:
        value = int(value)
        if value <= 3:
            raise ValueError(f"modulus must exceed 3, got {value}")
        if value.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"modulus must be below 2**{MAX_MODULUS_BITS}, got {value}")
        if not is_prime(value):
            raise ValueError(f"{value} is not prime")
        return super().__new__(cls, value)


class FieldElement:
    """A residue in [0, p) under mod-p arithmetic.

    Supports +, -, *, /, ** and unary minus against other elements of the
    same field or plain ints (which are reduced mod p first).  Mixing
    elements of different fields raises ValueError.
    """

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        if not isinstance(modulus, Prime):
            modulus = Prime(modulus)
        self.residue = residue % modulus
        self.modulus = modulus

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"mixed moduli: {self.modulus} and {other.modulus}"
                )
            return other
        if isinstance(other, int):
            return FieldElement(other, self.modulus)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.residue + other.residue, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.residue - other.residue, self.modulus)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(other.residue - self.residue, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.residue * other.residue, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.residue, self.modulus)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, exponent: int):
        """Modular power; exponent must be non-negative."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return FieldElement(pow(self.residue, exponent, self.modulus), self.modulus)

    def inv(self) -> FieldElement:
        """Multiplicative inverse.  Raises NonInvertibleError for zero."""
        return FieldElement(inv_mod(self.residue, self.modulus), self.modulus)

    def legendre(self) -> int:
        """0 for zero, +1 for a nonzero square mod p, -1 otherwise."""
        if self.residue == 0:
            return 0
        sym = pow(self.residue, (self.modulus - 1) // 2, self.modulus)
        return 1 if sym == 1 else -1

    def sqrt(self) -> tuple[FieldElement, ...] | None:
        """All square roots of this element.

        Returns (r, p-r) for a nonzero square, (0,) for zero, and None when
        no root exists.  Uses Tonelli-Shanks, whose r for p = 3 (mod 4) is
        this element to the power (p+1)/4.
        """
        p = int(self.modulus)
        if self.residue == 0:
            return (FieldElement(0, self.modulus),)
        if self.legendre() != 1:
            return None
        r = _tonelli_shanks(self.residue, p)
        return (FieldElement(r, self.modulus), FieldElement(p - r, self.modulus))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.residue == other.residue and self.modulus == other.modulus
        if isinstance(other, int):
            return self.residue == other % self.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.residue, int(self.modulus)))

    def __repr__(self) -> str:
        return f"FieldElement({self.residue}, {int(self.modulus)})"


@functools.cache
def _tonelli_constants(p: int) -> tuple[int, int, int]:
    """(q, s, c) for the odd prime p: p - 1 = q * 2**s with q odd, and
    c = z**q for the least quadratic non-residue z."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return q, s, pow(z, q, p)


def _tonelli_shanks(n: int, p: int) -> int:
    """One square root of the quadratic residue n mod the odd prime p."""
    q, s, c = _tonelli_constants(p)
    r = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i, probe = 0, t
        while probe != 1:
            probe = probe * probe % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    return r
