"""Validated prime moduli, and residues mod p with their square roots.

Field arithmetic itself is plain int arithmetic mod p (inverses by
`pow(x, -1, p)`); `FieldElement` keeps only the Legendre symbol and the
Tonelli-Shanks square root that point enumeration needs.  Enumeration
builds one per x whose x^3 + ax + b is a square or zero mod p, picked by
its own table of squares, so every root it lists still comes from
`FieldElement.sqrt`.
"""

from __future__ import annotations

import functools

from ._messages import brief

# Largest modulus accepted.  Keeps every intermediate product within 128 bits
# and every enumeration/search in this package at desk scale.
MAX_MODULUS_BITS = 61

# Witness set making Miller-Rabin deterministic for all n < 3.3e24 (> 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


class Prime(int):
    """A validated prime modulus p with 3 < p < 2**61.

    Subclasses int, so a Prime can be used directly wherever an integer
    modulus is expected.  Validation happens once, at construction.
    """

    def __new__(cls, value: int) -> Prime:
        value = int(value)
        if value <= 3:
            raise ValueError(f"modulus must exceed 3, got {brief(value)}")
        if value.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"modulus must be below 2**{MAX_MODULUS_BITS}, got {brief(value)}")
        if not is_prime(value):
            raise ValueError(f"{value} is not prime")
        return super().__new__(cls, value)


class FieldElement:
    """A residue in [0, p) with its Legendre symbol and square roots.

    Arithmetic on residues is plain int arithmetic mod p; this class only
    answers whether a residue is a square and what its roots are.
    """

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        if not isinstance(modulus, Prime):
            modulus = Prime(modulus)
        self.residue = residue % modulus
        self.modulus = modulus

    def legendre(self) -> int:
        """0 for zero, +1 for a nonzero square mod p, -1 otherwise."""
        if self.residue == 0:
            return 0
        sym = pow(self.residue, (self.modulus - 1) // 2, self.modulus)
        return 1 if sym == 1 else -1

    def sqrt(self) -> tuple[int, ...] | None:
        """All square roots of this residue, as ints in [0, p).

        Returns (r, p-r) for a nonzero square, (0,) for zero, and None when
        no root exists.  Uses Tonelli-Shanks, whose r for p = 3 (mod 4) is
        this residue to the power (p+1)/4.
        """
        if self.residue == 0:
            return (0,)
        p = int(self.modulus)
        r = _tonelli_shanks(self.residue, p)
        if r is None:
            return None
        return (r, p - r)

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


def _tonelli_shanks(n: int, p: int) -> int | None:
    """One square root of n mod the odd prime p, or None for a non-residue.

    n is reduced mod p first, and 0 is its own root: with t = 0 the
    squaring loop below would never reach 1.  One exponentiation,
    u = n**((q-1)/2), gives both r = n**((q+1)/2) and t = n**q.  A
    non-residue has t**(2**(s-1)) = n**((p-1)/2) = -1, so the first
    squaring loop only returns to 1 after all s steps.
    """
    n %= p
    if n == 0:
        return 0
    q, s, c = _tonelli_constants(p)
    u = pow(n, (q - 1) // 2, p)
    r = u * n % p
    t = u * r % p
    m = s
    while t != 1:
        i, probe = 0, t
        while probe != 1:
            probe = probe * probe % p
            i += 1
        if i == m:
            return None
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    return r
