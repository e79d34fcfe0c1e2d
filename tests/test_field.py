"""Prime validation, Legendre symbols and mod-p square roots, checked
against integer brute force throughout."""

import pytest

from eccipher import FieldElement, Prime
from eccipher.field import MAX_MODULUS_BITS, _tonelli_shanks, is_prime

P37 = Prime(37)


def fe(residue, modulus=P37):
    return FieldElement(residue, modulus)


# ------------------------------------------------------------------- Prime

def test_prime_accepts_valid_moduli():
    for p in (5, 7, 37, 1009, (1 << 61) - 1):
        assert Prime(p) == p


def test_prime_rejects_composites():
    for n in (4, 9, 15, 1 << 20, 561):  # 561 is a Carmichael number
        with pytest.raises(ValueError):
            Prime(n)


def test_prime_rejects_small_characteristic():
    for n in (2, 3, 1, 0, -7):
        with pytest.raises(ValueError):
            Prime(n)


def test_prime_rejects_oversized_modulus():
    with pytest.raises(ValueError):
        Prime((1 << 62) + 135)  # prime, but beyond the width bound


def test_is_prime_matches_trial_division_below_1000():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(1000):
        assert is_prime(n) == trial(n), n


def test_max_modulus_bits_is_61():
    assert MAX_MODULUS_BITS == 61


# ---------------------------------------------------------------- residues

def test_constructor_normalizes_residue():
    assert fe(-1).residue == 36
    assert fe(74).residue == 0


# ----------------------------------------------------------------- legendre

def test_legendre_zero():
    assert fe(0).legendre() == 0


def test_legendre_square():
    assert fe(4).legendre() == 1


def test_legendre_nonsquare_by_brute_force():
    squares = {x * x % 37 for x in range(1, 37)}
    assert 2 not in squares
    assert fe(2).legendre() == -1


def test_exactly_half_the_nonzero_residues_are_squares():
    qr = [a for a in range(37) if fe(a).legendre() == 1]
    assert len(qr) == 18


# --------------------------------------------------------------------- sqrt

def test_sqrt_of_square():
    assert set(fe(4).sqrt()) == {2, 35}


def test_sqrt_of_nonsquare_by_brute_force():
    assert all(x * x % 37 != 2 for x in range(37))
    assert fe(2).sqrt() is None


def test_sqrt_of_zero():
    assert fe(0).sqrt() == (0,)


# 40961 - 1 = 5 * 2**13 and 65537 - 1 = 2**16: deep 2-adic primes, where a
# non-residue runs the first Tonelli-Shanks squaring loop to its end.
@pytest.mark.parametrize("p", [5, 31, 37, 41, 1009, 7919, 40961, 65537])
def test_sqrt_roots_square_back_and_cancel(p):
    prime = Prime(p)
    brute_roots = {}
    for x in range(p):
        brute_roots.setdefault(x * x % p, []).append(x)
    for a in range(p):
        roots = FieldElement(a, prime).sqrt()
        if a == 0:
            assert roots == (0,)
            continue
        if roots is None:
            assert a not in brute_roots
            continue
        assert sorted(roots) == brute_roots[a]
        r1, r2 = roots
        if p % 4 == 3:
            # Pins which root comes first, and so the order `curve points` prints.
            assert r1 == pow(a, (p + 1) // 4, p)
        assert r1 * r1 % p == a
        assert r2 * r2 % p == a
        assert (r1 + r2) % p == 0


@pytest.mark.parametrize("p", [37, 40961, 65537])
def test_tonelli_shanks_reduces_n_and_roots_zero(p):
    for n in (0, p, 2 * p):
        assert _tonelli_shanks(n, p) == 0
    assert _tonelli_shanks(p + 4, p) == _tonelli_shanks(4, p)


def test_repr_and_hash():
    assert repr(fe(25)) == "FieldElement(25, 37)"
