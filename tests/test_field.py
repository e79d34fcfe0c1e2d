"""Prime validation and mod-p field arithmetic, checked against integer
brute force throughout."""

import pytest
from hypothesis import given, strategies as st

from eccipher import FieldElement, NonInvertibleError, Prime
from eccipher.field import MAX_MODULUS_BITS, inv_mod, is_prime

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


# --------------------------------------------------------------- operators

def test_add_wraps_to_zero():
    assert fe(36) + fe(1) == fe(0)


def test_add_identity():
    assert fe(0) + fe(5) == fe(5)


def test_add_reduces_like_integers():
    assert (25 + 25) % 37 == 13
    assert fe(25) + fe(25) == fe(13)


def test_neg():
    assert -fe(4) == fe(33)


def test_mul_reduces_like_integers():
    assert 2 * 19 % 37 == 1
    assert fe(2) * fe(19) == fe(1)


def test_sub_self_cancels():
    assert fe(5) - fe(5) == fe(0)


def test_sub_equals_add_neg():
    for a in range(0, 37, 5):
        for b in range(0, 37, 7):
            assert fe(a) - fe(b) == fe(a) + (-fe(b))


def test_int_operands_are_reduced():
    assert fe(30) + 10 == fe(3)
    assert 10 + fe(30) == fe(3)
    assert 2 * fe(19) == fe(1)
    assert fe(1) - 2 == fe(36)
    assert 1 - fe(2) == fe(36)
    assert fe(5) == 42  # 42 mod 37


def test_mixed_moduli_raise():
    with pytest.raises(ValueError):
        fe(1) + FieldElement(1, Prime(5))
    with pytest.raises(ValueError):
        fe(1) * FieldElement(1, Prime(41))


def test_constructor_normalizes_residue():
    assert fe(-1).residue == 36
    assert fe(74).residue == 0


# --------------------------------------------------------------- inversion

def test_inv_of_one():
    assert fe(1).inv() == fe(1)


def test_inv_matches_exhaustive_search():
    found = [x for x in range(37) if 2 * x % 37 == 1]
    assert found == [19]
    assert fe(2).inv() == fe(19)


def test_inv_zero_raises():
    with pytest.raises(NonInvertibleError):
        fe(0).inv()
    with pytest.raises(NonInvertibleError):
        inv_mod(0, 37)


def test_every_nonzero_element_has_working_inverse():
    for a in range(1, 37):
        assert fe(a) * fe(a).inv() == fe(1)


def test_truediv():
    assert fe(1) / fe(2) == fe(19)


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
    assert set(fe(4).sqrt()) == {fe(2), fe(35)}


def test_sqrt_of_nonsquare_by_brute_force():
    assert all(x * x % 37 != 2 for x in range(37))
    assert fe(2).sqrt() is None


def test_sqrt_of_zero():
    assert fe(0).sqrt() == (fe(0),)


@pytest.mark.parametrize("p", [5, 31, 37, 41, 1009, 7919])
def test_sqrt_roots_square_back_and_cancel(p):
    prime = Prime(p)
    brute_roots = {}
    for x in range(p):
        brute_roots.setdefault(x * x % p, []).append(x)
    for a in range(p):
        roots = FieldElement(a, prime).sqrt()
        if a == 0:
            assert roots == (FieldElement(0, prime),)
            continue
        if roots is None:
            assert a not in brute_roots
            continue
        assert sorted(r.residue for r in roots) == brute_roots[a]
        r1, r2 = roots
        if p % 4 == 3:
            # Pins which root comes first, and so the order `curve points` prints.
            assert r1.residue == pow(a, (p + 1) // 4, p)
        assert r1 * r1 == FieldElement(a, prime)
        assert r2 * r2 == FieldElement(a, prime)
        assert r1 + r2 == FieldElement(0, prime)


# ---------------------------------------------------------------------- pow

def test_pow_zero_exponent():
    assert fe(5) ** 0 == fe(1)


def test_pow_group_order_annihilates():
    assert fe(2) ** 36 == fe(1)


def test_pow_matches_integer_oracle():
    assert 2 ** 18 % 37 == 36
    assert fe(2) ** 18 == fe(36)


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        fe(2) ** -1


def test_pow_matches_builtin_for_sampled_inputs():
    for a in (2, 3, 10, 36):
        for e in (0, 1, 2, 17, 36, 100, 12345):
            assert (fe(a) ** e).residue == pow(a, e, 37)


# ---------------------------------------------------------------- algebra

_PRIMES = (5, 37, 1009, 65537)


@st.composite
def _field_triple(draw):
    p = draw(st.sampled_from(_PRIMES))
    xs = draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1), st.integers(0, p - 1)))
    return p, xs


@given(_field_triple())
def test_ring_axioms(triple):
    p, (a, b, c) = triple
    prime = Prime(p)
    x, y, z = (FieldElement(v, prime) for v in (a, b, c))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(_field_triple())
def test_fermat_and_inverse(triple):
    p, (a, _, _) = triple
    prime = Prime(p)
    x = FieldElement(a, prime)
    if x.residue == 0:
        return
    assert x ** (p - 1) == FieldElement(1, prime)
    assert x * x.inv() == FieldElement(1, prime)


def test_repr_and_hash():
    assert repr(fe(25)) == "FieldElement(25, 37)"
    assert hash(fe(25)) == hash(fe(25 + 37))
    assert fe(25) in {fe(25)}
