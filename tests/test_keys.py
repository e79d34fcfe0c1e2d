"""Key generation, derived specific keys, and their algebraic relations."""

import random

import pytest

import vectors
from eccipher import (
    Curve,
    CurveTooLargeError,
    GeneralPublicKey,
    PrivateKey,
    SpecificPublicKey,
    derive_specific,
    keygen,
    keypair_from_secret,
)


def test_alice_key_vector(e37, e37_base):
    private, public = keypair_from_secret(
        e37, e37_base, vectors.ALICE_SCALAR, e37.point(*vectors.ALICE_POINT)
    )
    assert public.k1 == e37.point(*vectors.ALICE_K1)
    assert public.k2 == e37.point(*vectors.ALICE_K2)
    assert private.scalar == 5


def test_bob_key_vector(e37, e37_base):
    _, public = keypair_from_secret(
        e37, e37_base, vectors.BOB_SCALAR, e37.point(*vectors.BOB_POINT)
    )
    assert public.k1 == e37.point(*vectors.BOB_K1)
    assert public.k2 == e37.point(*vectors.BOB_K2)


def test_unit_scalar_exposes_secret_point(e37, e37_base):
    secret = e37.point(10, 20)
    _, public = keypair_from_secret(e37, e37_base, 1, secret)
    assert public.k2 == secret
    assert public.k1 == e37_base + secret


def test_specific_key_vectors(e37, demo_keys):
    assert demo_keys.alice_specific.point == e37.point(*vectors.ALICE_SPECIFIC)
    assert demo_keys.alice_specific.issuer == "alice"
    assert demo_keys.alice_specific.audience == "bob"
    assert demo_keys.bob_specific.point == e37.point(*vectors.BOB_SPECIFIC)


def test_specific_key_with_unit_scalar_is_peer_point(e37, e37_base):
    private, _ = keypair_from_secret(e37, e37_base, 1, e37.point(10, 20))
    peer_k2 = e37.point(23, 30)
    assert derive_specific(private, peer_k2).point == peer_k2


def test_scalar_composition_is_exhaustively_associative(e37, e37_base):
    # alpha*(beta*B) must equal (alpha*beta mod n)*B; with n = 43 the whole
    # scalar square fits in one loop.
    for b_coords in ((11, 20), (5, 25)):
        b_point = e37.point(*b_coords)
        multiples = []
        acc = e37.infinity()
        for _ in range(43):
            multiples.append(acc)
            acc = acc + b_point
        for alpha in range(1, 43):
            for beta in range(1, 43):
                assert alpha * multiples[beta] == multiples[alpha * beta % 43]


def test_public_pair_difference_reveals_scalar_times_base(e37, e37_base):
    # k1 - k2 = scalar*(base + point) - scalar*point = scalar*base.
    rng = random.Random(7)
    for _ in range(100):
        private, public = keygen(e37, e37_base, rng)
        assert public.k1 - public.k2 == private.scalar * e37_base


def test_seeded_keygen_is_deterministic(e37, e37_base):
    first = keygen(e37, e37_base, random.Random(123))
    second = keygen(e37, e37_base, random.Random(123))
    assert first == second


def test_keygen_scalars_and_points_stay_in_range(e37, e37_base):
    rng = random.Random(99)
    for _ in range(200):
        private, _ = keygen(e37, e37_base, rng)
        assert 1 <= private.scalar <= 42
        assert not private.point.is_infinity
        assert e37.is_on_curve(private.point.x, private.point.y)


def test_keygen_on_fresh_curve_matches_primed_curve():
    fresh = Curve(37, 2, 9)
    primed = Curve(37, 2, 9)
    primed.enumerate_points()
    assert (keygen(fresh, fresh.point(9, 4), random.Random(1))
            == keygen(primed, primed.point(9, 4), random.Random(1)))


def test_keygen_searches_the_base_order_once(searches):
    # keygen and the PrivateKey it builds both need n; the curve keeps it.
    curve = Curve(16381, 2, 9)
    base = curve.point(2, 9880)
    private, _ = keygen(curve, base, random.Random(1))
    assert private.base_order == 16473
    assert searches == [base]


def test_keygen_refuses_oversized_curve():
    curve = Curve(1048583, 0, 1)  # prime just above 2**20
    with pytest.raises(CurveTooLargeError, match=r"^p = 1048583 exceeds enumeration limit 2\*\*20$"):
        keygen(curve, curve.point(2, 3), random.Random(1))


def test_keygen_rejects_foreign_base(e37):
    other = Curve(5, 1, 1)
    with pytest.raises(ValueError):
        keygen(e37, other.point(0, 1), random.Random(1))


def test_keygen_rejects_an_infinity_base(e37):
    # Order 1 leaves no scalar in [1, n-1] to draw.
    with pytest.raises(ValueError, match="^base point order must be at least 2$"):
        keygen(e37, e37.infinity(), random.Random(1))


def test_derive_specific_rejects_a_peer_key_on_another_curve(demo_keys):
    # (0,3) lies on both E_37(2,9) and E_37(3,9), so only the curve differs.
    twin = Curve(37, 3, 9).point(0, 3)
    with pytest.raises(ValueError, match="^peer key belongs to a different curve$"):
        derive_specific(demo_keys.alice_private, twin)


def test_scalar_bounds_enforced(e37, e37_base):
    secret = e37.point(10, 20)
    for bad in (0, 43, -5, 1000):
        with pytest.raises(ValueError):
            PrivateKey(bad, secret, e37, e37_base)
    PrivateKey(42, secret, e37, e37_base)


def test_huge_scalar_is_refused_with_a_short_message(e37, e37_base):
    # 10**5000 has more digits than int-to-str conversion allows by default.
    with pytest.raises(ValueError, match=r"^secret scalar must be in \[1, 42\], got ") as caught:
        PrivateKey(10 ** 5000, e37.point(10, 20), e37, e37_base)
    assert len(str(caught.value)) < 200


def test_a_scalar_that_is_not_an_int_is_refused(e37, e37_base):
    # Before, PrivateKey(5.0, ...) was accepted and rendered as
    # "alpha = 5.0", which parse_private_key refuses.
    secret = e37.point(10, 20)
    for bad in (5.0, "5"):
        with pytest.raises(TypeError):
            PrivateKey(bad, secret, e37, e37_base)
        with pytest.raises(TypeError):
            keypair_from_secret(e37, e37_base, bad, secret)
    assert type(PrivateKey(True, secret, e37, e37_base).scalar) is int


def test_a_scalar_that_only_defines_index_is_used_as_its_int(e37, e37_base):
    # The key compares, reports and multiplies by operator.index(scalar),
    # not the object given, which has no order with ints.
    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    secret = e37.point(10, 20)
    assert keypair_from_secret(e37, e37_base, Index(5), secret) \
        == keypair_from_secret(e37, e37_base, 5, secret)
    with pytest.raises(ValueError, match=r"^secret scalar must be in \[1, 42\], got 50$"):
        keypair_from_secret(e37, e37_base, Index(50), secret)


def test_infinity_secret_point_rejected(e37, e37_base):
    with pytest.raises(ValueError):
        PrivateKey(5, e37.infinity(), e37, e37_base)


def test_secret_point_may_equal_base(e37, e37_base):
    # Nothing in the algebra divides by (point - base), so this is legal.
    private, public = keypair_from_secret(e37, e37_base, 3, e37_base)
    assert public.k1 == 6 * e37_base
    assert public.k2 == 3 * e37_base
    assert private.base_order == 43


# ----------------------------------------------------------------- records

def test_key_records_take_positional_and_keyword_arguments(e37, e37_base):
    point = e37.point(10, 20)
    for private in (PrivateKey(5, point, e37, e37_base),
                    PrivateKey(scalar=5, point=point, curve=e37, base=e37_base)):
        assert (private.scalar, private.point, private.curve, private.base) == (5, point, e37, e37_base)
        assert private.base_order == 43
    k1, k2 = e37.point(*vectors.ALICE_K1), e37.point(*vectors.ALICE_K2)
    for public in (GeneralPublicKey(k1, k2), GeneralPublicKey(k1=k1, k2=k2)):
        assert (public.k1, public.k2) == (k1, k2)
    for specific, names in ((SpecificPublicKey(point), ("", "")),
                            (SpecificPublicKey(point, "alice"), ("alice", "")),
                            (SpecificPublicKey(point, "alice", "bob"), ("alice", "bob")),
                            (SpecificPublicKey(point=point, audience="bob"), ("", "bob"))):
        assert (specific.point, specific.issuer, specific.audience) == (point, *names)


def test_private_key_checks_run_in_order(e37, e37_base):
    other = Curve(41, 2, 9)
    checks = [
        ((0, e37.infinity(), e37, other.point(0, 3)), "key points must lie on the key's curve"),
        ((0, e37.infinity(), e37, e37.infinity()), "base point must not be infinity"),
        ((0, e37.infinity(), e37, e37_base), "secret point must not be infinity"),
        ((0, e37.point(10, 20), e37, e37_base), r"secret scalar must be in \[1, 42\], got 0"),
    ]
    for args, message in checks:
        with pytest.raises(ValueError, match=f"^{message}$"):
            PrivateKey(*args)
