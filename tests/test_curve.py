"""Curve construction, the group law, scalar multiplication, enumeration
and point orders."""

import math

import pytest

import vectors
from eccipher import (
    Curve,
    CurveTooLargeError,
    FieldElement,
    Point,
    PointNotOnCurveError,
    SingularCurveError,
)


# ------------------------------------------------------------ construction

def test_demo_curve_is_valid():
    Curve(37, 2, 9)


def test_zero_discriminant_rejected():
    with pytest.raises(SingularCurveError):
        Curve(37, 0, 0)


def test_small_curve_discriminant_by_direct_evaluation():
    assert (4 * 1 ** 3 + 27 * 1 ** 2) % 5 == 1  # nonzero, so valid
    Curve(5, 1, 1)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        Curve(35, 2, 9)


def test_coefficients_reduced_mod_p():
    assert Curve(37, 39, 9) == Curve(37, 2, 9)


def test_coefficients_are_plain_ints_in_range():
    curve = Curve(37, 2 - 37, 9)
    assert curve.a == 2
    assert type(curve.a) is int and type(curve.b) is int


# -------------------------------------------------------------- membership

def test_contains_affine_member(e37):
    assert e37.contains(e37.point(9, 4))


def test_contains_infinity(e37):
    assert e37.contains(e37.infinity())


def test_off_curve_coordinates(e37):
    assert not e37.is_on_curve(9, 5)
    with pytest.raises(PointNotOnCurveError):
        e37.point(9, 5)


def test_point_coordinates_reduced_mod_p(e37):
    p = e37.point(9 + 37, 4 - 37)
    assert p == e37.point(9, 4)
    assert str(p) == "(9,4)"
    assert type(p.x) is int and type(p.y) is int


def test_point_requires_both_coordinates(e37):
    with pytest.raises(ValueError):
        Point(e37, 9)


# ---------------------------------------------------------------- negation

def test_negate_flips_y(e37):
    assert -e37.point(5, 25) == e37.point(5, 12)
    assert -e37.point(29, 6) == e37.point(29, 31)


def test_negate_infinity(e37):
    inf = e37.infinity()
    assert -inf == inf


# ---------------------------------------------------------------- addition

def test_add_identity(e37):
    p = e37.point(9, 4)
    assert p + e37.infinity() == p
    assert e37.infinity() + p == p


def test_add_mutual_negatives(e37):
    assert (e37.point(5, 25) + e37.point(5, 12)).is_infinity


def test_scaled_sum_vector(e37):
    total = e37.point(9, 4) + e37.point(10, 20)
    assert 5 * total == e37.point(1, 7)


def test_doubling_point_with_zero_y_gives_infinity():
    curve = Curve(5, 1, 0)  # (0,0) lies on y^2 = x^3 + x
    p = curve.point(0, 0)
    assert (p + p).is_infinity


def test_adding_points_of_different_curves_raises(e37):
    other = Curve(5, 1, 1)
    with pytest.raises(ValueError):
        e37.point(9, 4) + other.point(0, 1)


def test_sum_stays_on_curve_for_sampled_pairs(e37):
    pts = e37.enumerate_points()
    for p in pts[::5]:
        for q in pts[::7]:
            assert e37.contains(p + q)


# ---------------------------------------------------- scalar multiplication

def test_scalar_mul_vectors(e37):
    assert 5 * e37.point(10, 20) == e37.point(33, 23)
    assert 7 * e37.point(11, 20) == e37.point(23, 30)


def test_scalar_zero_gives_infinity(e37):
    assert (0 * e37.point(9, 4)).is_infinity


def test_scalar_reduces_mod_group_order(e37):
    g = e37.point(5, 25)
    assert 44 * g == g
    assert (43 * g).is_infinity
    assert 86 * g == 0 * g


def test_scalar_mul_correct_before_order_is_known(enumerations, monkeypatch):
    # k * P is the same double-and-add on k whether or not #E is known yet.
    additions = []
    original = Point.__add__

    def counting_add(self, other):
        additions.append(self.curve)
        return original(self, other)

    monkeypatch.setattr(Point, "__add__", counting_add)
    fresh, counted = Curve(37, 2, 9), Curve(37, 2, 9)
    counted.enumerate_points()
    assert 44 * fresh.point(5, 25) == fresh.point(5, 25)
    assert 44 * counted.point(5, 25) == counted.point(5, 25)
    assert len(enumerations) == 1 and enumerations[0] is counted
    on_fresh = [curve for curve in additions if curve is fresh]
    on_counted = [curve for curve in additions if curve is counted]
    assert len(on_fresh) == len(on_counted) > 0


def test_negative_scalar_rejected(e37):
    with pytest.raises(ValueError):
        -1 * e37.point(9, 4)


# -------------------------------------------------------------- subtraction

def test_sub_self_is_infinity(e37):
    p = e37.point(1, 7)
    assert (p - p).is_infinity


def test_sub_infinity_is_identity(e37):
    p = e37.point(2, 13)
    assert p - e37.infinity() == p


def test_sub_equals_add_negation(e37):
    pts = e37.enumerate_points()
    for p in pts[::4]:
        for q in pts[::6]:
            assert p - q == p + (-q)


# -------------------------------------------------------------- enumeration

def test_enumeration_matches_published_point_set(e37):
    pts = e37.enumerate_points()
    assert len(pts) == 43
    expected = {None} | set(vectors.AFFINE_POINTS)
    actual = {None if p.is_infinity else (p.x, p.y) for p in pts}
    assert actual == expected


def test_enumeration_order_is_deterministic(e37):
    pts = e37.enumerate_points()
    assert pts[0].is_infinity
    xs = [p.x for p in pts[1:]]
    assert xs == sorted(xs)
    assert str(pts[1]) in ("(0,3)", "(0,34)")


def test_enumeration_includes_both_roots_of_x_zero(e37):
    rendered = {str(p) for p in e37.enumerate_points()}
    assert {"(0,34)", "(0,3)"} <= rendered


def test_enumeration_sets_order_cache(enumerations):
    curve = Curve(37, 2, 9)
    curve.enumerate_points()
    assert curve.order == 43
    assert enumerations == [curve]


def test_order_is_counted_once_on_first_read(enumerations):
    curve = Curve(37, 2, 9)
    assert curve.order == 43
    assert enumerations == [curve]
    assert curve.order == 43
    assert curve.order_of(curve.point(9, 4)) == 43
    assert enumerations == [curve]


@pytest.mark.parametrize("params", [(5, 1, 1), (31, 0, 3), (41, 3, 7), (1009, 7, 21)])
def test_hasse_bound(params):
    p, a, b = params
    curve = Curve(p, a, b)
    n = len(curve.enumerate_points())
    assert abs(n - (p + 1)) <= 2 * math.isqrt(p) + 1


def test_enumeration_refuses_oversized_curve():
    curve = Curve(1048583, 0, 1)  # prime just above 2**20
    with pytest.raises(CurveTooLargeError):
        curve.enumerate_points()


_SMALL_CURVES = [
    (p, a, b)
    for p in range(5, 300) if all(p % d for d in range(2, p))
    for a, b in ((2, 9), (1, 1), (0, 3))
    if (4 * a ** 3 + 27 * b ** 2) % p
]


@pytest.mark.parametrize("p, a, b", _SMALL_CURVES)
def test_enumeration_matches_brute_force(p, a, b):
    roots_of = {}
    for y in range(p):
        roots_of.setdefault(y * y % p, []).append(y)
    expected = {(x, y) for x in range(p) for y in roots_of.get((x ** 3 + a * x + b) % p, [])}
    pts = Curve(p, a, b).enumerate_points()
    assert pts[0].is_infinity
    affine = [(pt.x, pt.y) for pt in pts[1:]]
    assert len(affine) == len(expected) and set(affine) == expected
    xs = [x for x, _ in affine]
    assert xs == sorted(xs)
    i = 0
    while i < len(affine):
        x, r = affine[i]
        if r == 0:
            i += 1
            continue
        # Both roots of one x, adjacent, the second the negation of the first.
        assert affine[i + 1] == (x, p - r)
        if p % 4 == 3:
            assert r == pow((x ** 3 + a * x + b) % p, (p + 1) // 4, p)
        i += 2


@pytest.fixture()
def field_elements_built(monkeypatch):
    """The arguments of every FieldElement built while the test runs."""
    built = []
    original = FieldElement.__init__

    def counting_init(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counting_init)
    return built


def test_enumeration_builds_one_field_element_per_square_x(field_elements_built):
    # Only x whose x^3 + 2x + 9 is a square or zero mod 37 need a root.
    squares = {y * y % 37 for y in range(37)}
    square_xs = [x for x in range(37) if (x ** 3 + 2 * x + 9) % 37 in squares]
    assert len(square_xs) == 21
    Curve(37, 2, 9).enumerate_points()
    assert len(field_elements_built) == len(square_xs)


# 40961 - 1 = 5 * 2**13 and 65537 - 1 = 2**16: deep 2-adic primes, beyond
# the s <= 8 that the primes below 300 reach.
@pytest.mark.parametrize("p", [40961, 65537])
def test_enumeration_takes_roots_exactly_where_euler_says(p):
    a, b = 2, 9
    euler = {x: pow((x ** 3 + a * x + b) % p, (p - 1) // 2, p) for x in range(p)}
    square_xs = {x for x, symbol in euler.items() if symbol in (0, 1)}
    legendre = {x: -1 if symbol == p - 1 else symbol for x, symbol in euler.items()}
    pts = Curve(p, a, b).enumerate_points()
    assert len(pts) == 1 + sum(1 + legendre[x] for x in range(p))
    roots_of = {}
    for pt in pts[1:]:
        roots_of.setdefault(pt.x, []).append(pt.y)
    assert set(roots_of) == square_xs
    for x, roots in roots_of.items():
        assert tuple(roots) == FieldElement(x ** 3 + a * x + b, p).sqrt()


# -------------------------------------------------------------- point order

def test_order_of_infinity(e37):
    assert e37.order_of(e37.infinity()) == 1


def test_order_of_points_in_prime_order_group(e37):
    # 43 is prime, so every non-identity point generates the whole group;
    # confirm for two points by literal repeated addition.
    for coords in ((9, 4), (5, 25)):
        p = e37.point(*coords)
        assert e37.order_of(p) == 43
        acc, steps = p, 1
        while not acc.is_infinity:
            acc = acc + p
            steps += 1
        assert steps == 43


def test_oversized_curve_refuses_order_of():
    curve = Curve(1048583, 0, 1)  # prime just above 2**20
    with pytest.raises(CurveTooLargeError, match=r"^p = 1048583 exceeds enumeration limit 2\*\*20$"):
        curve.order_of(curve.point(2, 3))


def test_point_order_divides_group_order(e1009):
    base = e1009.point(*vectors.MID_BASE)
    order = e1009.order_of(base)
    assert e1009.order % order == 0
    assert (order * base).is_infinity
    assert not ((order // 2) * base).is_infinity if order % 2 == 0 else True


@pytest.mark.parametrize("params", [(5, 1, 1), (31, 0, 3), (37, 2, 9), (1009, 7, 21)])
def test_order_of_matches_repeated_addition(params):
    # #E is 9 = 3^2 on E_5(1,1) and 1060 = 2^2*5*53 on E_1009(7,21), so the
    # prime stripping divides by one prime more than once.  The points are
    # asked of a fresh curve, which counts its group on the first order_of.
    curve, listing = Curve(*params), Curve(*params)
    for listed in listing.enumerate_points():
        point = curve.infinity() if listed.is_infinity else curve.point(listed.x, listed.y)
        acc, steps = point, 1
        while not acc.is_infinity:
            acc = acc + point
            steps += 1
        assert curve.order_of(point) == listing.order_of(listed) == steps, point


# ---------------------------------------------------------------- rendering

def test_point_text_rendering(e37):
    assert str(e37.point(9, 4)) == "(9,4)"
    assert str(e37.infinity()) == "inf"


def test_point_equality_and_hash(e37):
    assert e37.point(9, 4) == e37.point(9, 4)
    assert e37.point(9, 4) != e37.point(9, 33)
    assert e37.infinity() == e37.infinity()
    assert e37.point(9, 4) in {e37.point(9, 4)}
    other = Curve(5, 1, 1)
    assert e37.infinity() != other.infinity()


def test_group_law_builds_no_field_elements(e37, field_elements_built):
    p, q = e37.point(9, 4), e37.point(10, 20)
    [p + q, p + p, 23 * p, -p, hash(p), p == q]
    assert field_elements_built == []
