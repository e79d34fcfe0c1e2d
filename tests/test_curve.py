"""Curve construction, the group law, scalar multiplication, enumeration
and point orders."""

import itertools
import math
import random
import threading
import tracemalloc

import pytest

import vectors
from eccipher import (
    Curve,
    CurveTooLargeError,
    FieldElement,
    Point,
    PointNotOnCurveError,
    SingularCurveError,
    attack,
    ecdlp_bsgs,
    slow_scalar_mul,
)
from eccipher.curve import _chord, _Kept


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


def test_non_int_parameters_and_coordinates_are_refused_at_construction(e37):
    # Before, Curve(37.9, 2, 9) became E_37, and a float coefficient or
    # coordinate was accepted, then failed in pow() at the first k * P.
    for args in ((37.9, 2, 9), (37, 2.0, 9), (37, 2, 9.0), ("37", 2, 9), (37, "2", 9)):
        with pytest.raises(TypeError):
            Curve(*args)
    for x, y in ((9.0, 4.0), (9, 4.0), (9.0, 4), ("9", 4)):
        with pytest.raises(TypeError):
            Point(e37, x, y)
        with pytest.raises(TypeError):
            e37.point(x, y)
    assert Curve(37, True, 9).a == 1


# -------------------------------------------------------------- membership

def test_contains_affine_member(e37):
    assert e37.is_on_curve(9, 4)


def test_contains_infinity(e37):
    assert e37.infinity().is_infinity


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
            total = p + q
            assert total.is_infinity or e37.is_on_curve(total.x, total.y)


def _pair(point):
    return None if point.is_infinity else (point.x, point.y)


def test_the_core_step_gives_the_published_table_on_every_demo_pair(e37):
    # The paper prints i*(5,25) for i = 1..42, and (5,25) generates all 43
    # points, so i*G + j*G = ((i + j) % 43)*G checks every ordered pair,
    # O, P + P and P + (-P) among them, against the paper.  Point.__add__
    # takes its sums from _chord, so the second assert checks its operand
    # checks and infinity shortcuts, not a second copy of the law.
    cells = [None, *vectors.AFFINE_POINTS]
    assert len(cells) == vectors.GROUP_ORDER
    points = [e37.infinity() if cell is None else e37.point(*cell) for cell in cells]
    for i, first in enumerate(cells):
        for j, second in enumerate(cells):
            total = _chord(e37.p, e37.a, first, second)
            assert total == cells[(i + j) % vectors.GROUP_ORDER], (first, second)
            assert total == _pair(points[i] + points[j]), (first, second)


@pytest.mark.parametrize("curve_name, sample_size", [("e1009", 60), ("e31", None)],
                         ids=["e1009", "e31"])
def test_the_core_step_keeps_the_group_laws_on_sampled_points(curve_name, sample_size,
                                                               request):
    # _chord is the package's one copy of the law.  Apart from the compare
    # with Point.__add__, which takes its sums from _chord, these checks
    # share no code with it: the chord and tangent through the operands,
    # y = 0 doublings and associativity.  E_1009(7,21) is sampled; every
    # point of E_31(0,3) is taken, where a = 0 makes the tangent slope
    # 3x^2/2y.
    curve = request.getfixturevalue(curve_name)
    p, a = curve.p, curve.a
    points = curve.enumerate_points()
    halves = [point for point in points[1:] if point.y == 0]
    # The points of order 2 are those with y = 0: some exist exactly when #E is even.
    assert bool(halves) == (len(points) % 2 == 0)
    rng = random.Random(20)
    if sample_size is None:
        sampled = points
    else:
        sampled = rng.sample(points, sample_size) + halves + [points[0]]

    def add(first, second):
        return _chord(p, a, first, second)

    for point in sampled:
        first = _pair(point)
        assert add(first, None) == add(None, first) == first
        assert add(first, _pair(-point)) is None   # y = 0 doubles to O
        for other in sampled:
            second = _pair(other)
            total = add(first, second)
            assert total == add(second, first) == _pair(point + other)
            if total is None:
                assert other == -point
                continue
            x3, y3 = total
            assert curve.is_on_curve(x3, y3)
            if first is None or second is None:
                continue
            # -total is the third point on the chord through first and
            # second, or on the tangent at first when the two are equal.
            (x1, y1), (x2, y2) = first, second
            if first == second:
                assert 2 * y1 * (-y3 - y1) % p == (3 * x1 * x1 + a) * (x3 - x1) % p
            else:
                assert (y2 - y1) * (x3 - x1) % p == (-y3 - y1) * (x2 - x1) % p
    pairs = [_pair(point) for point in points]
    for _ in range(2000):
        first, second, third = rng.choices(pairs, k=3)
        assert add(add(first, second), third) == add(first, add(second, third))


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


@pytest.mark.parametrize("curve, generator", [
    ((37, 2, 9), (5, 25)),
    ((vectors.ALT_P, vectors.ALT_A, vectors.ALT_B), vectors.ALT_BASE),
], ids=["E37", "E31"])
def test_scalar_mul_starts_at_the_top_bit(curve, generator, additions):
    # Left to right from P itself: for k > 0 of L bits, w of them set, one
    # doubling per bit after the top one and one addition of P per set bit
    # after it, with no doubling past the top bit and no infinity + P.
    curve = Curve(*curve)
    g = curve.point(*generator)
    assert curve.order == 43
    for k in range(2 * curve.order):
        expected = slow_scalar_mul(k, g)
        additions.clear()
        assert k * g == expected
        cost = (k.bit_length() - 1) + (bin(k).count("1") - 1) if k else 0
        assert len(additions) == cost, k


def test_scalar_mul_correct_before_order_is_known(enumerations, additions):
    # k * P is the same double-and-add on k whether or not #E is known yet.
    fresh, counted = Curve(37, 2, 9), Curve(37, 2, 9)
    counted.enumerate_points()
    assert 44 * fresh.point(5, 25) == fresh.point(5, 25)
    assert 44 * counted.point(5, 25) == counted.point(5, 25)
    assert len(enumerations) == 1 and enumerations[0] is counted
    on_fresh = [p for p, _ in additions if isinstance(p, Point) and p.curve is fresh]
    on_counted = [p for p, _ in additions if isinstance(p, Point) and p.curve is counted]
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


@pytest.mark.parametrize("curve_name", ["e37", "e1009"])
def test_enumeration_reads_like_the_list_of_its_points(curve_name, request):
    # The listing is a sequence, not a list: every read builds a fresh
    # Point, and indices and slices answer as the list of those Points.
    curve = request.getfixturevalue(curve_name)
    listed = curve.enumerate_points()
    points = list(listed)
    assert len(listed) == len(points) == curve.order
    assert listed[0] == curve.infinity() and listed[0].is_infinity
    assert listed[-1] == points[-1] and listed[-len(points)] == points[0]
    for cut in (slice(None), slice(1, None, 3), slice(None, None, -1),
                slice(-5, -1), slice(-1, 2, -7), slice(len(points), None)):
        assert listed[cut] == points[cut], cut
    size = len(points)
    for index in range(-size - 2, size + 2):
        try:
            expected = points[index]
        except IndexError:
            with pytest.raises(IndexError):
                listed[index]
        else:
            assert listed[index] == expected, index
    ends = (None, -size - 1, -3, 0, 3, size + 1)
    for start, stop, step in itertools.product(ends, ends, (None, 1, 2, -1, -5)):
        cut = slice(start, stop, step)
        assert listed[cut] == points[cut], cut
    assert points[7] in listed and curve.infinity() in listed
    assert Curve(5, 1, 1).point(0, 1) not in listed
    assert list(listed) == points and listed[7] is not listed[7]


def test_enumeration_holds_coordinates_not_points():
    # E_16381(2,9) has 16473 points.  The squares table takes p bytes; the
    # rest of the peak is the two 32-bit coordinate arrays, sized once from
    # Hasse's bound, about 8 bytes a point.  Arrays grown by append took
    # 17, and a list of Points over 100.
    curve = Curve(16381, 2, 9)
    tracemalloc.start()
    try:
        listed = curve.enumerate_points()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(listed) == 16473
    assert (peak - curve.p) / len(listed) <= 10


def _fullest_curve(p):
    """(p, a, b) for the first (a, b) whose curve has the most points, by
    brute force: for p < 60 that is p + 1 + floor(2*sqrt(p)), Hasse's bound,
    the size the enumeration's arrays are allocated at."""
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    a, b = max(
        ((a, b) for a in range(p) for b in range(p) if (4 * a ** 3 + 27 * b ** 2) % p),
        key=lambda ab: sum(roots[(x ** 3 + ab[0] * x + ab[1]) % p] for x in range(p)),
    )
    return p, a, b


_PRIMES = [p for p in range(5, 300) if all(p % d for d in range(2, p))]
_FULLEST_CURVES = [_fullest_curve(p) for p in _PRIMES if p < 60]
_SMALL_CURVES = [
    (p, a, b)
    for p in _PRIMES
    for a, b in ((2, 9), (1, 1), (0, 3))
    if (4 * a ** 3 + 27 * b ** 2) % p
]
_SMALL_CURVES += [curve for curve in _FULLEST_CURVES if curve not in _SMALL_CURVES]


def test_the_fullest_small_curves_fill_the_hasse_bound():
    # So the brute-force comparison below lists curves that fill the
    # enumeration's presized arrays to the last entry.
    for p, a, b in _FULLEST_CURVES:
        assert len(Curve(p, a, b).enumerate_points()) == p + 1 + math.isqrt(4 * p), p


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
    # asked of a fresh curve and of the one that listed them; both search
    # the Hasse interval, as counting the group does not change order_of.
    curve, listing = Curve(*params), Curve(*params)
    for listed in listing.enumerate_points():
        point = curve.infinity() if listed.is_infinity else curve.point(listed.x, listed.y)
        acc, steps = point, 1
        while not acc.is_infinity:
            acc = acc + point
            steps += 1
        assert curve.order_of(point) == listing.order_of(listed) == steps, point


def _orders_by_addition(points):
    """Each point's order, one walk of repeated additions per cyclic group:
    the walk from P back to infinity takes ord(P) steps, and the k-th point
    on it, k*P, has order ord(P) / gcd(k, ord(P))."""
    orders = {}
    for point in points:
        if point in orders:
            continue
        walk = [point]
        while not walk[-1].is_infinity:
            walk.append(walk[-1] + point)
        n = len(walk)
        for k, multiple in enumerate(walk, 1):
            orders.setdefault(multiple, n // math.gcd(k, n))
    return orders


@pytest.mark.parametrize("p, a, b", _SMALL_CURVES)
def test_order_of_by_search_matches_counted_order(p, a, b, enumerations):
    # The counted curve knows #E, the fresh one does not; order_of takes
    # the same search on both, and only the counted curve is enumerated.
    fresh, counted = Curve(p, a, b), Curve(p, a, b)
    listed = counted.enumerate_points()
    by_addition = _orders_by_addition(listed)
    for point in listed:
        same = fresh.infinity() if point.is_infinity else fresh.point(point.x, point.y)
        assert fresh.order_of(same) == counted.order_of(point) == by_addition[point], point
    assert enumerations == [counted]


@pytest.mark.parametrize("p, a, b", [(37, 2, 9), (1009, 7, 21)])
def test_each_point_is_searched_once_on_an_enumerated_curve(p, a, b, searches):
    # Counting the group leaves point orders to the search, once per point.
    curve = Curve(p, a, b)
    listed = curve.enumerate_points()
    first = [curve.order_of(point) for point in listed]
    assert [curve.order_of(point) for point in listed] == first
    assert searches == list(listed)
    assert all(curve.order % n == 0 for n in first)


def test_threads_sharing_a_curve_get_every_order_right(race):
    # The per-point cache is written without a lock: a write only ever
    # stores the one order of that point, so racing threads agree.
    curve = Curve(vectors.MID_P, vectors.MID_A, vectors.MID_B)
    listed = Curve(vectors.MID_P, vectors.MID_A, vectors.MID_B).enumerate_points()
    expected = _orders_by_addition(listed)
    points = [curve.infinity() if pt.is_infinity else curve.point(pt.x, pt.y) for pt in listed]
    wrong = []

    def worker(seed):
        shuffled = random.Random(seed).sample(points, len(points))
        wrong.extend(pt for pt in shuffled if curve.order_of(pt) != expected[pt])

    race(worker, [(seed,) for seed in range(6)])
    assert wrong == []
    assert all(curve.order_of(pt) == expected[pt] for pt in points)


def test_a_kept_walk_only_grows_until_another_generator_replaces_it(e37, monkeypatch):
    # The holder a code table and the key break each keep, without threads:
    # it holds one generator's walk, starting empty, hands a long enough
    # walk back and replaces a shorter one by a longer walk built from it.
    # The key break keeps its holder for an equal generator on a separate,
    # equal curve, and only a break on another generator replaces it.
    generator, other = e37.point(5, 25), e37.point(9, 4)
    twin = Curve(vectors.P, vectors.A, vectors.B).point(5, 25)
    kept = _Kept(generator)
    empty = kept.walk
    assert empty.generator is generator and empty.points == []
    longer = kept.grown(10)
    assert kept.walk is longer and len(longer.points) == 10
    assert empty.points == []
    for m in (0, 1, 5, 10):
        assert kept.grown(m) is longer
    longest = kept.grown(12)
    assert kept.walk is longest and longest.points[:10] == longer.points
    assert longest.points == [j * generator for j in range(12)]
    assert len(longer.points) == 10
    monkeypatch.setattr(attack, "_kept", None)
    assert ecdlp_bsgs(generator, 3 * generator, 43) == 3
    holder = attack._kept
    assert holder.walk.generator == generator and len(holder.walk.points) == 7
    assert ecdlp_bsgs(twin, 5 * twin, 43) == 5
    assert attack._kept is holder and len(holder.walk.points) == 43
    assert ecdlp_bsgs(other, 2 * other, 43) == 2
    replaced = attack._kept
    assert replaced is not holder and replaced.walk.generator == other
    assert replaced.walk.points == [j * other for j in range(7)]
    assert ecdlp_bsgs(twin, 4 * twin, 43) == 4
    again = attack._kept
    assert again not in (holder, replaced) and again.walk.generator == generator
    assert again.walk.points == [j * generator for j in range(7)]


def test_threads_growing_a_shared_walk_through_its_order_get_every_log_right(e1009, race):
    # Threads grow fresh shared walks of an order-5 generator from none to
    # 4 multiples, each to its own sizes, and take logs with each walk they
    # get back.  On the way a walk meets the
    # order, when its stride 3*G (m = 3) or its baby step 3*G (m = 4) is
    # -2*G: every answer must be the one repeated addition gives, and each
    # walk ends with 4 multiples and the order.
    points = e1009.enumerate_points()
    five = next(q for q in (212 * p for p in points) if not q.is_infinity)
    outside = next(p for p in points if not (5 * p).is_infinity)
    multiples = [e1009.infinity()]
    for _ in range(4):
        multiples.append(multiples[-1] + five)
    kepts = [_Kept(five) for _ in range(40)]
    plans = [(1, 2, 3, 4), (4,), (3, 2), (2, 4, 3), (2,)]
    start = threading.Barrier(len(plans))
    errors = []

    def worker(sizes):
        try:
            start.wait(timeout=60)
            for kept in kepts:
                for m in sizes:
                    walk = kept.grown(m)
                    assert len(walk.points) >= m
                    for k, target in enumerate(multiples):
                        assert walk.log(target, 5) == walk.log(target, 1060) == k
                        assert walk.log(target, k) is None
                    assert walk.log(outside, 1060) is None
        except Exception as exc:
            errors.append(exc)

    race(worker, [(sizes,) for sizes in plans])
    assert errors == []
    for kept in kepts:
        assert kept.walk.points == multiples[:4] and kept.walk.order == 5


def _distinct_primes(n):
    primes, q = [], 2
    while n > 1:
        if q * q > n:
            q = n
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes


@pytest.mark.parametrize("params, group_order", [
    ((16381, 2, 9), 16473),
    ((1048573, 2, 3), 1050028),
], ids=["E_16381", "E_1048573"])
def test_order_of_by_search_on_larger_curves(params, group_order, enumerations):
    # Sampled points of curves too large to walk: n is an order exactly
    # when n*P is infinity and no (n/q)*P is, for each prime q of n.
    curve = Curve(*params)
    p, a, b = params
    rng = random.Random(13)
    checked = 0
    while checked < 8:
        x = rng.randrange(p)
        roots = FieldElement(x ** 3 + a * x + b, p).sqrt()
        if not roots:
            continue
        point = curve.point(x, roots[0])
        n = curve.order_of(point)
        assert (n * point).is_infinity
        assert all(not ((n // q) * point).is_infinity for q in _distinct_primes(n)), point
        assert group_order % n == 0
        checked += 1
    assert enumerations == []


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


def test_points_hash_by_coordinates_and_compare_by_curve(e37):
    # A point hashes by its coordinates alone, so points of separate but
    # equal curves find each other in a dict, and equal coordinates on
    # different curves share a hash but stay different keys.
    twin = Curve(37, 2, 9)
    other = Curve(5, 1, 1)
    assert hash(e37.point(9, 4)) == hash(twin.point(9, 4)) == hash((9, 4))
    assert {e37.point(9, 4): "demo"}[twin.point(9, 4)] == "demo"
    assert hash(e37.infinity()) == hash(other.infinity())
    keys = {e37.infinity(): "demo", other.infinity(): "other", twin.infinity(): "twin"}
    assert keys == {e37.infinity(): "twin", other.infinity(): "other"}


def test_group_law_builds_no_field_elements(e37, field_elements_built):
    p, q = e37.point(9, 4), e37.point(10, 20)
    [p + q, p + p, 23 * p, -p, hash(p), p == q]
    assert field_elements_built == []
