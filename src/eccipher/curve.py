"""Short Weierstrass curves y^2 = x^3 + ax + b over Z_p and their group law."""

from __future__ import annotations

import operator
import threading
from array import array
from collections.abc import Iterable, Iterator, Sequence
from math import isqrt

from .field import FieldElement, Prime

# Point enumeration walks every x in [0, p); refuse moduli past this.
ENUMERATION_LIMIT = 1 << 20


class SingularCurveError(ValueError):
    """Curve parameters with zero discriminant (4a^3 + 27b^2 = 0 mod p)."""


class PointNotOnCurveError(ValueError):
    """Coordinates that do not satisfy the curve equation."""


class CurveTooLargeError(ValueError):
    """Modulus too large for exhaustive point enumeration."""


class Curve:
    """The group of points of y^2 = x^3 + ax + b over Z_p, p > 3 prime.

    The curve keeps two caches.  The first read of `order` enumerates the
    points (so it refuses p > 2**20) and caches their number.  `order_of`
    needs no count: it searches the Hasse interval once per point and
    caches the result by coordinates.  Instances are immutable apart from
    those idempotent cache writes, and all point operations are pure, so
    curves and points can be shared freely across threads.
    """

    __slots__ = ("p", "a", "b", "_order", "_orders")

    def __init__(self, p, a, b):
        self.p = p if isinstance(p, Prime) else Prime(p)
        self.a = operator.index(a) % self.p
        self.b = operator.index(b) % self.p
        if (4 * self.a ** 3 + 27 * self.b ** 2) % self.p == 0:
            raise SingularCurveError(f"4a^3 + 27b^2 = 0 mod {self.p}: curve is singular")
        self._order = None
        self._orders = {}

    @property
    def order(self) -> int:
        """Number of points including infinity, #E: the length of the
        listing that `enumerate_points` makes on first read, kept after
        the listing itself is dropped."""
        if self._order is None:
            self.enumerate_points()
        return self._order

    def is_on_curve(self, x: int, y: int) -> bool:
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def point(self, x, y) -> Point:
        return Point(self, x, y)

    def infinity(self) -> Point:
        return Point(self)

    def enumerate_points(self) -> Sequence[Point]:
        """All points: infinity first, then ascending x, each root pair in turn.

        `_roots` tabulates, in one walk, the Tonelli-Shanks root of every
        nonzero square mod p; each x reads the root of its x^3 + ax + b
        there and lists (x, r) then (x, p - r), or (x, 0) for a zero, so
        a non-residue costs one table read and no x takes a square root.
        The result is an immutable sequence that holds the coordinates in
        two int arrays, not a `Point` per point: each read builds a fresh
        `Point`, equal to any other read of the same index.  Also fills
        the curve's `order` cache.  Refuses p > 2**20, which bounds the
        root table at 4 MiB and lets a coordinate fit 32 bits.

        Hasse's bound, #E <= p + 1 + 2*sqrt(p), caps the affine points
        before any is found, so both arrays are allocated once at that cap
        and filled by index; the listing reads views of their first n
        entries.  Neither array is ever resized: arrays grown by `append`
        copy on each reallocation, which took a second 2**20 listing in one
        process to a 45 MB peak where these stay at 24 MB, and trimming
        to n with `del` reallocates as well.
        """
        self._require_enumerable()
        p = self.p
        roots = _roots(p)
        cap = p + _hasse_reach(p)
        xs, ys = array("I", [0]) * cap, array("I", [0]) * cap
        n = 0
        a, b = self.a, self.b
        for x in range(p):
            rhs = (x * x * x + a * x + b) % p
            r = roots[rhs]
            if r:
                xs[n] = xs[n + 1] = x
                ys[n] = r
                ys[n + 1] = p - r
                n += 2
            elif not rhs:
                xs[n] = x   # ys[n] is already 0
                n += 1
        listing = _Listing(self, memoryview(xs)[:n], memoryview(ys)[:n])
        self._order = len(listing)
        return listing

    def order_of(self, point: Point) -> int:
        """Order of a point: the least m > 0 with m*point = infinity.

        The first m*point = infinity in the Hasse interval is a multiple of
        the order, found without counting; each prime q of m is then
        stripped while (m/q)*point is still infinity, and what remains is
        the order.  Each point is searched once and its order cached.
        Refuses p > 2**20 like `enumerate_points`, because the primes of m
        are found by trial division.
        """
        if point.curve != self:
            raise ValueError("point belongs to a different curve")
        self._require_enumerable()
        m = self._orders.get((point.x, point.y))
        if m is None:
            m = self._hasse_multiple(point)
            for q in _prime_factors(m):
                while m % q == 0 and ((m // q) * point).is_infinity:
                    m //= q
            self._orders[point.x, point.y] = m
        return m

    def _hasse_multiple(self, point: Point) -> int:
        """The least m in [p+1-2*sqrt(p), p+1+2*sqrt(p)] with m*point = infinity.

        #E lies in that interval (Hasse), so some m does: m = low + k for
        the least k with k*point = -(low*point), found by baby-step
        giant-step: about sqrt(4*sqrt(p)) baby steps and at most half as
        many giant steps, about 3*p**(1/4) group operations in all.
        """
        reach = _hasse_reach(self.p)
        low = self.p + 1 - reach
        k = _Multiples(point, isqrt(2 * reach) + 1).log(-(low * point), 2 * reach + 1)
        if k is None:
            raise AssertionError(f"no multiple of the order of {point} in the Hasse interval")
        return low + k

    def _require_enumerable(self) -> None:
        if self.p > ENUMERATION_LIMIT:
            raise CurveTooLargeError(f"p = {self.p} exceeds enumeration limit 2**20")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        return self.p == other.p and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b))

    def __repr__(self) -> str:
        return f"Curve(p={self.p}, a={self.a}, b={self.b})"


def _hasse_reach(p: int) -> int:
    """floor(2*sqrt(p)): #E lies within it of p + 1 (Hasse)."""
    return isqrt(4 * p)


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n > 0, ascending, by trial division."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


def _roots(p: int) -> array:
    """The Tonelli-Shanks root of each nonzero square mod p, indexed by the
    square; 0 at every other residue.  Entries are 16-bit up to 2**16.

    Let p - 1 = q*2**s with q odd and g be the least primitive root.  For
    y = g**k, every value Tonelli-Shanks meets while it roots n = y*y is y
    times a power of g**q, of order 2**s, so the root it returns is y or
    p - y, and which one depends only on k mod 2**s.  One root per class,
    of g**(2j) for j < min(2**s, (p - 1)/2), fixes each class's sign;
    then the walk y = g**k, k < (p - 1)/2, meets each nonzero square once.
    """
    half = (p - 1) // 2
    primes = _prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in primes):
        g += 1
    mask = ((p - 1) & (1 - p)) - 1   # 2**s - 1
    same = []
    y = 1
    for _ in range(min(mask + 1, half)):
        same.append(FieldElement(y * y, p).sqrt()[0] == y)
        y = y * g % p
    roots = array("H" if p <= 1 << 16 else "I", [0]) * p
    y = 1
    for k in range(half):
        roots[y * y % p] = y if same[k & mask] else p - y
        y = y * g % p
    return roots


class Point:
    """A curve point: affine coordinates, or the identity (infinity).

    Point(curve) builds infinity; Point(curve, x, y) takes int
    coordinates, reduces them mod p and validates them against the curve
    equation.  Group operations are the chord-and-tangent law, whose one
    copy is `_chord` on coordinate pairs, and their results are built by
    `_point`, which checks nothing:

        P + Q     point addition (doubling when P == Q), a checked `_chord`
        -P, P - Q negation and subtraction
        k * P     scalar multiplication by a non-negative int, left to
                  right from the top bit of k: one doubling per further
                  bit and one addition of P per further set bit, on P + Q
    """

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x=None, y=None):
        if (x is None) != (y is None):
            raise ValueError("give both coordinates, or neither for infinity")
        self.curve = curve
        if x is None:
            self.x = None
            self.y = None
            return
        x = operator.index(x) % curve.p
        y = operator.index(y) % curve.p
        if not curve.is_on_curve(x, y):
            raise PointNotOnCurveError(f"({x},{y}) is not on {curve!r}")
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> Point:
        if self.is_infinity:
            return self
        return _point(self.curve, (self.x, -self.y % self.curve.p))

    def __add__(self, other: Point) -> Point:
        if not isinstance(other, Point):
            return NotImplemented
        curve = self.curve
        if other.curve is not curve and other.curve != curve:
            raise ValueError("cannot add points of different curves")
        if self.x is None:
            return other
        if other.x is None:
            return self
        return _point(curve, _chord(curve.p, curve.a, (self.x, self.y), (other.x, other.y)))

    def __sub__(self, other: Point) -> Point:
        if not isinstance(other, Point):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, k: int) -> Point:
        """k * P by left-to-right double-and-add, starting at P for the top
        bit of k (Hankerson, Menezes and Vanstone, Algorithm 3.27)."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("scalar must be non-negative")
        if k == 0:
            return Point(self.curve)
        result = self
        for bit in bin(k)[3:]:
            result = result + result
            if bit == "1":
                result = result + self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.curve == other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        # Equal points have equal coordinates; __eq__ also compares curves.
        return hash((self.x, self.y))

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        return f"({self.x},{self.y})"

    def __repr__(self) -> str:
        return f"Point[{self}] on {self.curve!r}"


def _ceil_sqrt(n: int) -> int:
    """The least m >= 0 with m*m >= n, for n >= 0."""
    return isqrt(n - 1) + 1 if n else 0


def _chord(p: int, a: int, first: tuple[int, int] | None,
           second: tuple[int, int] | None) -> tuple[int, int] | None:
    """first + second by the chord-and-tangent law, on (x, y) coordinate
    pairs mod p with None for infinity.

    This is the package's one copy of the law.  `Point.__add__` checks its
    operands and takes each sum from here, and the baby-step giant-step
    core steps with it directly, building no `Point`.  A vertical chord,
    through mutual negatives or a tangent at y = 0, gives infinity.
    """
    if first is None:
        return second
    if second is None:
        return first
    x1, y1 = first
    x2, y2 = second
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _coordinates(point: Point) -> tuple[int, int] | None:
    return None if point.x is None else (point.x, point.y)


def _point(curve: Curve, xy: tuple[int, int] | None) -> Point:
    """The inverse of `_coordinates`: the point of `curve` at xy, an (x, y)
    pair already known to satisfy the curve equation, or infinity for None.
    The one place a `Point` is built unchecked."""
    point = object.__new__(Point)
    point.curve = curve
    point.x, point.y = xy or (None, None)
    return point


class _Listing(Sequence):
    """The points of a curve as `enumerate_points` lists them: infinity at
    index 0, then (xs[i - 1], ys[i - 1]) at index i, read as `range(len(self))`
    reads, a slice as a list.  Each `Point` read or iterated is built by `_point`.

    xs and ys are equal-length views of 32-bit coordinates, the filled
    prefix of two arrays sized once from Hasse's bound; the views copy
    nothing, and they keep the arrays from ever being resized."""

    __slots__ = ("curve", "_xs", "_ys")

    def __init__(self, curve: Curve, xs: memoryview, ys: memoryview):
        self.curve, self._xs, self._ys = curve, xs, ys

    def __len__(self) -> int:
        return len(self._xs) + 1

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return [self[i] for i in picked]
        if picked == 0:
            return _point(self.curve, None)
        return _point(self.curve, (self._xs[picked - 1], self._ys[picked - 1]))

    def __iter__(self) -> Iterator[Point]:
        curve = self.curve
        yield _point(curve, None)
        for xy in zip(self._xs, self._ys):
            yield _point(curve, xy)


class _Multiples:
    """The first m multiples of a generator G, for baby-step giant-step.

    `points[j]` is j*G and `stride` is m*G.  Negating a point is free, so
    `index` maps j*G to j and then -j*G to -j, for j = 0, 1, ..., m - 1,
    keeping a point's first entry: a window of 2m - 1 multiples, which
    `window`, W = (2m - 1)*G (None for m = 0), steps across.  `at` maps
    indices to multiples by sums of W, and `log` multiples back by steps
    of -W.  The first entry that a walked point, or m*G, meets again lies
    r from it, where r is the order of G; `order` is then r, every
    multiple of G is indexed and the walk indexes no more.  Otherwise
    `order` is None.

    A value is built whole, W included, and never written after.  Built
    from `start`, a walk of the same generator, it walks on from copies
    of start's points, index, stride and order to max(m, len(start.points))
    multiples, and start is left as it was; so threads sharing walks
    through `_Kept` each see all of an old or a new one.  Building takes
    one addition per new multiple and one for W (none for m = 0).  Both
    walks step on coordinate pairs with `_chord`, and `_point` builds a
    `Point` only for each baby step kept, its negative, the stride, and
    each giant step looked up.
    """

    __slots__ = ("generator", "points", "index", "stride", "order", "window")

    def __init__(self, generator: Point, m: int, start: _Multiples | None = None):
        curve = generator.curve
        if start is None:
            points, index, stride, order = [], {}, curve.infinity(), None
        else:
            points, index = start.points.copy(), start.index.copy()
            stride, order = start.stride, start.order
        p, a = curve.p, curve.a
        step = _coordinates(generator)
        current = _coordinates(stride)
        for j in range(len(points), m):
            point = _point(curve, current)
            points.append(point)
            if order is None:
                seen = index.setdefault(point, j)
                if seen != j:
                    order = j - seen
                elif j:
                    seen = index.setdefault(_point(curve, (current[0], -current[1] % p)), -j)
                    if seen != -j:
                        order = seen + j
            current = _chord(p, a, current, step)
        stride = _point(curve, current)
        if order is None:
            # m*G = -(m - 1)*G: the 2m - 1 signed multiples are all of them.
            seen = index.get(stride)
            if seen is not None:
                order = len(points) - seen
        self.generator, self.points, self.index = generator, points, index
        self.stride, self.order = stride, order
        self.window = stride + points[-1] if points else None

    def at(self, indices: Iterable[int]) -> list[Point]:
        """i*G for each index i >= 0: points[i], or t*W + d*G for the
        i = t*(2m - 1) + d, |d| < m, at which `log` finds it.  The sums are
        `Point` additions, and each t*W is formed once per call."""
        prefix, m = self.points, len(self.points)
        giants = []   # giants[t - 1] = t*W, extended as needed
        points = []
        for index in indices:
            if index < m:
                points.append(prefix[index])
                continue
            t, d = divmod(index + m - 1, 2 * m - 1)
            d -= m - 1
            while len(giants) < t:
                giants.append(giants[-1] + giants[0] if giants else self.window)
            points.append(giants[t - 1] + (prefix[d] if d >= 0 else -prefix[-d]))
        return points

    def log(self, target: Point, n: int) -> int | None:
        """The least k < n with k*G = target, or None; an empty value finds
        none.

        With the order r known, a dict hit d gives k = d mod r, and a miss
        means there is none.  Otherwise a hit j >= 0 is that k.  After a
        miss or a negative hit, giant steps look up target - t*W for
        t = 1, 2, ... while the window t*(2m - 1) + d, |d| < m, starts
        below n.  The windows follow on from [0, m) without gaps, so the
        first hit is the least k, and a first hit at or past n means there
        is none.  Each giant step is one addition; nothing else adds.
        """
        index = self.index
        k = index.get(target)
        if self.order is not None:
            if k is not None:
                k %= self.order
        elif k is None or k < 0:
            k = None
            m = len(self.points)
            curve = self.generator.curve
            if 0 < m < n and (target.curve is curve or target.curve == curve):
                p, a = curve.p, curve.a
                # Never infinity: an order r <= 2m - 1 is known once built.
                step = _coordinates(-self.window)
                width = 2 * m - 1
                current = _coordinates(target)
                for middle in range(width, n + m - 1, width):
                    current = _chord(p, a, current, step)
                    d = index.get(_point(curve, current))
                    if d is not None:
                        k = middle + d
                        break
        return k if k is not None and k < n else None


class _Kept:
    """The walk of one generator, shared by threads, that only ever grows.

    `walk`, a `_Multiples` of the generator, is the one mutable cell of a
    code table and of the key break's table; it starts empty.  `grown(m)`
    returns the kept walk.  A walk shorter than m is first re-read under
    the lock and, if still short, replaced by a longer one built from it,
    so the kept walk never gets shorter, however threads race to grow it.
    A walk long enough already comes back without the lock, as a value is
    never written after it is built.
    """

    __slots__ = ("walk", "_lock")

    def __init__(self, generator: Point):
        self.walk = _Multiples(generator, 0)
        self._lock = threading.Lock()

    def grown(self, m: int) -> _Multiples:
        """The kept walk, first grown to at least m multiples."""
        walk = self.walk
        if len(walk.points) < m:
            with self._lock:
                walk = self.walk
                if len(walk.points) < m:
                    walk = self.walk = _Multiples(walk.generator, m, walk)
        return walk
