"""Short Weierstrass curves y^2 = x^3 + ax + b over Z_p and their group law."""

from __future__ import annotations

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
        self.a = a % self.p
        self.b = b % self.p
        if (4 * self.a ** 3 + 27 * self.b ** 2) % self.p == 0:
            raise SingularCurveError(f"4a^3 + 27b^2 = 0 mod {self.p}: curve is singular")
        self._order = None
        self._orders = {}

    @property
    def order(self) -> int:
        """Number of points including infinity, enumerated on first read."""
        if self._order is None:
            self.enumerate_points()
        return self._order

    def is_on_curve(self, x: int, y: int) -> bool:
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def contains(self, point: Point) -> bool:
        """True iff the point is infinity or satisfies this curve's equation."""
        return point.is_infinity or self.is_on_curve(point.x, point.y)

    def point(self, x, y) -> Point:
        return Point(self, x, y)

    def infinity(self) -> Point:
        return Point(self)

    def enumerate_points(self) -> list[Point]:
        """All points: infinity first, then ascending x, each root pair in turn.

        A table of the squares mod p, one byte per residue, picks the x
        whose x^3 + ax + b is a square or zero; only those x get a
        `FieldElement` and its Tonelli-Shanks roots, so a non-residue costs
        one table read.  Also fills the curve's `order` cache.  Refuses
        p > 2**20, which bounds the table at 1 MiB.
        """
        self._require_enumerable()
        p = self.p
        # y^2 = (y-1)^2 + (2y-1) for y = 1 .. (p-1)/2 marks every nonzero
        # square; each running sum stays below 2p, so one subtraction reduces it.
        is_square = bytearray(p)
        is_square[0] = 1
        square = 0
        for odd in range(1, p, 2):
            square += odd
            if square >= p:
                square -= p
            is_square[square] = 1
        points = [self.infinity()]
        a, b = self.a, self.b
        for x in range(p):
            rhs = (x * x * x + a * x + b) % p
            if is_square[rhs]:
                for y in FieldElement(rhs, p).sqrt():
                    points.append(Point._unchecked(self, x, y))
        self._order = len(points)
        return points

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

        #E lies in that interval (Hasse), so some m does.  Baby steps
        j*point for j < s, giant steps -(low + i*s)*point: a match j gives
        m = low + i*s + j, in about 2*sqrt(4*sqrt(p)) group operations.
        """
        reach = isqrt(4 * self.p)
        low = self.p + 1 - reach
        s = isqrt(2 * reach) + 1
        baby = {}
        step = self.infinity()
        for j in range(s):
            baby.setdefault(step, j)
            step = step + point
        # step is now s*point.
        giant = -(low * point)
        for i in range(2 * reach // s + 1):
            j = baby.get(giant)
            if j is not None:
                return low + i * s + j
            giant = giant - step
        raise AssertionError(f"no multiple of the order of {point} in the Hasse interval")

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


class Point:
    """A curve point: affine coordinates, or the identity (infinity).

    Point(curve) builds infinity; Point(curve, x, y) validates the
    coordinates against the curve equation.  Group operations are the
    usual chord-and-tangent law:

        P + Q     point addition (doubling when P == Q)
        -P, P - Q negation and subtraction
        k * P     scalar multiplication by a non-negative int
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
        x %= curve.p
        y %= curve.p
        if not curve.is_on_curve(x, y):
            raise PointNotOnCurveError(f"({x},{y}) is not on {curve!r}")
        self.x = x
        self.y = y

    @classmethod
    def _unchecked(cls, curve: Curve, x: int, y: int) -> Point:
        # Fast path for coordinates already known to satisfy the equation.
        pt = object.__new__(cls)
        pt.curve = curve
        pt.x = x
        pt.y = y
        return pt

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> Point:
        if self.is_infinity:
            return self
        return Point._unchecked(self.curve, self.x, -self.y % self.curve.p)

    def __add__(self, other: Point) -> Point:
        if not isinstance(other, Point):
            return NotImplemented
        if other.curve is not self.curve and other.curve != self.curve:
            raise ValueError("cannot add points of different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        p = self.curve.p
        x1, y1 = self.x, self.y
        x2, y2 = other.x, other.y
        if x1 == x2:
            if (y1 + y2) % p == 0:
                # Mutual negatives, including doubling a point with y = 0
                # where the tangent is vertical.
                return Point(self.curve)
            slope = (3 * x1 * x1 + self.curve.a) * pow(2 * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        y3 = (slope * (x1 - x3) - y1) % p
        return Point._unchecked(self.curve, x3, y3)

    def __sub__(self, other: Point) -> Point:
        if not isinstance(other, Point):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, k: int) -> Point:
        """k * P by double-and-add on k as given."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("scalar must be non-negative")
        result = Point(self.curve)
        addend = self
        while k:
            if k & 1:
                result = result + addend
            addend = addend + addend
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.curve == other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        coords = None if self.is_infinity else (self.x, self.y)
        return hash((self.curve.p, coords))

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        return f"({self.x},{self.y})"

    def __repr__(self) -> str:
        return f"Point[{self}] on {self.curve!r}"
