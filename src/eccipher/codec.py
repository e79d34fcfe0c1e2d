"""The agreed code table mapping a text alphabet onto curve points."""

from __future__ import annotations

from typing import Sequence

from .curve import Curve, Point

# 43 symbols: '*', the lowercase letters, the digits 1..9 then 0, and six
# marks.  Sized to cover every point of a 43-point curve, identity included.
DEFAULT_ALPHABET = "*abcdefghijklmnopqrstuvwxyz1234567890#@!&$%"


class AlphabetTooLargeError(ValueError):
    """More symbols than the generating point can address."""


class UnknownSymbolError(ValueError):
    """A symbol outside the table's alphabet."""


class UnknownPointError(ValueError):
    """A point outside the table."""


class CodeTable:
    """A bijection between an alphabet and distinct points of one curve.

    Both ends of a conversation must hold the same table; it renders
    plaintext symbols as message points and cipher points back as text.
    Immutable after construction.
    """

    def __init__(self, curve: Curve, alphabet: str | Sequence[str], points: Sequence[Point]):
        symbols = tuple(alphabet)
        points = tuple(points)
        if len(symbols) != len(points):
            raise ValueError(f"{len(symbols)} symbols but {len(points)} points")
        self._point_by_symbol = dict(zip(symbols, points))
        if len(self._point_by_symbol) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        self._symbol_by_point = dict(zip(points, symbols))
        if len(self._symbol_by_point) != len(points):
            raise ValueError("table points must be distinct")
        for pt in points:
            if pt.curve != curve:
                raise ValueError(f"table point {pt} is not on {curve!r}")
        self.curve = curve
        self.symbols = symbols
        self.points = points

    @classmethod
    def from_generator(cls, curve: Curve, generator: Point,
                       alphabet: str | Sequence[str] = DEFAULT_ALPHABET) -> CodeTable:
        """Build the table whose i-th symbol maps to i * generator.

        Index 0 is the identity, so the first symbol always denotes
        infinity.  The walk fails if it meets the identity again before
        the alphabet is used up: the generator's order must be at least
        the alphabet size or the mapping would repeat points.
        """
        if generator.curve != curve:
            raise ValueError("generator belongs to a different curve")
        symbols = tuple(alphabet)
        points = []
        current = curve.infinity()
        for index in range(len(symbols)):
            if index and current.is_infinity:
                raise AlphabetTooLargeError(
                    f"alphabet has {len(symbols)} symbols but the generator "
                    f"only addresses {index} points"
                )
            points.append(current)
            current = current + generator
        return cls(curve, symbols, points)

    @property
    def alphabet(self) -> str:
        return "".join(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def encode_symbol(self, symbol: str) -> Point:
        try:
            return self._point_by_symbol[symbol]
        except KeyError:
            raise UnknownSymbolError(f"symbol {symbol!r} is not in the alphabet") from None

    def decode_point(self, point: Point) -> str:
        try:
            return self._symbol_by_point[point]
        except KeyError:
            raise UnknownPointError(f"point {point} is not in the code table") from None

    def encode_message(self, message: str) -> list[Point]:
        points = []
        for position, symbol in enumerate(message):
            if symbol not in self._point_by_symbol:
                raise UnknownSymbolError(
                    f"symbol {symbol!r} at position {position} is not in the alphabet"
                )
            points.append(self._point_by_symbol[symbol])
        return points

    def decode_message(self, points: Sequence[Point]) -> str:
        return "".join(self.decode_point(pt) for pt in points)
