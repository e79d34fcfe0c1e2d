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
    """The agreed code table: the i-th alphabet symbol is i * G.

    G is the table's generator, so the table is the first |alphabet|
    multiples of G and its first symbol denotes the identity.  Both ends
    of a conversation must hold the same table; it renders plaintext
    symbols as message points and cipher points back as text.  Built only
    by from_generator and immutable after construction.
    """

    @classmethod
    def from_generator(cls, curve: Curve, generator: Point,
                       alphabet: str | Sequence[str] = DEFAULT_ALPHABET) -> CodeTable:
        """Build the table whose i-th symbol maps to i * generator.

        Index 0 is the identity, so the first symbol always denotes
        infinity.  The walk fails if it meets the identity again before
        the alphabet is used up: the generator's order must be at least
        the alphabet size or the mapping would repeat points.  Below that
        order the multiples are distinct points of the curve, so only the
        symbols need checking.
        """
        if generator.curve != curve:
            raise ValueError("generator belongs to a different curve")
        table = object.__new__(cls)
        table.curve = curve
        table._point_by_symbol = {}
        table._symbol_by_point = {}
        current = curve.infinity()
        for index, symbol in enumerate(alphabet):
            if index and current.is_infinity:
                raise AlphabetTooLargeError(
                    f"alphabet has {len(alphabet)} symbols but the generator "
                    f"only addresses {index} points"
                )
            table._point_by_symbol[symbol] = current
            table._symbol_by_point[current] = symbol
            current = current + generator
        if len(table._point_by_symbol) != len(alphabet):
            raise ValueError("alphabet symbols must be distinct")
        return table

    @property
    def alphabet(self) -> str:
        return "".join(self._point_by_symbol)

    def __len__(self) -> int:
        return len(self._point_by_symbol)

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
