"""The agreed code table mapping a text alphabet onto curve points."""

from __future__ import annotations

import functools
from typing import Sequence

from .curve import Curve, Point, _ceil_sqrt, _Kept, _Multiples

# 43 symbols: '*', the lowercase letters, the digits 1..9 then 0, and six
# marks.  Sized to cover every point of a 43-point curve, identity included.
DEFAULT_ALPHABET = "*abcdefghijklmnopqrstuvwxyz1234567890#@!&$%"


@functools.lru_cache(maxsize=1)
def _positions(alphabet: str) -> dict[str, int]:
    """Each symbol's index in `alphabet`, built once and never changed: a
    setup's distinct-symbols check and its code table share it.  One entry,
    as a command works on one alphabet."""
    return {symbol: i for i, symbol in enumerate(alphabet)}


class AlphabetTooLargeError(ValueError):
    """More symbols than the generating point can address."""


class UnknownSymbolError(ValueError):
    """A symbol outside the table's alphabet."""


class UnknownPointError(ValueError):
    """A point outside the table."""


class CodeTable:
    """The agreed code table: the i-th alphabet symbol is i * G.

    G is the table's generator, and the alphabet names exactly its N =
    order(G) multiples, so the first symbol denotes the identity and every
    multiple of G has one.  Both ends of a conversation must hold the same
    table; it renders plaintext symbols as message points and cipher points
    back as text.  Built only by from_generator, which holds that rule.

    The table holds only a prefix of its generator's walk, a
    `curve._Multiples`, which maps indices to points and points back to
    indices (its docstring says how); the table reads no part of the walk
    itself.  The prefix is built on the first lookup, not by
    from_generator: a batch of d symbols grows it to
    min(N, ceil(sqrt(d * N))), which keeps the batch near 1.5*sqrt(d * N)
    group additions, and a single symbol to ceil(sqrt(N)); at m = N it is
    the whole table.  The walk is kept in a `curve._Kept`, which only ever
    keeps a longer one, so readers sharing a table see an old or a new
    prefix, never a half-built one.  No result depends on which.
    """

    @classmethod
    def from_generator(cls, curve: Curve, generator: Point,
                       alphabet: str = DEFAULT_ALPHABET) -> CodeTable:
        """Build the table whose i-th symbol maps to i * generator.

        Index 0 is the identity, so the first symbol always denotes
        infinity.  The alphabet names exactly the generator's order, from
        `curve.order_of` (which refuses p > 2**20), in distinct symbols:
        more would repeat points, and fewer would leave multiples unnamed.
        """
        if generator.curve != curve:
            raise ValueError("generator belongs to a different curve")
        table = object.__new__(cls)
        table.curve = curve
        table._alphabet = alphabet
        table._index_of_symbol = _positions(alphabet)
        table._kept = _Kept(_Multiples(generator, 0))
        size = len(alphabet)
        order = curve.order_of(generator)
        if order < size:
            raise AlphabetTooLargeError(
                f"alphabet has {size} symbols but the generator only addresses {order} points"
            )
        if len(table._index_of_symbol) != size:
            raise ValueError("alphabet symbols must be distinct")
        if size < order:
            raise ValueError(f"alphabet has {size} symbols but the table point "
                             f"generates {order} points; a total cipher needs exactly {order}")
        return table

    @property
    def alphabet(self) -> str:
        return self._alphabet

    def __len__(self) -> int:
        return len(self._alphabet)

    def _grown(self, batch: int) -> _Multiples:
        """The walk, first extended to min(N, ceil(sqrt(batch * N))) multiples."""
        size = len(self._alphabet)
        return self._kept.grown(self._kept.walk, min(size, _ceil_sqrt(batch * size)))

    def encode_symbol(self, symbol: str) -> Point:
        index = self._index_of_symbol.get(symbol)
        if index is None:
            raise UnknownSymbolError(f"symbol {symbol!r} is not in the alphabet")
        return self._grown(1).at([index])[0]

    def decode_point(self, point: Point) -> str:
        return self.decode_message((point,))

    def encode_message(self, message: str) -> list[Point]:
        indices = []
        for position, symbol in enumerate(message):
            index = self._index_of_symbol.get(symbol)
            if index is None:
                raise UnknownSymbolError(
                    f"symbol {symbol!r} at position {position} is not in the alphabet"
                )
            indices.append(index)
        return self._grown(len(indices)).at(indices)

    def decode_message(self, points: Sequence[Point]) -> str:
        walk = self._grown(len(points))
        symbols = []
        for point in points:
            index, _ = walk.log(point, len(self._alphabet))
            if index is None:
                raise UnknownPointError(f"point {point} is not in the code table")
            symbols.append(self._alphabet[index])
        return "".join(symbols)
