"""The agreed code table mapping a text alphabet onto curve points, and the
setup it is built from.

This module answers whether a cipher is total.  The cipher sends the base
point C, the key points, E1 and E2 through the code table, so each must be
a multiple of the table point G.  `CurveSetup` refuses an alphabet that is
not a `str` or repeats a symbol, `CodeTable.from_generator` refuses one
that does not name exactly order(G) symbols, and `CodeTable._require`, the
one check of C and the key points, refuses one off the table's curve or
outside the table, by name.  `CurveSetup.code_table` and both cipher
contexts call it.  `keyfile` writes and reads setups and checks none of
this itself: each setup it parses is built here.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from ._record import Record
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


def _index_of(alphabet: str) -> dict[str, int]:
    """`_positions(alphabet)`, refused with `TypeError` unless `alphabet` is
    a `str`, before the cache hashes it."""
    if not isinstance(alphabet, str):
        raise TypeError(f"alphabet must be a str, got {type(alphabet).__name__}")
    return _positions(alphabet)


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
    back as text.  Built only by from_generator, which holds that rule;
    `_require` checks that the points a cipher on the table is built from
    are multiples of G.

    The table holds only a prefix of its generator's walk, a
    `curve._Multiples`, which maps indices to points and points back to
    indices (its docstring says how); the table reads no part of the walk
    itself.  The prefix is built on the first lookup, not by
    from_generator: a batch of d symbols grows it to
    min(N, ceil(sqrt(d * N))), which keeps the batch near 1.5*sqrt(d * N)
    group additions, and a single symbol to ceil(sqrt(N)); at m = N it is
    the whole table.  The walk is kept in the table's own `curve._Kept`
    of G, which only ever keeps a longer one, so readers sharing a table see an old or a new
    prefix, never a half-built one.  No result depends on which.
    """

    @classmethod
    def from_generator(cls, curve: Curve, generator: Point,
                       alphabet: str = DEFAULT_ALPHABET) -> CodeTable:
        """Build the table whose i-th symbol maps to i * generator.

        Index 0 is the identity, so the first symbol always denotes
        infinity.  The alphabet, a `str`, names exactly the generator's
        order, from `curve.order_of` (which refuses p > 2**20), in distinct
        symbols: more would repeat points, and fewer would leave multiples
        unnamed.
        """
        if generator.curve != curve:
            raise ValueError("generator belongs to a different curve")
        table = object.__new__(cls)
        table.curve = curve
        table._alphabet = alphabet
        table._index_of_symbol = _index_of(alphabet)
        table._kept = _Kept(generator)
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
        """The walk, first grown to min(N, ceil(sqrt(batch * N))) multiples."""
        size = len(self._alphabet)
        return self._kept.grown(min(size, _ceil_sqrt(batch * size)))

    def encode_symbol(self, symbol: str) -> Point:
        return self.encode_message((symbol,))[0]

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
            index = walk.log(point, len(self._alphabet))
            if index is None:
                raise UnknownPointError(f"point {point} is not in the code table")
            symbols.append(self._alphabet[index])
        return "".join(symbols)

    def _require(self, curve: Curve, *named_points: tuple[str, Point]) -> None:
        """Refuse a cipher on this table that is not total, before any arithmetic.

        Each of `named_points`, (name, point) pairs such as a base point C
        or a key point, must lie on `curve`, as must the table, and must be
        a multiple of the table point G, so that E1 = gamma*C and E2, built
        from them, render through the table.  A point outside the table raises
        `UnknownPointError` with its name.  `CurveSetup.code_table` and
        both cipher contexts check through this method alone.
        """
        if any(point.curve != curve for _, point in named_points):
            raise ValueError("all context points must share one curve")
        if self.curve != curve:
            raise ValueError("code table belongs to a different curve")
        for name, point in named_points:
            try:
                self.decode_point(point)
            except UnknownPointError:
                raise UnknownPointError(f"{name} {point} is not a multiple of the table point "
                                        f"{self._kept.walk.generator}; a total cipher needs it "
                                        "in the table") from None


class CurveSetup(Record):
    """The public agreement two parties share: curve, base point C used for
    keys and nonces, the point generating the code table, and the alphabet,
    a `str`."""

    __slots__ = ("curve", "base", "table_point", "alphabet")

    def __init__(self, curve: Curve, base: Point, table_point: Point, alphabet: str):
        self.curve = curve
        self.base = base
        self.table_point = table_point
        self.alphabet = alphabet
        if base.curve != curve or table_point.curve != curve:
            raise ValueError("setup points must lie on the setup curve")
        if base.is_infinity or table_point.is_infinity:
            raise ValueError("setup points must not be infinity")
        if len(_index_of(alphabet)) != len(alphabet) or not alphabet:
            raise ValueError("alphabet must be non-empty with distinct symbols")

    def code_table(self, *named_points: tuple[str, Point]) -> CodeTable:
        """The setup's code table, refused unless the cipher on it is total.

        E1 = gamma*C and E2 are rendered through the table, which holds
        every multiple of its point G (`CodeTable.from_generator` sees to
        that), so the points they are built from must be multiples of G: C
        and each of `named_points`, (name, point) pairs such as a peer's key
        points.  `CodeTable._require` refuses any other with an
        `UnknownPointError`, a `ValueError`, before any arithmetic, not
        partway through a message.
        """
        table = CodeTable.from_generator(self.curve, self.table_point, self.alphabet)
        table._require(self.curve, ("base point", self.base), *named_points)
        return table
