"""The agreed code table mapping a text alphabet onto curve points."""

from __future__ import annotations

import math
import threading
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


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n else 0


class CodeTable:
    """The agreed code table: the i-th alphabet symbol is i * G.

    G is the table's generator, so the table is the first N = |alphabet|
    multiples of G and its first symbol denotes the identity.  Both ends
    of a conversation must hold the same table; it renders plaintext
    symbols as message points and cipher points back as text.  Built only
    by from_generator.

    The table holds only a prefix of its generator walk: the first m
    multiples of G, as a list and a point -> index dict, and the stride
    S = m * G.  Index i >= m is (i // m) * S + prefix[i % m]; a point the
    dict misses is found by Shanks' giant steps P - t*S, t = 1, 2, ...
    The prefix is built on the first lookup, not by from_generator: a
    batch of d symbols grows it to min(N, ceil(sqrt(d * N))), which keeps
    the batch near 2*sqrt(d * N) group additions, and a single symbol to
    ceil(sqrt(N)); at m = N it is the whole table.  Growth only extends
    the prefix, under a lock, and publishes the new (prefix, dict,
    stride) with one attribute assignment, so readers sharing a table see
    an old or a new prefix, never a half-built one.  No result depends on
    which.
    """

    @classmethod
    def from_generator(cls, curve: Curve, generator: Point,
                       alphabet: str = DEFAULT_ALPHABET) -> CodeTable:
        """Build the table whose i-th symbol maps to i * generator.

        Index 0 is the identity, so the first symbol always denotes
        infinity.  The generator's order, from `curve.order_of` (which
        refuses p > 2**20), must be at least the alphabet size or the
        mapping would repeat points.  Below that order the multiples are
        distinct points of the curve, so only the symbols need checking.
        """
        if generator.curve != curve:
            raise ValueError("generator belongs to a different curve")
        table = object.__new__(cls)
        table.curve = curve
        table._generator = generator
        table._alphabet = alphabet
        table._index_of_symbol = {symbol: i for i, symbol in enumerate(alphabet)}
        table._lock = threading.Lock()
        table._walk = ([], {}, curve.infinity())
        size = len(alphabet)
        order = curve.order_of(generator)
        if order < size:
            raise AlphabetTooLargeError(
                f"alphabet has {size} symbols but the generator only addresses {order} points"
            )
        if len(table._index_of_symbol) != size:
            raise ValueError("alphabet symbols must be distinct")
        return table

    @property
    def alphabet(self) -> str:
        return self._alphabet

    def __len__(self) -> int:
        return len(self._alphabet)

    def _grown(self, batch: int) -> tuple[list[Point], dict[Point, int], Point]:
        """The walk, its prefix first extended to min(N, ceil(sqrt(batch * N)))."""
        size = len(self._alphabet)
        wanted = min(size, _ceil_sqrt(batch * size))
        walk = self._walk
        if len(walk[0]) >= wanted:
            return walk
        with self._lock:
            prefix, index_of_point, current = walk = self._walk
            if len(prefix) < wanted:
                prefix, index_of_point = prefix.copy(), index_of_point.copy()
                generator = self._generator
                for i in range(len(prefix), wanted):
                    prefix.append(current)
                    index_of_point[current] = i
                    current = current + generator
                walk = self._walk = (prefix, index_of_point, current)
        return walk

    def _index(self, point: Point, walk) -> int | None:
        """The index i < N with i*G = point, by a dict hit or giant steps; else None."""
        prefix, index_of_point, stride = walk
        index = index_of_point.get(point)
        if index is not None or not prefix or point.curve != self.curve:
            return index
        size, m = len(self._alphabet), len(prefix)
        step = -stride
        for base in range(m, size, m):
            point = point + step
            index = index_of_point.get(point)
            if index is not None:
                return base + index if base + index < size else None
        return None

    def _points(self, indices: list[int], walk) -> list[Point]:
        """i*G for each index: prefix[i], or (i // m)*S + prefix[i % m]."""
        prefix, _, stride = walk
        m = len(prefix)
        giants = [None, stride]   # giants[t] = t*S, extended as needed
        points = []
        for index in indices:
            if index < m:
                points.append(prefix[index])
                continue
            t, rest = divmod(index, m)
            while len(giants) <= t:
                giants.append(giants[-1] + stride)
            points.append(giants[t] + prefix[rest])
        return points

    def encode_symbol(self, symbol: str) -> Point:
        index = self._index_of_symbol.get(symbol)
        if index is None:
            raise UnknownSymbolError(f"symbol {symbol!r} is not in the alphabet")
        return self._points([index], self._grown(1))[0]

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
        return self._points(indices, self._grown(len(indices)))

    def decode_message(self, points: Sequence[Point]) -> str:
        walk = self._grown(len(points))
        symbols = []
        for point in points:
            index = self._index(point, walk)
            if index is None:
                raise UnknownPointError(f"point {point} is not in the code table")
            symbols.append(self._alphabet[index])
        return "".join(symbols)
