"""Code-table construction and symbol/point conversion."""

import pytest
from hypothesis import given, strategies as st

import vectors
from eccipher import (
    AlphabetTooLargeError,
    CodeTable,
    Curve,
    DEFAULT_ALPHABET,
    UnknownPointError,
    UnknownSymbolError,
    slow_scalar_mul,
)

_CURVE = Curve(vectors.P, vectors.A, vectors.B)
_TABLE = CodeTable.from_generator(_CURVE, _CURVE.point(*vectors.TABLE_POINT))


def test_default_alphabet_has_43_distinct_symbols():
    assert len(DEFAULT_ALPHABET) == 43
    assert len(set(DEFAULT_ALPHABET)) == 43
    assert DEFAULT_ALPHABET == vectors.ALPHABET


def test_known_cells():
    assert _TABLE.encode_symbol("a") == _CURVE.point(5, 25)
    assert _TABLE.encode_symbol("k") == _CURVE.point(9, 4)
    assert _TABLE.encode_symbol("t") == _CURVE.point(10, 17)
    assert _TABLE.encode_symbol("*").is_infinity
    assert _TABLE.encode_symbol("%") == -_CURVE.point(*vectors.TABLE_POINT)


def test_every_cell_matches_repeated_addition_oracle():
    generator = _CURVE.point(*vectors.TABLE_POINT)
    acc = _CURVE.infinity()
    for symbol in DEFAULT_ALPHABET:
        assert _TABLE.encode_symbol(symbol) == acc
        acc = acc + generator


def test_every_cell_matches_published_table():
    cells = [None] + vectors.AFFINE_POINTS
    for symbol, coords in zip(DEFAULT_ALPHABET, cells):
        point = _CURVE.infinity() if coords is None else _CURVE.point(*coords)
        assert _TABLE.encode_symbol(symbol) == point
        assert _TABLE.decode_point(point) == symbol


def test_decode_known_point():
    assert _TABLE.decode_point(_CURVE.point(2, 13)) == "5"


def test_unknown_symbol_raises():
    with pytest.raises(UnknownSymbolError):
        _TABLE.encode_symbol("Z")


def test_unknown_point_raises():
    small = Curve(5, 1, 1)
    small_table = CodeTable.from_generator(small, small.point(0, 1), "*abc")
    assert small.point(0, 4) not in small_table.encode_message(small_table.alphabet)
    with pytest.raises(UnknownPointError):
        small_table.decode_point(small.point(0, 4))


def test_encode_message_vector():
    points = _TABLE.encode_message("attack")
    assert [(p.x, p.y) for p in points] == vectors.MESSAGE_POINTS


def test_encode_empty_message():
    assert _TABLE.encode_message("") == []


def test_encode_reports_first_bad_position():
    with pytest.raises(UnknownSymbolError, match="position 1"):
        _TABLE.encode_message("a b")


def test_table_points_are_pairwise_distinct():
    points = _TABLE.encode_message(_TABLE.alphabet)
    assert len(set(points)) == len(points) == 43


def test_alphabet_longer_than_generator_order_rejected():
    with pytest.raises(AlphabetTooLargeError):
        CodeTable.from_generator(_CURVE, _CURVE.point(5, 25), DEFAULT_ALPHABET + "A")


def test_duplicate_symbols_rejected():
    with pytest.raises(ValueError, match="symbols must be distinct"):
        CodeTable.from_generator(_CURVE, _CURVE.point(5, 25), "aa")


def test_generator_from_other_curve_rejected():
    other = Curve(5, 1, 1)
    with pytest.raises(ValueError):
        CodeTable.from_generator(_CURVE, other.point(0, 1), "*a")


def test_from_generator_needs_no_group_order(e37_table, enumerations):
    fresh = Curve(vectors.P, vectors.A, vectors.B)
    table = CodeTable.from_generator(fresh, fresh.point(*vectors.TABLE_POINT), vectors.ALPHABET)
    cells = dict(zip(table.alphabet, table.encode_message(table.alphabet)))
    assert cells == dict(zip(e37_table.alphabet, e37_table.encode_message(e37_table.alphabet)))
    assert enumerations == []
    empty = CodeTable.from_generator(fresh, fresh.point(*vectors.TABLE_POINT), "")
    assert len(empty) == 0 and empty.encode_message(empty.alphabet) == []


def _generator_of_each_order(p, a, b):
    curve = Curve(p, a, b)
    by_order = {}
    for point in curve.enumerate_points():
        by_order.setdefault(curve.order_of(point), point)
    return [pytest.param(point, order, id=f"E{p}({a},{b})-order{order}")
            for order, point in sorted(by_order.items())]


# #E = 9, 43 and 1060: one generator for every point order these groups have.
@pytest.mark.parametrize("generator, order", [
    *_generator_of_each_order(5, 1, 1),
    *_generator_of_each_order(31, 0, 3),
    *_generator_of_each_order(1009, 7, 21),
])
def test_walk_matches_oracle_up_to_the_generators_order(generator, order):
    curve = generator.curve
    symbols = "".join(chr(0x4E00 + i) for i in range(order + 1))
    table = CodeTable.from_generator(curve, generator, symbols[:order])
    assert len(table) == order
    for i, symbol in enumerate(symbols[:order]):
        point = slow_scalar_mul(i, generator)
        assert table.encode_symbol(symbol) == point
        assert table.decode_point(point) == symbol
    with pytest.raises(AlphabetTooLargeError, match=f"only addresses {order} points"):
        CodeTable.from_generator(curve, generator, symbols)


def test_shorter_alphabet_uses_prefix_of_multiples():
    table = CodeTable.from_generator(_CURVE, _CURVE.point(5, 25), "*xyz")
    assert table.encode_symbol("z") == 3 * _CURVE.point(5, 25)
    assert len(table) == 4


@given(st.text(alphabet=DEFAULT_ALPHABET, max_size=40))
def test_round_trip(message):
    assert _TABLE.decode_message(_TABLE.encode_message(message)) == message
