"""Code-table construction and symbol/point conversion."""

import math
import random
import re
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

import vectors
from eccipher import (
    AlphabetTooLargeError,
    CodeTable,
    Curve,
    DEFAULT_ALPHABET,
    Point,
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
    alphabet = symbols[:order]
    multiples = [slow_scalar_mul(i, generator) for i in range(order)]
    # One lookup per call: the prefix stays at ceil(sqrt(N)) multiples.
    table = CodeTable.from_generator(curve, generator, alphabet)
    assert len(table) == order
    for symbol, point in zip(alphabet, multiples):
        assert table.encode_symbol(symbol) == point
        assert table.decode_point(point) == symbol
    # One batch of N: the prefix grows to the whole walk.
    batch = CodeTable.from_generator(curve, generator, alphabet)
    assert batch.decode_message(multiples) == alphabet
    assert batch.encode_message(alphabet) == multiples
    # Batches of five: a prefix between the two, reached in steps.
    chunked = CodeTable.from_generator(curve, generator, alphabet)
    for start in range(0, order, 5):
        chunk = alphabet[start:start + 5]
        assert chunked.encode_message(chunk) == multiples[start:start + 5]
        assert chunked.decode_message(multiples[start:start + 5]) == chunk
    with pytest.raises(AlphabetTooLargeError, match=f"only addresses {order} points"):
        CodeTable.from_generator(curve, generator, symbols)


def test_points_outside_the_table_raise():
    # E_1009(7,21) has #E = 1060; a generator of order 530 and a 300-symbol
    # alphabet leave points outside <G> and multiples with index >= N.
    curve = Curve(vectors.MID_P, vectors.MID_A, vectors.MID_B)
    points = curve.enumerate_points()
    generator = next(pt for pt in points if curve.order_of(pt) == 530)
    alphabet = "".join(chr(0x4E00 + i) for i in range(300))
    table = CodeTable.from_generator(curve, generator, alphabet)
    multiples = [slow_scalar_mul(i, generator) for i in range(300)]
    symbol_of = dict(zip(multiples, alphabet))
    outside = [pt for pt in points if pt not in symbol_of]
    assert len(outside) == 1060 - 300
    assert slow_scalar_mul(300, generator) in outside
    assert slow_scalar_mul(529, generator) in outside
    for point in points:
        if point in symbol_of:
            assert table.decode_point(point) == symbol_of[point]
            continue
        with pytest.raises(UnknownPointError, match="is not in the code table"):
            table.decode_point(point)
        with pytest.raises(UnknownPointError, match=re.escape(f"point {point} is not")):
            table.decode_message(multiples + [point])


def test_point_on_another_curve_with_equal_coordinates_raises():
    # (0,3) lies on both E_37(2,9) and E_37(3,9): y^2 = 9 at x = 0.
    twin = Curve(37, 3, 9).point(0, 3)
    same = Curve(37, 2, 9).point(0, 3)
    fresh = CodeTable.from_generator(_CURVE, _CURVE.point(*vectors.TABLE_POINT))
    full = CodeTable.from_generator(_CURVE, _CURVE.point(*vectors.TABLE_POINT))
    full.decode_message(full.encode_message(full.alphabet))
    for table in (fresh, full):
        assert table.decode_point(same) == _TABLE.decode_point(_CURVE.point(0, 3))
        for stranger in (twin, twin.curve.infinity()):
            with pytest.raises(UnknownPointError, match="is not in the code table"):
                table.decode_point(stranger)
            with pytest.raises(UnknownPointError, match="is not in the code table"):
                table.decode_message([same, stranger])


@pytest.fixture()
def additions(monkeypatch):
    """Every Point.__add__ call made while the test runs, as (P, Q)."""
    made = []
    original = Point.__add__

    def counting_add(self, other):
        made.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Point, "__add__", counting_add)
    return made


def test_a_batch_costs_a_prefix_and_giant_steps_not_the_whole_walk(additions):
    # E_16381(2,9): #E = 16473 and (2,9880) generates the whole group.
    curve = Curve(16381, 2, 9)
    generator = curve.point(2, 9880)
    size, batch = 16473, 40
    alphabet = "".join(chr(0x4E00 + i) for i in range(size))
    message = "".join(random.Random(7).choices(alphabet, k=batch))
    table = CodeTable.from_generator(curve, generator, alphabet)
    points = table.encode_message(message)
    assert table.decode_message(points) == message
    cost = len(additions)
    baby = math.isqrt(size - 1) + 1
    prefix = math.isqrt(batch * size - 1) + 1
    coverage = baby + -(-size // baby)
    assert cost <= coverage + prefix + batch * -(-size // prefix)
    assert points == [alphabet.index(symbol) * generator for symbol in message]


def test_shorter_alphabet_uses_prefix_of_multiples():
    table = CodeTable.from_generator(_CURVE, _CURVE.point(5, 25), "*xyz")
    assert table.encode_symbol("z") == 3 * _CURVE.point(5, 25)
    assert len(table) == 4


@given(st.text(alphabet=DEFAULT_ALPHABET, max_size=40))
def test_round_trip(message):
    assert _TABLE.decode_message(_TABLE.encode_message(message)) == message


def test_threads_sharing_a_table_see_one_growing_prefix():
    # Threads grow fresh shared tables at staggered moments: every lookup
    # stays right, and each prefix ends at the largest batch's size, so no
    # growth was lost to a smaller one published later.
    curve = Curve(vectors.MID_P, vectors.MID_A, vectors.MID_B)
    generator = next(pt for pt in curve.enumerate_points() if curve.order_of(pt) == 530)
    alphabet = "".join(chr(0x4E00 + i) for i in range(530))
    multiples = [slow_scalar_mul(i, generator) for i in range(530)]
    batches = [2, 5, 13, 34, 89, 144, 233]
    rounds = 12
    tables = [CodeTable.from_generator(curve, generator, alphabet) for _ in range(rounds)]
    start = threading.Barrier(len(batches))
    errors = []

    def worker(batch):
        rng = random.Random(batch)
        try:
            for table in tables:
                indices = [rng.randrange(530) for _ in range(batch)]
                message = "".join(alphabet[i] for i in indices)
                start.wait(timeout=60)
                time.sleep(rng.random() / 1000)
                assert table.encode_message(message) == [multiples[i] for i in indices]
                assert table.decode_message([multiples[i] for i in indices]) == message
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(batch,)) for batch in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    largest = math.isqrt(max(batches) * 530 - 1) + 1
    assert [len(table._walk[0]) for table in tables] == [largest] * rounds
