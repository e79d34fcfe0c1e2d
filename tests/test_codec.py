"""Code-table construction and symbol/point conversion."""

import math
import random
import re
import threading
import time

import pytest
from hypothesis import given, strategies as st

import vectors
from eccipher import (
    AlphabetTooLargeError,
    CodeTable,
    Curve,
    CurveSetup,
    CurveTooLargeError,
    DEFAULT_ALPHABET,
    UnknownPointError,
    UnknownSymbolError,
    codec,
    keygen,
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
    # E_5(1,1) has #E = 9; 3*(0,1) generates its subgroup of order 3.
    small = Curve(5, 1, 1)
    small_table = CodeTable.from_generator(small, 3 * small.point(0, 1), "*ab")
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
    message = "^alphabet has 44 symbols but the generator only addresses 43 points$"
    with pytest.raises(AlphabetTooLargeError, match=message):
        CodeTable.from_generator(_CURVE, _CURVE.point(5, 25), DEFAULT_ALPHABET + "A")


def test_duplicate_symbols_rejected():
    with pytest.raises(ValueError, match="symbols must be distinct"):
        CodeTable.from_generator(_CURVE, _CURVE.point(5, 25), "aa")


_NOT_STR = pytest.mark.parametrize(
    "alphabet", [list(DEFAULT_ALPHABET), tuple(DEFAULT_ALPHABET), DEFAULT_ALPHABET.encode()],
    ids=["list", "tuple", "bytes"])


@_NOT_STR
def test_from_generator_refuses_an_alphabet_that_is_not_a_str(alphabet):
    # Refused before the alphabet index's cache hashes the value.
    before = codec._positions.cache_info()
    with pytest.raises(TypeError, match=f"^alphabet must be a str, got {type(alphabet).__name__}$"):
        CodeTable.from_generator(_CURVE, _CURVE.point(*vectors.TABLE_POINT), alphabet)
    assert codec._positions.cache_info() == before


@_NOT_STR
def test_a_setup_refuses_an_alphabet_that_is_not_a_str(alphabet):
    base, generator = _CURVE.point(*vectors.BASE), _CURVE.point(*vectors.TABLE_POINT)
    before = codec._positions.cache_info()
    with pytest.raises(TypeError, match=f"^alphabet must be a str, got {type(alphabet).__name__}$"):
        CurveSetup(_CURVE, base, generator, alphabet)
    assert codec._positions.cache_info() == before


def test_generator_from_other_curve_rejected():
    other = Curve(5, 1, 1)
    with pytest.raises(ValueError):
        CodeTable.from_generator(_CURVE, other.point(0, 1), "*a")


def test_from_generator_needs_no_group_order(e37_table, enumerations):
    fresh = Curve(vectors.P, vectors.A, vectors.B)
    table = CodeTable.from_generator(fresh, fresh.point(*vectors.TABLE_POINT), vectors.ALPHABET)
    cells = dict(zip(table.alphabet, table.encode_message(table.alphabet)))
    assert cells == dict(zip(e37_table.alphabet, e37_table.encode_message(e37_table.alphabet)))
    with pytest.raises(ValueError, match="^alphabet has 0 symbols"):
        CodeTable.from_generator(fresh, fresh.point(*vectors.TABLE_POINT), "")
    assert enumerations == []


def test_from_generator_reuses_the_order_keygen_found(searches, additions):
    # A table on the key base, as `curve init` builds by default: the
    # generator's order was searched for the keys, so the table adds nothing.
    curve = Curve(16381, 2, 9)
    generator = curve.point(2, 9880)
    keygen(curve, generator, random.Random(1))
    searches.clear()
    additions.clear()
    alphabet = "".join(chr(0x4E00 + i) for i in range(16473))
    table = CodeTable.from_generator(curve, generator, alphabet)
    assert searches == [] and additions == []
    with pytest.raises(AlphabetTooLargeError, match="only addresses 16473 points"):
        CodeTable.from_generator(curve, generator, alphabet + "A")
    assert searches == []
    assert table.decode_point(table.encode_symbol(alphabet[-1])) == alphabet[-1]


def test_from_generator_refuses_oversized_curve():
    curve = Curve(1048583, 0, 1)  # prime just above 2**20
    with pytest.raises(CurveTooLargeError, match=r"^p = 1048583 exceeds enumeration limit 2\*\*20$"):
        CodeTable.from_generator(curve, curve.point(2, 3), "*ab")


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
    # E_1009(7,21) has #E = 1060, so a generator of order 530 leaves half
    # the points outside <G>.
    curve = Curve(vectors.MID_P, vectors.MID_A, vectors.MID_B)
    points = curve.enumerate_points()
    generator = next(pt for pt in points if curve.order_of(pt) == 530)
    alphabet = "".join(chr(0x4E00 + i) for i in range(530))
    table = CodeTable.from_generator(curve, generator, alphabet)
    multiples = [slow_scalar_mul(i, generator) for i in range(530)]
    symbol_of = dict(zip(multiples, alphabet))
    outside = [pt for pt in points if pt not in symbol_of]
    assert len(outside) == 1060 - 530
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


def test_a_whole_demo_table_encodes_by_list_reads(additions):
    # A 43-point decode batch grows the demo table's walk to all 43
    # multiples, though 22 already tell it the order.  An encode is then a
    # list read per symbol, with no group addition; a walk stopped at the
    # order would sum a window, and negate, for each symbol past it.
    generator = _CURVE.point(*vectors.TABLE_POINT)
    table = CodeTable.from_generator(_CURVE, generator)
    multiples = [slow_scalar_mul(i, generator) for i in range(43)]
    assert table.decode_message(multiples) == DEFAULT_ALPHABET
    assert len(table._kept.walk.points) == 43
    additions.clear()
    assert table.encode_message(DEFAULT_ALPHABET) == multiples
    assert additions == []


@pytest.mark.parametrize("p, a, b, generator, alphabet, order", [
    # (2,23365) generates 65386 points of E_65537(2,3), far more than 43.
    pytest.param(65537, 2, 3, (2, 23365), DEFAULT_ALPHABET, 65386, id="E65537-default"),
    pytest.param(vectors.MID_P, vectors.MID_A, vectors.MID_B, (0, 651),
                 "".join(chr(0x4E00 + i) for i in range(300)), 530, id="E1009-300"),
    pytest.param(vectors.P, vectors.A, vectors.B, vectors.TABLE_POINT, "", 43, id="empty"),
])
def test_alphabet_shorter_than_generator_order_rejected(p, a, b, generator, alphabet, order):
    curve = Curve(p, a, b)
    message = (f"alphabet has {len(alphabet)} symbols but the table point generates {order} "
               f"points; a total cipher needs exactly {order}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CodeTable.from_generator(curve, curve.point(*generator), alphabet)


@given(st.text(alphabet=DEFAULT_ALPHABET, max_size=40))
def test_round_trip(message):
    assert _TABLE.decode_message(_TABLE.encode_message(message)) == message


def test_threads_sharing_a_table_see_one_growing_prefix(race):
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

    race(worker, [(batch,) for batch in batches])
    assert errors == []
    largest = math.isqrt(max(batches) * 530 - 1) + 1
    assert [len(table._kept.walk.points) for table in tables] == [largest] * rounds


def test_threads_indexing_two_alphabets_each_get_their_own(race):
    # The alphabet index keeps one entry, and threads building setups and
    # tables on two alphabets keep replacing it; each table must still map
    # its own alphabet and refuse the other's symbols.
    base, generator = _CURVE.point(*vectors.BASE), _CURVE.point(*vectors.TABLE_POINT)
    alphabets = [DEFAULT_ALPHABET, "".join(chr(0x4E00 + i) for i in range(43))]
    start = threading.Barrier(8)
    errors = []

    def worker(index):
        try:
            start.wait(timeout=60)
            for i in range(200):
                own, other = alphabets[(index + i) % 2], alphabets[(index + i + 1) % 2]
                table = CurveSetup(_CURVE, base, generator, own).code_table()
                assert table.decode_message(table.encode_message(own)) == own
                with pytest.raises(UnknownSymbolError):
                    table.encode_symbol(other[1])
        except Exception as exc:
            errors.append(exc)

    race(worker, [(index,) for index in range(8)])
    assert errors == []
