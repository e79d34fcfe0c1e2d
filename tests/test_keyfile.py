"""The ecff-v1 canonical text format: rendering, parsing, validation."""

import random
import sys

import pytest
from hypothesis import given, strategies as st

import vectors
from eccipher import Curve, CurveSetup, KeyFileError, keypair_from_secret
from eccipher.keyfile import (
    GeneralPublicKeyFile,
    PrivateKeyFile,
    SpecificPublicKeyFile,
    parse_curve_setup,
    parse_general_public_key,
    parse_private_key,
    parse_specific_public_key,
    render_curve_setup,
    render_general_public_key,
    render_private_key,
    render_specific_public_key,
)
from eccipher.keys import GeneralPublicKey, SpecificPublicKey, derive_specific

CURVE_TEXT = """\
format = ecff-v1
kind = curve
p = 37
a = 2
b = 9
base.x = 9
base.y = 4
table.x = 5
table.y = 25
alphabet = *abcdefghijklmnopqrstuvwxyz1234567890#@!&$%
"""


def _setup(e37):
    return CurveSetup(
        e37,
        e37.point(*vectors.BASE),
        e37.point(*vectors.TABLE_POINT),
        vectors.ALPHABET,
    )


def _private_file(e37, scalar=5, point=(10, 20)):
    private, public = keypair_from_secret(
        e37, e37.point(*vectors.BASE), scalar, e37.point(*point)
    )
    return PrivateKeyFile(_setup(e37), private, public)


# --------------------------------------------------------------- round trip

def test_curve_file_renders_canonically(e37):
    assert render_curve_setup(_setup(e37)) == CURVE_TEXT


def test_curve_file_round_trips_byte_identically(e37):
    parsed = parse_curve_setup(CURVE_TEXT)
    assert parsed == _setup(e37)
    assert render_curve_setup(parsed) == CURVE_TEXT


def test_private_file_round_trips(e37):
    record = _private_file(e37)
    text = render_private_key(record)
    parsed = parse_private_key(text)
    assert parsed == record
    assert render_private_key(parsed) == text


def test_general_public_file_round_trips(e37):
    private_record = _private_file(e37)
    record = GeneralPublicKeyFile(private_record.setup, private_record.public)
    text = render_general_public_key(record)
    parsed = parse_general_public_key(text)
    assert parsed == record
    assert render_general_public_key(parsed) == text


def test_specific_public_file_round_trips(e37):
    own = _private_file(e37)
    peer = _private_file(e37, scalar=7, point=(11, 20))
    specific = derive_specific(own.key, peer.public.k2, "alice", "bob")
    record = SpecificPublicKeyFile(own.setup, specific)
    text = render_specific_public_key(record)
    parsed = parse_specific_public_key(text)
    assert parsed == record
    assert render_specific_public_key(parsed) == text


def test_infinity_public_points_round_trip(e37, e37_base):
    # With secret point -C the first public point is scalar*infinity = inf.
    private, public = keypair_from_secret(e37, e37_base, 5, -e37_base)
    assert public.k1.is_infinity
    record = PrivateKeyFile(_setup(e37), private, public)
    text = render_private_key(record)
    assert "pub1 = inf\n" in text
    assert parse_private_key(text) == record

    public_record = GeneralPublicKeyFile(_setup(e37), public)
    public_text = render_general_public_key(public_record)
    assert parse_general_public_key(public_text) == public_record


@given(st.integers(1, 42), st.integers(1, 42))
def test_private_file_round_trips_for_any_secrets(scalar, point_factor):
    curve = _ROUND_TRIP_CURVE
    base = curve.point(*vectors.BASE)
    private, public = keypair_from_secret(curve, base, scalar, point_factor * base)
    record = PrivateKeyFile(
        CurveSetup(curve, base, curve.point(*vectors.TABLE_POINT), vectors.ALPHABET),
        private,
        public,
    )
    text = render_private_key(record)
    assert parse_private_key(text) == record
    assert render_private_key(parse_private_key(text)) == text


_ROUND_TRIP_CURVE = Curve(vectors.P, vectors.A, vectors.B)

_NAME_CHARS = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\n"), max_size=12
)


@given(_NAME_CHARS, _NAME_CHARS)
def test_specific_file_round_trips_for_any_party_names(issuer, audience):
    curve = _ROUND_TRIP_CURVE
    setup = CurveSetup(
        curve, curve.point(*vectors.BASE), curve.point(*vectors.TABLE_POINT),
        vectors.ALPHABET,
    )
    record = SpecificPublicKeyFile(
        setup, SpecificPublicKey(curve.point(15, 11), issuer, audience)
    )
    text = render_specific_public_key(record)
    assert parse_specific_public_key(text) == record
    assert render_specific_public_key(parse_specific_public_key(text)) == text


# ----------------------------------------------------------------- records

def test_file_records_take_positional_and_keyword_arguments(e37):
    base, table = e37.point(*vectors.BASE), e37.point(*vectors.TABLE_POINT)
    for setup in (CurveSetup(e37, base, table, vectors.ALPHABET),
                  CurveSetup(curve=e37, base=base, table_point=table, alphabet=vectors.ALPHABET)):
        assert (setup.curve, setup.base, setup.table_point, setup.alphabet) == (
            e37, base, table, vectors.ALPHABET)
    setup, own = _setup(e37), _private_file(e37)
    for record in (PrivateKeyFile(setup, own.key, own.public),
                   PrivateKeyFile(setup=setup, key=own.key, public=own.public)):
        assert (record.setup, record.key, record.public) == (setup, own.key, own.public)
    for record in (GeneralPublicKeyFile(setup, own.public),
                   GeneralPublicKeyFile(setup=setup, key=own.public)):
        assert (record.setup, record.key) == (setup, own.public)
    specific = SpecificPublicKey(table, "alice", "bob")
    for record in (SpecificPublicKeyFile(setup, specific),
                   SpecificPublicKeyFile(setup=setup, key=specific)):
        assert (record.setup, record.key) == (setup, specific)


def test_curve_setups_compare_and_hash_by_every_field(e37, e31):
    setup = _setup(e37)
    fresh = Curve(vectors.P, vectors.A, vectors.B)
    same = CurveSetup(fresh, fresh.point(*vectors.BASE), fresh.point(*vectors.TABLE_POINT),
                      vectors.ALPHABET)
    assert setup == same and not setup != same
    assert hash(setup) == hash(same)
    base, table = setup.base, setup.table_point
    e31_points = e31.enumerate_points()
    others = [
        CurveSetup(e31, e31_points[1], e31_points[2], vectors.ALPHABET),
        CurveSetup(e37, table, base, vectors.ALPHABET),
        CurveSetup(e37, base, base, vectors.ALPHABET),
        CurveSetup(e37, base, table, vectors.ALPHABET[::-1]),
    ]
    for other in others:
        assert setup != other and not setup == other
    assert setup != (e37, base, table, vectors.ALPHABET)
    assert len({setup, same, *others}) == 1 + len(others)


# --------------------------------------------------------------- validation

def _mutate(text, old, new):
    assert old in text
    return text.replace(old, new)


def test_unknown_format_tag():
    bad = _mutate(CURVE_TEXT, "ecff-v1", "ecff-v2")
    with pytest.raises(KeyFileError, match="line 1"):
        parse_curve_setup(bad)


def test_wrong_kind():
    with pytest.raises(KeyFileError, match="line 2"):
        parse_private_key(CURVE_TEXT)


def test_missing_field():
    truncated = "".join(CURVE_TEXT.splitlines(keepends=True)[:-1])
    with pytest.raises(KeyFileError, match="alphabet"):
        parse_curve_setup(truncated)


def test_trailing_content():
    with pytest.raises(KeyFileError, match="line 11"):
        parse_curve_setup(CURVE_TEXT + "extra = 1\n")


def test_missing_final_newline():
    with pytest.raises(KeyFileError):
        parse_curve_setup(CURVE_TEXT[:-1])


def test_non_canonical_integer():
    bad = _mutate(CURVE_TEXT, "p = 37", "p = 037")
    with pytest.raises(KeyFileError, match="decimal"):
        parse_curve_setup(bad)


def test_composite_modulus():
    bad = _mutate(CURVE_TEXT, "p = 37", "p = 35")
    with pytest.raises(KeyFileError, match="line 3"):
        parse_curve_setup(bad)


def test_coefficient_not_reduced():
    bad = _mutate(CURVE_TEXT, "a = 2", "a = 39")
    with pytest.raises(KeyFileError, match="line 4"):
        parse_curve_setup(bad)


def test_singular_curve_file():
    bad = _mutate(_mutate(CURVE_TEXT, "a = 2", "a = 0"), "b = 9", "b = 0")
    with pytest.raises(KeyFileError, match="singular"):
        parse_curve_setup(bad)


def test_off_curve_point():
    bad = _mutate(CURVE_TEXT, "base.y = 4", "base.y = 5")
    with pytest.raises(KeyFileError, match="not on the curve"):
        parse_curve_setup(bad)


def test_coordinate_at_or_above_p():
    bad = _mutate(CURVE_TEXT, "base.x = 9", "base.x = 37")
    with pytest.raises(KeyFileError, match="below p"):
        parse_curve_setup(bad)


def test_base_must_not_be_infinity():
    lines = CURVE_TEXT.splitlines(keepends=True)
    bad = "".join(lines[:5]) + "base = inf\n" + "".join(lines[7:])
    with pytest.raises(KeyFileError, match="inf"):
        parse_curve_setup(bad)


def test_duplicate_alphabet_symbols():
    bad = _mutate(CURVE_TEXT, "alphabet = *abc", "alphabet = *aac")
    with pytest.raises(KeyFileError, match="distinct"):
        parse_curve_setup(bad)


def test_zero_scalar_is_out_of_range(e37):
    text = render_private_key(_private_file(e37))
    bad = _mutate(text, "alpha = 5", "alpha = 0")
    with pytest.raises(KeyFileError, match="^line 11: .*(alpha|scalar)"):
        parse_private_key(bad)


def test_oversized_scalar_is_out_of_range(e37):
    text = render_private_key(_private_file(e37))
    bad = _mutate(text, "alpha = 5", "alpha = 43")
    with pytest.raises(KeyFileError, match="^line 11: .*\\[1, 42\\]"):
        parse_private_key(bad)


def test_stored_public_key_must_match_private(e37):
    text = render_private_key(_private_file(e37))
    bad = _mutate(text, "pub1.x = 1\npub1.y = 7", "pub1.x = 11\npub1.y = 17")
    with pytest.raises(KeyFileError, match="^line 15: .*does not match"):
        parse_private_key(bad)


def test_private_secret_point_must_not_be_infinity(e37):
    text = render_private_key(_private_file(e37))
    bad = text.replace("point.x = 10\npoint.y = 20", "point = inf")
    with pytest.raises(KeyFileError, match="inf"):
        parse_private_key(bad)


def test_public_file_does_not_expose_secrets(e37):
    record = _private_file(e37)
    text = render_general_public_key(GeneralPublicKeyFile(record.setup, record.public))
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert "alpha" not in keys
    assert "point.x" not in keys and "point" not in keys


def test_newlines_in_values_cannot_be_rendered(e37):
    setup = _setup(e37)
    record = SpecificPublicKeyFile(
        setup, SpecificPublicKey(e37.point(15, 11), "a\nb", "c")
    )
    with pytest.raises(ValueError, match="newline"):
        render_specific_public_key(record)


def test_error_messages_carry_line_numbers():
    cases = [
        _mutate(CURVE_TEXT, "p = 37", "p = 35"),
        _mutate(CURVE_TEXT, "base.y = 4", "base.y = 5"),
        CURVE_TEXT + "extra = 1\n",
    ]
    for bad in cases:
        with pytest.raises(KeyFileError, match="line \\d+"):
            parse_curve_setup(bad)


def _rendered(kind, e37):
    record = _private_file(e37)
    if kind == "curve":
        return render_curve_setup(record.setup), parse_curve_setup
    if kind == "private":
        return render_private_key(record), parse_private_key
    if kind == "public-general":
        general = GeneralPublicKeyFile(record.setup, record.public)
        return render_general_public_key(general), parse_general_public_key
    specific = derive_specific(record.key, record.public.k2, "alice", "bob")
    text = render_specific_public_key(SpecificPublicKeyFile(record.setup, specific))
    return text, parse_specific_public_key


@pytest.mark.parametrize(
    "kind, length",
    [("curve", 10), ("private", 17), ("public-general", 14), ("public-specific", 14)],
)
def test_every_line_is_cited_by_its_number(e37, kind, length):
    text, parse = _rendered(kind, e37)
    lines = text.splitlines(keepends=True)
    assert len(lines) == length
    for k in range(1, length + 1):
        bad = "".join(lines[:k - 1] + ["junk = 1\n"] + lines[k:])
        with pytest.raises(KeyFileError, match=f"^line {k}: "):
            parse(bad)


@pytest.mark.parametrize("digit_limit", ["default", "unlimited"])
@pytest.mark.parametrize("key, line", [("p", 3), ("alpha", 11)])
def test_overlong_integer_is_refused_with_its_line(e37, key, line, digit_limit):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default); without that limit the range checks refuse the value.
    text, parse = _rendered("curve" if key == "p" else "private", e37)
    lines = text.splitlines(keepends=True)
    assert lines[line - 1].startswith(f"{key} = ")
    lines[line - 1] = f"{key} = {'1' * 5000}\n"
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit == "unlimited" and saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(KeyFileError, match=f"^line {line}: "):
            parse("".join(lines))
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
