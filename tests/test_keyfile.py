"""The ecff-v1 canonical text format: rendering, parsing, validation."""

import random
import re
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import vectors
from eccipher import Curve, CurveSetup, KeyFileError, cli, keypair_from_secret
from eccipher.keyfile import (
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
    """The values of a private key file: (setup, private, public)."""
    private, public = keypair_from_secret(
        e37, e37.point(*vectors.BASE), scalar, e37.point(*point)
    )
    return _setup(e37), private, public


# --------------------------------------------------------------- round trip

def test_curve_file_renders_canonically(e37):
    assert render_curve_setup(_setup(e37)) == CURVE_TEXT


def test_curve_file_round_trips_byte_identically(e37):
    parsed = parse_curve_setup(CURVE_TEXT)
    assert parsed == _setup(e37)
    assert render_curve_setup(parsed) == CURVE_TEXT


def test_private_file_round_trips(e37):
    values = _private_file(e37)
    text = render_private_key(*values)
    parsed = parse_private_key(text)
    assert type(parsed) is tuple and parsed == values
    assert render_private_key(*parsed) == text


def test_general_public_file_round_trips(e37):
    setup, _, public = _private_file(e37)
    text = render_general_public_key(setup, public)
    parsed = parse_general_public_key(text)
    assert type(parsed) is tuple and parsed == (setup, public)
    assert render_general_public_key(*parsed) == text


def test_specific_public_file_round_trips(e37):
    setup, own, _ = _private_file(e37)
    _, _, peer = _private_file(e37, scalar=7, point=(11, 20))
    specific = derive_specific(own, peer.k2, "alice", "bob")
    text = render_specific_public_key(setup, specific)
    parsed = parse_specific_public_key(text)
    assert type(parsed) is tuple and parsed == (setup, specific)
    assert render_specific_public_key(*parsed) == text


def test_infinity_public_points_round_trip(e37, e37_base):
    # With secret point -C the first public point is scalar*infinity = inf.
    private, public = keypair_from_secret(e37, e37_base, 5, -e37_base)
    assert public.k1.is_infinity
    text = render_private_key(_setup(e37), private, public)
    assert "pub1 = inf\n" in text
    assert parse_private_key(text) == (_setup(e37), private, public)

    public_text = render_general_public_key(_setup(e37), public)
    assert parse_general_public_key(public_text) == (_setup(e37), public)


@given(st.integers(1, 42), st.integers(1, 42))
def test_private_file_round_trips_for_any_secrets(scalar, point_factor):
    curve = _ROUND_TRIP_CURVE
    base = curve.point(*vectors.BASE)
    private, public = keypair_from_secret(curve, base, scalar, point_factor * base)
    values = (
        CurveSetup(curve, base, curve.point(*vectors.TABLE_POINT), vectors.ALPHABET),
        private,
        public,
    )
    text = render_private_key(*values)
    assert parse_private_key(text) == values
    assert render_private_key(*parse_private_key(text)) == text


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
    values = (setup, SpecificPublicKey(curve.point(15, 11), issuer, audience))
    text = render_specific_public_key(*values)
    assert parse_specific_public_key(text) == values
    assert render_specific_public_key(*parse_specific_public_key(text)) == text


# ----------------------------------------------------------------- records

def test_file_records_take_positional_and_keyword_arguments(e37):
    base, table = e37.point(*vectors.BASE), e37.point(*vectors.TABLE_POINT)
    for setup in (CurveSetup(e37, base, table, vectors.ALPHABET),
                  CurveSetup(curve=e37, base=base, table_point=table, alphabet=vectors.ALPHABET)):
        assert (setup.curve, setup.base, setup.table_point, setup.alphabet) == (
            e37, base, table, vectors.ALPHABET)


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


@pytest.mark.parametrize("kind, name, line", [
    ("curve", "base", 6), ("private", "point", 12), ("private", "pub1", 14),
    ("public-general", "pub1", 11), ("public-general", "pub2", 13),
    ("public-specific", "point", 13),
])
def test_a_point_entry_is_coordinates_or_inf(e37, kind, name, line):
    text, parse = _rendered(kind, e37)
    lines = text.splitlines(keepends=True)
    assert lines[line - 1].startswith(f"{name}.x = ")
    bad = "".join(lines[:line - 1] + [f"{name} = 5\n"] + lines[line + 1:])
    message = f"line {line}: {name} must be {name}.x/.y lines or 'inf'"
    with pytest.raises(KeyFileError, match=f"^{re.escape(message)}$"):
        parse(bad)


def test_curve_setup_checks_run_in_order(e37):
    base, table = e37.point(*vectors.BASE), e37.point(*vectors.TABLE_POINT)
    # (0,3) lies on both E_37(2,9) and E_37(3,9), so only the curve differs.
    twin = Curve(37, 3, 9).point(0, 3)
    foreign = "setup points must lie on the setup curve"
    infinity = "setup points must not be infinity"
    alphabet = "alphabet must be non-empty with distinct symbols"
    checks = [
        ((e37, twin, table, vectors.ALPHABET), foreign),
        ((e37, base, twin, vectors.ALPHABET), foreign),
        ((e37, base, twin.curve.infinity(), ""), foreign),
        ((e37, e37.infinity(), table, ""), infinity),
        ((e37, base, e37.infinity(), "aa"), infinity),
        ((e37, base, table, "*aa"), alphabet),
        ((e37, base, table, ""), alphabet),
    ]
    for args, message in checks:
        with pytest.raises(ValueError, match=f"^{message}$"):
            CurveSetup(*args)


def test_duplicate_alphabet_symbols():
    bad = _mutate(CURVE_TEXT, "alphabet = *abc", "alphabet = *aac")
    with pytest.raises(KeyFileError, match="distinct"):
        parse_curve_setup(bad)


def test_zero_scalar_is_out_of_range(e37):
    text = render_private_key(*_private_file(e37))
    bad = _mutate(text, "alpha = 5", "alpha = 0")
    with pytest.raises(KeyFileError, match="^line 11: .*(alpha|scalar)"):
        parse_private_key(bad)


def test_oversized_scalar_is_out_of_range(e37):
    text = render_private_key(*_private_file(e37))
    bad = _mutate(text, "alpha = 5", "alpha = 43")
    with pytest.raises(KeyFileError, match="^line 11: .*\\[1, 42\\]"):
        parse_private_key(bad)


def test_stored_public_key_must_match_private(e37):
    text = render_private_key(*_private_file(e37))
    bad = _mutate(text, "pub1.x = 1\npub1.y = 7", "pub1.x = 11\npub1.y = 17")
    with pytest.raises(KeyFileError, match="^line 15: .*does not match"):
        parse_private_key(bad)


def test_private_secret_point_must_not_be_infinity(e37):
    text = render_private_key(*_private_file(e37))
    bad = text.replace("point.x = 10\npoint.y = 20", "point = inf")
    with pytest.raises(KeyFileError, match="inf"):
        parse_private_key(bad)


def test_public_file_does_not_expose_secrets(e37):
    setup, _, public = _private_file(e37)
    text = render_general_public_key(setup, public)
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert "alpha" not in keys
    assert "point.x" not in keys and "point" not in keys


def test_newlines_in_values_cannot_be_rendered(e37):
    specific = SpecificPublicKey(e37.point(15, 11), "a\nb", "c")
    with pytest.raises(ValueError, match="newline"):
        render_specific_public_key(_setup(e37), specific)


# parse_X(render_X(*values)) == values for every value render_X accepts:
# each case below used to be written as a file its parser refuses or reads
# back as another value.

def test_a_point_off_the_setup_curve_cannot_be_rendered(e37):
    setup, _, public = _private_file(e37)
    # (0,3) lies on both E_37(2,9) and E_37(3,9), so only the curve differs.
    twin = Curve(37, 3, 9).point(0, 3)
    cases = [
        (render_general_public_key, GeneralPublicKey(twin, public.k2), "pub1"),
        (render_general_public_key, GeneralPublicKey(public.k1, Curve(37, 3, 9).infinity()),
         "pub2"),
        (render_specific_public_key, SpecificPublicKey(twin, "alice", "bob"), "point"),
        (render_specific_public_key, SpecificPublicKey((0, 3)), "point"),
    ]
    for render, key, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be a point on the setup's curve "):
            render(setup, key)


def test_a_text_entry_that_is_not_a_str_cannot_be_rendered(e37):
    setup = _setup(e37)
    point = e37.point(15, 11)
    for key, name in ((SpecificPublicKey(point, 5, None), "issuer"),
                      (SpecificPublicKey(point, "alice", None), "audience")):
        with pytest.raises(ValueError, match=f"^{name} must be a str, got "):
            render_specific_public_key(setup, key)
    # CurveSetup refuses a tuple alphabet itself, so this one is set after.
    tupled = CurveSetup(e37, setup.base, setup.table_point, vectors.ALPHABET)
    tupled.alphabet = tuple(vectors.ALPHABET)
    with pytest.raises(ValueError, match="^alphabet must be a str, got tuple$"):
        render_curve_setup(tupled)


def test_a_private_key_the_parser_would_refuse_cannot_be_rendered(e37):
    setup, private, public = _private_file(e37)
    _, _, other_public = _private_file(e37, scalar=7, point=(11, 20))
    with pytest.raises(ValueError, match="^public key does not match the private key$"):
        render_private_key(setup, private, other_public)
    other_base = 2 * setup.base
    keys = keypair_from_secret(e37, other_base, 5, private.point)
    message = f"private key's base point {other_base} is not the setup's (9,4)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        render_private_key(setup, *keys)
    assert parse_private_key(render_private_key(setup, private, public)) == (setup, private, public)


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
    setup, private, public = _private_file(e37)
    if kind == "curve":
        return render_curve_setup(setup), parse_curve_setup
    if kind == "private":
        return render_private_key(setup, private, public), parse_private_key
    if kind == "public-general":
        return render_general_public_key(setup, public), parse_general_public_key
    specific = derive_specific(private, public.k2, "alice", "bob")
    return render_specific_public_key(setup, specific), parse_specific_public_key


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


# ------------------------------------------------------------- setup lines

_KEY_KINDS = ("private", "public-general", "public-specific")


def test_files_with_equal_setup_lines_give_equal_setups_of_their_own(e37):
    setups = [parse(text)[0] for text, parse in (_rendered(kind, e37) for kind in _KEY_KINDS)]
    assert setups[0] == _setup(e37)
    assert setups[1] == setups[0] and setups[2] == setups[0]
    assert setups[1] is not setups[0] and setups[2] is not setups[0]
    assert parse_curve_setup(CURVE_TEXT) == setups[0]
    assert parse_curve_setup(CURVE_TEXT) is not parse_curve_setup(CURVE_TEXT)


def test_a_different_alphabet_line_gives_a_different_setup(e37, tmp_path, monkeypatch, capsys):
    reversed_text = _mutate(CURVE_TEXT, vectors.ALPHABET, vectors.ALPHABET[::-1])
    assert parse_curve_setup(CURVE_TEXT) != parse_curve_setup(reversed_text)
    assert parse_curve_setup(reversed_text).alphabet == vectors.ALPHABET[::-1]
    # The recipient's general key is the only file on the reversed alphabet.
    private_text, public_text, specific_text = (_rendered(kind, e37)[0] for kind in _KEY_KINDS)
    public_text = _mutate(public_text, vectors.ALPHABET, vectors.ALPHABET[::-1])
    for name, text in (("bob.priv", private_text), ("alice.pub", public_text),
                       ("alice_for_bob.spec", specific_text)):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
                     "--peer-specific", "alice_for_bob.spec", "--message", "a",
                     "--gammas", "3"]) == 2
    assert capsys.readouterr() == ("", "error: key files disagree on the curve setup\n")


@pytest.mark.parametrize("kind, length",
                         [("private", 17), ("public-general", 14), ("public-specific", 14)])
def test_body_errors_after_a_shared_setup_cite_their_own_line(e37, kind, length):
    text, parse = _rendered(kind, e37)
    lines = text.splitlines(keepends=True)
    for k in range(11, length + 1):
        parse(text)
        bad = "".join(lines[:k - 1] + ["junk = 1\n"] + lines[k:])
        with pytest.raises(KeyFileError, match=f"^line {k}: "):
            parse(bad)


def test_a_setup_that_differs_after_a_good_parse_is_checked_again(e37):
    text, parse = _rendered("private", e37)
    parse(text)
    bad = _mutate(text, "base.y = 4\n", "base.y = 5\n")
    for _ in range(2):
        with pytest.raises(KeyFileError, match="^line 7: point base = \\(9,5\\) is not on the curve"):
            parse(bad)


@pytest.mark.parametrize("kind", ["curve", "private", "public-general", "public-specific"])
def test_a_file_cut_inside_its_setup_names_the_missing_entry(e37, kind):
    text, parse = _rendered(kind, e37)
    lines = text.splitlines(keepends=True)
    keys = ["p", "a", "b", "base.x", "base.y", "table.x", "table.y", "alphabet"]
    for k, key in enumerate(keys, start=3):
        parse(text)
        with pytest.raises(KeyFileError, match=f"^line {k}: missing entry {key!r}$"):
            parse("".join(lines[:k - 1]))


def test_threads_parsing_two_setups_each_get_their_own(e37, e1009, race):
    # Each parse indexes its alphabet through codec's one-entry cache, and
    # threads parsing setups on two alphabets keep replacing it; each must
    # still get the setup of its own text.
    mid_base = e1009.point(*vectors.MID_BASE)
    mid = CurveSetup(e1009, mid_base, mid_base, "xyz")
    expected = {CURVE_TEXT: _setup(e37), render_curve_setup(mid): mid}
    texts = list(expected)
    start = threading.Barrier(8)
    errors = []

    def worker(index):
        try:
            start.wait(timeout=60)
            for i in range(300):
                text = texts[(index + i) % 2]
                assert parse_curve_setup(text) == expected[text]
        except Exception as exc:
            errors.append(exc)

    race(worker, [(index,) for index in range(8)])
    assert errors == []
