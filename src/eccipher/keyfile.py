"""Canonical text files for curve setups and key material.

This module is the file format alone: it writes and reads setups and keys,
and checks only what a file can get wrong.  The setup, `CurveSetup`, and
the rule that the cipher on it is total live in `codec`; the keys and
their ranges live in `keys`.

One flat format, `ecff-v1`, shared by every file kind::

    format = ecff-v1
    kind = curve | private | public-general | public-specific
    ... fixed key = value lines per kind ...

Every kind embeds the full curve setup (modulus, coefficients, shared base
point, code-table point, alphabet) so any file is self-describing and any
two files can be checked for agreement.  The setup is always lines 3-10.
`_BODY` lists each kind's entries after the setup; the writer and the
reader both follow it.
Points are written as `name.x` / `name.y` line pairs, or `name = inf` for
the identity.  Integers are plain decimals without leading zeros.  Files
are canonical: fixed key order, one `key = value` per line, single spaces,
trailing newline — so parse followed by render is byte-identical, and any
accepted file is already canonical.

Parsing and rendering are pure string functions; callers own the file I/O.
`render_X` takes the setup and the keys, and `parse_X` returns them:
`(setup, private, public)` for a private key, `(setup, key)` for a public
one, so `parse_X(render_X(*values)) == values`: `render_X` refuses with
`ValueError` any value that `parse_X` would not give back, such as a point
off the setup's curve, a text entry that is not a `str`, or a private key
on another base or with a public pair not its own.  The suggested
extension is `.ecff`.
"""

from __future__ import annotations

import re

from ._messages import brief
from .codec import CurveSetup
from .curve import Curve, CurveTooLargeError, Point, PointNotOnCurveError, SingularCurveError
from .field import Prime
from .keys import GeneralPublicKey, PrivateKey, SpecificPublicKey, keypair_from_secret

FORMAT_TAG = "ecff-v1"

KIND_CURVE = "curve"
KIND_PRIVATE = "private"
KIND_PUBLIC_GENERAL = "public-general"
KIND_PUBLIC_SPECIFIC = "public-specific"

_INT_RE = re.compile(r"^(0|[1-9][0-9]*)$")


class KeyFileError(ValueError):
    """A malformed or inconsistent key file; the message cites the line."""


# Each kind's entries after the shared setup lines, in file order:
# `_render` writes them and `_parse` reads them.  A point entry is
# `name.x`/`name.y` lines, or `name = inf` where infinity is allowed.
_INT, _TEXT, _POINT, _POINT_OR_INF = "int", "text", "point", "point-or-inf"
_BODY = {
    KIND_CURVE: (),
    KIND_PRIVATE: (
        ("alpha", _INT), ("point", _POINT), ("pub1", _POINT_OR_INF), ("pub2", _POINT_OR_INF),
    ),
    KIND_PUBLIC_GENERAL: (("pub1", _POINT_OR_INF), ("pub2", _POINT_OR_INF)),
    KIND_PUBLIC_SPECIFIC: (("issuer", _TEXT), ("audience", _TEXT), ("point", _POINT_OR_INF)),
}


# ---------------------------------------------------------------- rendering

def _check_entry(curve: Curve, name: str, entry_type: str, value) -> None:
    """Refuse a value that `_Reader.take_entry` would not give back.  A
    `PrivateKey` holds its own: the one `_INT` entry is its scalar, an int
    in [1, n-1], and the one `_POINT` entry its secret point, never inf."""
    if entry_type == _TEXT:
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a str, got {type(value).__name__}")
        if "\n" in value:
            raise ValueError(f"{name} must not contain newlines")
    elif entry_type != _INT and not (isinstance(value, Point) and value.curve == curve):
        raise ValueError(f"{name} must be a point on the setup's curve {curve!r}")


def _render(kind: str, setup: CurveSetup, *values) -> str:
    """The canonical file of `kind`; `values` follow the order of `_BODY[kind]`,
    and one that `_parse` would not give back raises `ValueError`."""
    curve = setup.curve
    entries = [
        ("format", FORMAT_TAG), ("kind", kind), ("p", curve.p), ("a", curve.a), ("b", curve.b),
        ("base", setup.base), ("table", setup.table_point),
    ]
    checked = zip((("alphabet", _TEXT), *_BODY[kind]), (setup.alphabet, *values), strict=True)
    for (name, entry_type), value in checked:
        _check_entry(curve, name, entry_type, value)
        entries.append((name, value))
    lines = []
    for name, value in entries:
        if not isinstance(value, Point):
            lines.append(f"{name} = {value}\n")
        elif value.is_infinity:
            lines.append(f"{name} = inf\n")
        else:
            lines += [f"{name}.x = {value.x}\n", f"{name}.y = {value.y}\n"]
    return "".join(lines)


def render_curve_setup(setup: CurveSetup) -> str:
    return _render(KIND_CURVE, setup)


def render_private_key(setup: CurveSetup, key: PrivateKey, public: GeneralPublicKey) -> str:
    """Refuses a key whose base is not the setup's, or a public pair not its own,
    as `parse_private_key` would refuse the file."""
    if key.base != setup.base:
        raise ValueError(f"private key's base point {key.base} is not the setup's {setup.base}")
    if keypair_from_secret(setup.curve, setup.base, key.scalar, key.point)[1] != public:
        raise ValueError("public key does not match the private key")
    return _render(KIND_PRIVATE, setup, key.scalar, key.point, public.k1, public.k2)


def render_general_public_key(setup: CurveSetup, key: GeneralPublicKey) -> str:
    return _render(KIND_PUBLIC_GENERAL, setup, key.k1, key.k2)


def render_specific_public_key(setup: CurveSetup, key: SpecificPublicKey) -> str:
    return _render(KIND_PUBLIC_SPECIFIC, setup, key.issuer, key.audience, key.point)


# ------------------------------------------------------------------ parsing

class _Reader:
    """Strict line reader: enforces the canonical key order and syntax.

    `pos` is the 1-based number of the line just read, which every error
    message cites.
    """

    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def take(self, key: str) -> str:
        if self.pos >= len(self.lines):
            raise KeyFileError(f"line {self.pos + 1}: missing entry {key!r}")
        line = self.lines[self.pos]
        self.pos += 1
        head, sep, value = line.partition(" = ")
        if not sep or head != key:
            raise KeyFileError(f"line {self.pos}: expected {key!r} entry, got {brief(line)}")
        return value

    def take_int(self, key: str, below: int | None = None) -> int:
        """A plain decimal, which must be below p when `below` is given."""
        value = self.take(key)
        if not _INT_RE.match(value):
            raise KeyFileError(
                f"line {self.pos}: {key} must be a plain decimal, got {brief(value)}"
            )
        try:
            number = int(value)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise KeyFileError(
                f"line {self.pos}: {key} is too long to read ({len(value)} digits)"
            ) from None
        if below is not None and number >= below:
            raise KeyFileError(f"line {self.pos}: {key} must be below p")
        return number

    def take_point(self, curve: Curve, name: str, allow_infinity: bool) -> Point:
        if self.pos < len(self.lines) and self.lines[self.pos].split(" = ", 1)[0] == name:
            value = self.take(name)
            if value != "inf":
                raise KeyFileError(f"line {self.pos}: {name} must be {name}.x/.y lines or 'inf'")
            if not allow_infinity:
                raise KeyFileError(f"line {self.pos}: {name} must not be inf")
            return curve.infinity()
        x = self.take_int(f"{name}.x", below=curve.p)
        y = self.take_int(f"{name}.y", below=curve.p)
        try:
            return curve.point(x, y)
        except PointNotOnCurveError:
            raise KeyFileError(f"line {self.pos}: point {name} = ({x},{y}) is not on the curve") from None

    def take_entry(self, curve: Curve, name: str, entry_type: str):
        if entry_type == _INT:
            return self.take_int(name)
        if entry_type == _TEXT:
            return self.take(name)
        return self.take_point(curve, name, allow_infinity=entry_type == _POINT_OR_INF)


def _take_setup(reader: _Reader) -> CurveSetup:
    """The setup on file lines 3-10; an error cites its line in the file."""
    p = reader.take_int("p")
    try:
        prime = Prime(p)
    except ValueError as exc:
        raise KeyFileError(f"line {reader.pos}: {exc}") from None
    a = reader.take_int("a", below=prime)
    b = reader.take_int("b", below=prime)
    try:
        curve = Curve(prime, a, b)
    except SingularCurveError as exc:
        raise KeyFileError(f"line {reader.pos}: {exc}") from None
    base = reader.take_point(curve, "base", allow_infinity=False)
    table_point = reader.take_point(curve, "table", allow_infinity=False)
    alphabet = reader.take("alphabet")
    try:
        return CurveSetup(curve, base, table_point, alphabet)
    except ValueError as exc:
        raise KeyFileError(f"line {reader.pos}: {exc}") from None


def _parse(text: str, kind: str) -> tuple[CurveSetup, list, list[int]]:
    """The setup of a `kind` file, its body values in `_BODY[kind]` order,
    and the line on which each value ended."""
    if not text.endswith("\n"):
        raise KeyFileError("line 1: file must end with a newline")
    reader = _Reader(text.split("\n")[:-1])
    tag = reader.take("format")
    if tag != FORMAT_TAG:
        raise KeyFileError(f"line 1: unknown format tag {brief(tag)}")
    found = reader.take("kind")
    if found != kind:
        raise KeyFileError(f"line 2: expected kind {kind!r}, found {brief(found)}")
    setup = _take_setup(reader)
    values, ends = [], []
    for name, entry_type in _BODY[kind]:
        values.append(reader.take_entry(setup.curve, name, entry_type))
        ends.append(reader.pos)
    if reader.pos != len(reader.lines):
        raise KeyFileError(f"line {reader.pos + 1}: unexpected trailing content")
    return setup, values, ends


def parse_curve_setup(text: str) -> CurveSetup:
    return _parse(text, KIND_CURVE)[0]


def parse_private_key(text: str) -> tuple[CurveSetup, PrivateKey, GeneralPublicKey]:
    setup, (scalar, secret_point, pub1, pub2), ends = _parse(text, KIND_PRIVATE)
    scalar_line, _, pub1_line, _ = ends
    try:
        private, public = keypair_from_secret(setup.curve, setup.base, scalar, secret_point)
    except CurveTooLargeError:
        raise  # a fact of the curve, not of the scalar's line
    except ValueError as exc:
        raise KeyFileError(f"line {scalar_line}: {exc}") from None
    if public.k1 != pub1 or public.k2 != pub2:
        raise KeyFileError(f"line {pub1_line}: stored public key does not match the private key")
    return setup, private, public


def parse_general_public_key(text: str) -> tuple[CurveSetup, GeneralPublicKey]:
    setup, (pub1, pub2), _ = _parse(text, KIND_PUBLIC_GENERAL)
    return setup, GeneralPublicKey(pub1, pub2)


def parse_specific_public_key(text: str) -> tuple[CurveSetup, SpecificPublicKey]:
    setup, (issuer, audience, point), _ = _parse(text, KIND_PUBLIC_SPECIFIC)
    return setup, SpecificPublicKey(point, issuer, audience)
