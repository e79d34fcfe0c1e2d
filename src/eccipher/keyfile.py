"""Canonical text files for curve setups and key material.

One flat format, `ecff-v1`, shared by every file kind::

    format = ecff-v1
    kind = curve | private | public-general | public-specific
    ... fixed key = value lines per kind ...

Every kind embeds the full curve setup (modulus, coefficients, shared base
point, code-table point, alphabet) so any file is self-describing and any
two files can be checked for agreement.  `_BODY` lists each kind's entries
after the setup; it is the one description of a kind, which both the writer
and the reader follow.  Points are written as `name.x` / `name.y` line
pairs, or `name = inf` for the identity.  Integers are plain decimals
without leading zeros.  Files are canonical: fixed key order, one
`key = value` per line, single spaces, trailing newline — so parse followed
by render is byte-identical, and any accepted file is already canonical.

Parsing and rendering are pure string functions; callers own the file I/O.
The suggested extension is `.ecff`.
"""

from __future__ import annotations

import re

from ._messages import brief
from ._record import Record
from .codec import CodeTable
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


class CurveSetup(Record):
    """The public agreement two parties share: curve, base point C used for
    keys and nonces, the point generating the code table, and the alphabet."""

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
        if len(set(alphabet)) != len(alphabet) or not alphabet:
            raise ValueError("alphabet must be non-empty with distinct symbols")

    def code_table(self) -> CodeTable:
        return CodeTable.from_generator(self.curve, self.table_point, self.alphabet)


class PrivateKeyFile(Record):
    __slots__ = ("setup", "key", "public")

    def __init__(self, setup: CurveSetup, key: PrivateKey, public: GeneralPublicKey):
        self.setup = setup
        self.key = key
        self.public = public


class GeneralPublicKeyFile(Record):
    __slots__ = ("setup", "key")

    def __init__(self, setup: CurveSetup, key: GeneralPublicKey):
        self.setup = setup
        self.key = key


class SpecificPublicKeyFile(Record):
    __slots__ = ("setup", "key")

    def __init__(self, setup: CurveSetup, key: SpecificPublicKey):
        self.setup = setup
        self.key = key


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

def _render(kind: str, setup: CurveSetup, *values) -> str:
    """The canonical file of `kind`; `values` follow the order of `_BODY[kind]`."""
    curve = setup.curve
    entries = [
        ("format", FORMAT_TAG), ("kind", kind), ("p", curve.p), ("a", curve.a), ("b", curve.b),
        ("base", setup.base), ("table", setup.table_point), ("alphabet", setup.alphabet),
    ]
    entries += zip([name for name, _ in _BODY[kind]], values, strict=True)
    lines = []
    for name, value in entries:
        if isinstance(value, Point):
            if value.is_infinity:
                lines.append(f"{name} = inf\n")
            else:
                lines += [f"{name}.x = {value.x}\n", f"{name}.y = {value.y}\n"]
        elif "\n" in str(value):
            raise ValueError(f"{name} must not contain newlines")
        else:
            lines.append(f"{name} = {value}\n")
    return "".join(lines)


def render_curve_setup(setup: CurveSetup) -> str:
    return _render(KIND_CURVE, setup)


def render_private_key(record: PrivateKeyFile) -> str:
    key, public = record.key, record.public
    return _render(KIND_PRIVATE, record.setup, key.scalar, key.point, public.k1, public.k2)


def render_general_public_key(record: GeneralPublicKeyFile) -> str:
    return _render(KIND_PUBLIC_GENERAL, record.setup, record.key.k1, record.key.k2)


def render_specific_public_key(record: SpecificPublicKeyFile) -> str:
    key = record.key
    return _render(KIND_PUBLIC_SPECIFIC, record.setup, key.issuer, key.audience, key.point)


# ------------------------------------------------------------------ parsing

class _Reader:
    """Strict line reader: enforces the canonical key order and syntax.

    `pos` is the 1-based number of the line just read, which every error
    message cites.
    """

    def __init__(self, text: str):
        if not text.endswith("\n"):
            raise KeyFileError("line 1: file must end with a newline")
        self.lines = text.split("\n")[:-1]
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


def _parse_setup(reader: _Reader) -> CurveSetup:
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
    reader = _Reader(text)
    tag = reader.take("format")
    if tag != FORMAT_TAG:
        raise KeyFileError(f"line 1: unknown format tag {brief(tag)}")
    found = reader.take("kind")
    if found != kind:
        raise KeyFileError(f"line 2: expected kind {kind!r}, found {brief(found)}")
    setup = _parse_setup(reader)
    values, ends = [], []
    for name, entry_type in _BODY[kind]:
        values.append(reader.take_entry(setup.curve, name, entry_type))
        ends.append(reader.pos)
    if reader.pos != len(reader.lines):
        raise KeyFileError(f"line {reader.pos + 1}: unexpected trailing content")
    return setup, values, ends


def parse_curve_setup(text: str) -> CurveSetup:
    return _parse(text, KIND_CURVE)[0]


def parse_private_key(text: str) -> PrivateKeyFile:
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
    return PrivateKeyFile(setup, private, public)


def parse_general_public_key(text: str) -> GeneralPublicKeyFile:
    setup, (pub1, pub2), _ = _parse(text, KIND_PUBLIC_GENERAL)
    return GeneralPublicKeyFile(setup, GeneralPublicKey(pub1, pub2))


def parse_specific_public_key(text: str) -> SpecificPublicKeyFile:
    setup, (issuer, audience, point), _ = _parse(text, KIND_PUBLIC_SPECIFIC)
    return SpecificPublicKeyFile(setup, SpecificPublicKey(point, issuer, audience))
