"""Canonical text files for curve setups and key material.

One flat format, `ecff-v1`, shared by every file kind::

    format = ecff-v1
    kind = curve | private | public-general | public-specific
    ... fixed key = value lines per kind ...

Every kind embeds the full curve setup (modulus, coefficients, shared base
point, code-table point, alphabet) so any file is self-describing and any
two files can be checked for agreement.  Points are written as `name.x` /
`name.y` line pairs, or `name = inf` for the identity.  Integers are plain
decimals without leading zeros.  Files are canonical: fixed key order, one
`key = value` per line, single spaces, trailing newline — so parse followed
by render is byte-identical, and any accepted file is already canonical.

Parsing and rendering are pure string functions; callers own the file I/O.
The suggested extension is `.ecff`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .codec import CodeTable
from .curve import Curve, Point, PointNotOnCurveError, SingularCurveError
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


@dataclass(frozen=True)
class CurveSetup:
    """The public agreement two parties share: curve, base point C used for
    keys and nonces, the point generating the code table, and the alphabet."""

    curve: Curve
    base: Point
    table_point: Point
    alphabet: str

    def __post_init__(self):
        if self.base.curve != self.curve or self.table_point.curve != self.curve:
            raise ValueError("setup points must lie on the setup curve")
        if self.base.is_infinity or self.table_point.is_infinity:
            raise ValueError("setup points must not be infinity")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be non-empty with distinct symbols")

    def code_table(self) -> CodeTable:
        return CodeTable.from_generator(self.curve, self.table_point, self.alphabet)


@dataclass(frozen=True)
class PrivateKeyFile:
    setup: CurveSetup
    key: PrivateKey
    public: GeneralPublicKey


@dataclass(frozen=True)
class GeneralPublicKeyFile:
    setup: CurveSetup
    key: GeneralPublicKey


@dataclass(frozen=True)
class SpecificPublicKeyFile:
    setup: CurveSetup
    key: SpecificPublicKey


# ---------------------------------------------------------------- rendering

def _point_lines(name: str, point: Point) -> list[tuple[str, str]]:
    if point.is_infinity:
        return [(name, "inf")]
    return [(f"{name}.x", str(point.x)), (f"{name}.y", str(point.y))]


def _setup_lines(setup: CurveSetup) -> list[tuple[str, str]]:
    lines = [
        ("p", str(setup.curve.p)),
        ("a", str(setup.curve.a)),
        ("b", str(setup.curve.b)),
    ]
    lines += _point_lines("base", setup.base)
    lines += _point_lines("table", setup.table_point)
    lines.append(("alphabet", setup.alphabet))
    return lines


def _render(kind: str, body: list[tuple[str, str]]) -> str:
    lines = [("format", FORMAT_TAG), ("kind", kind)] + body
    for key, value in lines:
        if "\n" in value:
            raise ValueError(f"{key} must not contain newlines")
    return "".join(f"{key} = {value}\n" for key, value in lines)


def render_curve_setup(setup: CurveSetup) -> str:
    return _render(KIND_CURVE, _setup_lines(setup))


def render_private_key(record: PrivateKeyFile) -> str:
    body = _setup_lines(record.setup)
    body.append(("alpha", str(record.key.scalar)))
    body += _point_lines("point", record.key.point)
    body += _point_lines("pub1", record.public.k1)
    body += _point_lines("pub2", record.public.k2)
    return _render(KIND_PRIVATE, body)


def render_general_public_key(record: GeneralPublicKeyFile) -> str:
    body = _setup_lines(record.setup)
    body += _point_lines("pub1", record.key.k1)
    body += _point_lines("pub2", record.key.k2)
    return _render(KIND_PUBLIC_GENERAL, body)


def render_specific_public_key(record: SpecificPublicKeyFile) -> str:
    body = _setup_lines(record.setup)
    body.append(("issuer", record.key.issuer))
    body.append(("audience", record.key.audience))
    body += _point_lines("point", record.key.point)
    return _render(KIND_PUBLIC_SPECIFIC, body)


# ------------------------------------------------------------------ parsing

class _Reader:
    """Strict line reader: enforces the canonical key order and syntax."""

    def __init__(self, text: str):
        if not text.endswith("\n"):
            raise KeyFileError("line 1: file must end with a newline")
        self.lines = text.split("\n")[:-1]
        self.pos = 0

    @property
    def line_no(self) -> int:
        return self.pos  # 1-based number of the line just consumed

    def peek_key(self) -> str | None:
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos].split(" = ", 1)[0]

    def take(self, key: str) -> str:
        if self.pos >= len(self.lines):
            raise KeyFileError(f"line {self.pos + 1}: missing entry {key!r}")
        line = self.lines[self.pos]
        self.pos += 1
        head, sep, value = line.partition(" = ")
        if not sep or head != key:
            raise KeyFileError(f"line {self.pos}: expected {key!r} entry, got {line!r}")
        return value

    def take_int(self, key: str) -> int:
        value = self.take(key)
        if not _INT_RE.match(value):
            raise KeyFileError(f"line {self.line_no}: {key} must be a plain decimal, got {value!r}")
        return int(value)

    def take_point(self, curve: Curve, name: str, allow_infinity: bool) -> Point:
        if self.peek_key() == name:
            value = self.take(name)
            if value != "inf":
                raise KeyFileError(f"line {self.line_no}: {name} must be {name}.x/.y lines or 'inf'")
            if not allow_infinity:
                raise KeyFileError(f"line {self.line_no}: {name} must not be inf")
            return curve.infinity()
        x = self.take_int(f"{name}.x")
        if x >= curve.p:
            raise KeyFileError(f"line {self.line_no}: {name}.x must be below p")
        y = self.take_int(f"{name}.y")
        if y >= curve.p:
            raise KeyFileError(f"line {self.line_no}: {name}.y must be below p")
        try:
            return curve.point(x, y)
        except PointNotOnCurveError:
            raise KeyFileError(f"line {self.line_no}: point {name} = ({x},{y}) is not on the curve") from None

    def finish(self):
        if self.pos != len(self.lines):
            raise KeyFileError(f"line {self.pos + 1}: unexpected trailing content")


def _parse_header(reader: _Reader, expected_kind: str):
    tag = reader.take("format")
    if tag != FORMAT_TAG:
        raise KeyFileError(f"line 1: unknown format tag {tag!r}")
    kind = reader.take("kind")
    if kind != expected_kind:
        raise KeyFileError(f"line 2: expected kind {expected_kind!r}, found {kind!r}")


def _parse_setup(reader: _Reader) -> CurveSetup:
    p = reader.take_int("p")
    p_line = reader.line_no
    try:
        prime = Prime(p)
    except ValueError as exc:
        raise KeyFileError(f"line {p_line}: {exc}") from None
    a = reader.take_int("a")
    if a >= prime:
        raise KeyFileError(f"line {reader.line_no}: a must be below p")
    b = reader.take_int("b")
    b_line = reader.line_no
    if b >= prime:
        raise KeyFileError(f"line {b_line}: b must be below p")
    try:
        curve = Curve(prime, a, b)
    except SingularCurveError as exc:
        raise KeyFileError(f"line {b_line}: {exc}") from None
    base = reader.take_point(curve, "base", allow_infinity=False)
    table_point = reader.take_point(curve, "table", allow_infinity=False)
    alphabet = reader.take("alphabet")
    try:
        return CurveSetup(curve, base, table_point, alphabet)
    except ValueError as exc:
        raise KeyFileError(f"line {reader.line_no}: {exc}") from None


def parse_curve_setup(text: str) -> CurveSetup:
    reader = _Reader(text)
    _parse_header(reader, KIND_CURVE)
    setup = _parse_setup(reader)
    reader.finish()
    return setup


def parse_private_key(text: str) -> PrivateKeyFile:
    reader = _Reader(text)
    _parse_header(reader, KIND_PRIVATE)
    setup = _parse_setup(reader)
    scalar = reader.take_int("alpha")
    scalar_line = reader.line_no
    secret_point = reader.take_point(setup.curve, "point", allow_infinity=False)
    pub1 = reader.take_point(setup.curve, "pub1", allow_infinity=True)
    pub_line = reader.line_no
    pub2 = reader.take_point(setup.curve, "pub2", allow_infinity=True)
    reader.finish()
    setup.curve.enumerate_points()
    try:
        private, public = keypair_from_secret(setup.curve, setup.base, scalar, secret_point)
    except ValueError as exc:
        raise KeyFileError(f"line {scalar_line}: {exc}") from None
    if public.k1 != pub1 or public.k2 != pub2:
        raise KeyFileError(
            f"line {pub_line}: stored public key does not match the private key"
        )
    return PrivateKeyFile(setup, private, public)


def parse_general_public_key(text: str) -> GeneralPublicKeyFile:
    reader = _Reader(text)
    _parse_header(reader, KIND_PUBLIC_GENERAL)
    setup = _parse_setup(reader)
    pub1 = reader.take_point(setup.curve, "pub1", allow_infinity=True)
    pub2 = reader.take_point(setup.curve, "pub2", allow_infinity=True)
    reader.finish()
    return GeneralPublicKeyFile(setup, GeneralPublicKey(pub1, pub2))


def parse_specific_public_key(text: str) -> SpecificPublicKeyFile:
    reader = _Reader(text)
    _parse_header(reader, KIND_PUBLIC_SPECIFIC)
    setup = _parse_setup(reader)
    issuer = reader.take("issuer")
    audience = reader.take("audience")
    point = reader.take_point(setup.curve, "point", allow_infinity=True)
    reader.finish()
    return SpecificPublicKeyFile(setup, SpecificPublicKey(point, issuer, audience))
