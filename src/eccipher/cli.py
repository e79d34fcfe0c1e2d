"""Command-line front end: curve setup, key files, encryption, decryption.

Exit codes: 0 on success, 1 for usage errors, 2 for data or validation
errors.  Results go to stdout, everything else to stderr.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import cipher, keyfile, keys
from ._messages import brief
from .codec import DEFAULT_ALPHABET
from .curve import Curve, Point

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # data errors.  Its own "invalid choice" and "unrecognized arguments"
    # messages would repeat a long argument whole; they show brief() of it.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices and brief(value) != repr(value):
            raise argparse.ArgumentError(action, f"invalid choice: {brief(value)}")
        super()._check_value(action, value)

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            shown = (arg if brief(arg) == repr(arg) else brief(arg) for arg in extras)
            self.error(f"unrecognized arguments: {' '.join(shown)}")
        return namespace


def _parse_point(curve: Curve, text: str) -> Point:
    if text == "inf":
        return curve.infinity()
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'X,Y' or 'inf', got {brief(text)}")
    try:
        x, y = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"point coordinates must be integers, got {brief(text)}") from None
    return curve.point(x, y)


def _load(path: str, parse):
    # Bytes, not read_text: universal newlines would turn a lone CR inside
    # a value into a line break.
    return parse(Path(path).read_bytes().decode("utf-8"))


def _save(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _require_same_setup(*setups: keyfile.CurveSetup):
    if any(other != setups[0] for other in setups[1:]):
        raise ValueError("key files disagree on the curve setup")


def _make_rng(seed: int | None) -> random.Random:
    if seed is None:
        return random.SystemRandom()
    return random.Random(seed)


# ----------------------------------------------------------------- commands

def _cmd_curve_init(args) -> int:
    curve = Curve(args.p, args.a, args.b)
    base = _parse_point(curve, args.base)
    table_point = base if args.table_base is None else _parse_point(curve, args.table_base)
    setup = keyfile.CurveSetup(curve, base, table_point, args.alphabet)
    group_order = curve.order  # an oversized p fails here, before any file is written
    setup.code_table()  # fails early if the alphabet does not fit
    _save(args.out, keyfile.render_curve_setup(setup))
    print(f"group order = {group_order}")
    print(f"base point order = {curve.order_of(base)}")
    return 0


def _cmd_curve_points(args) -> int:
    setup = _load(args.curve, keyfile.parse_curve_setup)
    for point in setup.curve.enumerate_points():
        print(point)
    return 0


def _cmd_keygen(args) -> int:
    setup = _load(args.curve, keyfile.parse_curve_setup)
    if args.alpha is not None:
        secret_point = _parse_point(setup.curve, args.point)
        private, public = keys.keypair_from_secret(
            setup.curve, setup.base, args.alpha, secret_point
        )
    else:
        private, public = keys.keygen(setup.curve, setup.base, _make_rng(args.seed))
    _save(args.out_private,
          keyfile.render_private_key(keyfile.PrivateKeyFile(setup, private, public)))
    _save(args.out_public,
          keyfile.render_general_public_key(keyfile.GeneralPublicKeyFile(setup, public)))
    return 0


def _cmd_derive_specific(args) -> int:
    own = _load(args.private, keyfile.parse_private_key)
    peer = _load(args.peer_public, keyfile.parse_general_public_key)
    _require_same_setup(own.setup, peer.setup)
    specific = keys.derive_specific(own.key, peer.key.k2, args.issuer, args.audience)
    _save(args.out, keyfile.render_specific_public_key(
        keyfile.SpecificPublicKeyFile(own.setup, specific)))
    return 0


def _load_conversation(args):
    """Own private key, peer's general and specific keys, and the code table."""
    own = _load(args.private, keyfile.parse_private_key)
    peer = _load(args.peer_public, keyfile.parse_general_public_key)
    specific = _load(args.peer_specific, keyfile.parse_specific_public_key)
    _require_same_setup(own.setup, peer.setup, specific.setup)
    return own, peer, specific, own.setup.code_table()


def _cmd_encrypt(args) -> int:
    own, peer, specific, table = _load_conversation(args)
    ctx = cipher.EncryptionContext(own.key, peer.key, specific.key, table)
    print(cipher.encrypt_message(ctx, args.message, rng=_make_rng(args.seed), nonces=args.gammas))
    return 0


def _cmd_decrypt(args) -> int:
    own, peer, specific, table = _load_conversation(args)
    ctx = cipher.DecryptionContext(own.key, peer.key.k1, specific.key, table)
    print(cipher.decrypt_message(ctx, args.cipher))
    return 0


# ------------------------------------------------------------------- parser

def _int(text: str) -> int:
    # type=int would do, but argparse's own message repeats the whole argument.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {brief(text)}")


def _gamma_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"gammas must be comma-separated integers, got {brief(text)}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eccipher", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="curve setup and inspection")
    curve_sub = curve.add_subparsers(dest="subcommand", required=True)

    init = curve_sub.add_parser("init", help="create a curve setup file")
    init.add_argument("--p", type=_int, required=True, help="prime modulus")
    init.add_argument("--a", type=_int, required=True, help="coefficient a")
    init.add_argument("--b", type=_int, required=True, help="coefficient b")
    init.add_argument("--base", required=True, metavar="X,Y", help="shared base point")
    init.add_argument("--table-base", metavar="X,Y",
                      help="point generating the code table (default: the base point)")
    init.add_argument("--alphabet", default=DEFAULT_ALPHABET, help="code table alphabet")
    init.add_argument("--out", required=True, help="output .ecff file")
    init.set_defaults(handler=_cmd_curve_init)

    points = curve_sub.add_parser("points", help="list every point of a curve")
    points.add_argument("--curve", required=True, help="curve setup file")
    points.set_defaults(handler=_cmd_curve_points)

    keygen_p = sub.add_parser("keygen", help="generate a key pair")
    keygen_p.add_argument("--curve", required=True, help="curve setup file")
    keygen_p.add_argument("--out-private", required=True, help="private key output file")
    keygen_p.add_argument("--out-public", required=True, help="public key output file")
    keygen_p.add_argument("--seed", type=_int, help="deterministic rng seed")
    keygen_p.add_argument("--alpha", type=_int, help="explicit secret scalar")
    keygen_p.add_argument("--point", metavar="X,Y", help="explicit secret point")
    keygen_p.set_defaults(handler=_cmd_keygen)

    derive = sub.add_parser("derive-specific", help="derive the specific key for one peer")
    derive.add_argument("--private", required=True, help="own private key file")
    derive.add_argument("--peer-public", required=True, help="peer's public key file")
    derive.add_argument("--issuer", default="", help="name of the issuing party")
    derive.add_argument("--audience", default="", help="name of the peer")
    derive.add_argument("--out", required=True, help="specific key output file")
    derive.set_defaults(handler=_cmd_derive_specific)

    encrypt = sub.add_parser("encrypt", help="encrypt a message")
    encrypt.add_argument("--private", required=True, help="sender's private key file")
    encrypt.add_argument("--peer-public", required=True, help="recipient's public key file")
    encrypt.add_argument("--peer-specific", required=True,
                         help="recipient's specific key file for this sender")
    encrypt.add_argument("--message", required=True, help="plaintext over the table alphabet")
    encrypt.add_argument("--gammas", type=_gamma_list, metavar="G1,G2,...",
                         help="explicit nonce sequence, one per character")
    encrypt.add_argument("--seed", type=_int, help="deterministic rng seed")
    encrypt.set_defaults(handler=_cmd_encrypt)

    decrypt = sub.add_parser("decrypt", help="decrypt a message")
    decrypt.add_argument("--private", required=True, help="recipient's private key file")
    decrypt.add_argument("--peer-public", required=True, help="sender's public key file")
    decrypt.add_argument("--peer-specific", required=True,
                         help="sender's specific key file for this recipient")
    decrypt.add_argument("--cipher", required=True, help="ciphertext to decrypt")
    decrypt.set_defaults(handler=_cmd_decrypt)

    return parser


def _check_usage(parser: argparse.ArgumentParser, args) -> None:
    if getattr(args, "handler", None) is _cmd_keygen:
        if (args.alpha is None) != (args.point is None):
            parser.error("--alpha and --point must be given together")
        if args.seed is not None and args.alpha is not None:
            parser.error("--seed cannot be combined with --alpha/--point")
    if getattr(args, "handler", None) is _cmd_encrypt:
        if args.gammas is not None and args.seed is not None:
            parser.error("--gammas and --seed are mutually exclusive")
        if args.gammas is not None and len(args.gammas) != len(args.message):
            parser.error(
                f"--gammas needs one value per message character: "
                f"message has {len(args.message)}, got {len(args.gammas)}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_usage(parser, args)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
