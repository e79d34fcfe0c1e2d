"""Command-line front end: curve setup, key files, encryption, decryption.

Exit codes: 0 on success, 1 for usage errors, 2 for data or validation
errors, and 141 (128 + SIGPIPE, as a shell reports for a writer killed by
it), with nothing on stderr, when stdout's reader has gone, as in
`... | head`.  Results go to stdout, everything else to stderr.
"""

from __future__ import annotations

import argparse
import os
import random
import stat
import sys

from . import cipher, keyfile, keys
from ._messages import brief
from .codec import DEFAULT_ALPHABET, CurveSetup
from .curve import Curve, Point

USAGE_ERROR = 1
DATA_ERROR = 2
STDOUT_CLOSED = 141


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
    with open(path, "rb") as file:
        data = file.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise keyfile.KeyFileError(f"line {line}: not valid UTF-8") from None
    return parse(text)


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one is missing: compare where they would be
        return os.path.realpath(a) == os.path.realpath(b)


def _refuse_shared_targets(outputs: list[str], inputs: tuple[str, ...]) -> None:
    """Refuse an output that names the same file as another output or an input.

    Only a target that is missing or a regular file counts, so two outputs
    to a FIFO or /dev/stdout are still written through.
    """
    named = [("input", path) for path in inputs]
    for path in outputs:
        try:
            if not stat.S_ISREG(os.stat(path).st_mode):
                continue
        except OSError:
            pass
        for role, other in named:
            if _same_file(path, other):
                raise ValueError(f"output {brief(path)} is the same file as {role} {brief(other)}")
        named.append(("output", path))


def _save(*files: tuple[str, str], inputs: tuple[str, ...] = ()) -> None:
    """Write every (path, text) pair, so that a failure changes no regular file.

    An output naming the same missing or regular file as another output or
    one of the command's `inputs` is refused first.  All texts are encoded
    next.  Each path that is missing or a regular file gets a temporary file
    beside it, and only when all are written do they replace their paths.
    If a replace fails, each path replaced before it gets its old file back
    from a hard link made beforehand, or is removed if it was new; only a
    failure of that step too leaves it changed.  A regular file keeps its
    mode, and one that a plain write would be refused (read-only, say) is
    refused.  Any other path, such as a symlink, a FIFO or /dev/stdout, is
    written through as an ordinary open would, before the first replace;
    what is written there cannot be taken back.  An error names the path as
    given, never a temporary or backup file, also one raised by a write.
    """
    targets = [path for path, _ in files]
    _refuse_shared_targets(targets, inputs)
    blobs = [text.encode("utf-8") for _, text in files]
    pid = os.getpid()
    staged = []  # (target, temp, existed) for each missing or regular path
    through = []  # (target, blob) for every other path
    backups = {}  # index in staged -> hard link to the old file
    replaced = []  # indices in staged
    target = None
    try:
        for index, (target, blob) in enumerate(zip(targets, blobs)):
            try:
                mode = os.lstat(target).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):
                through.append((target, blob))
                continue
            if mode is not None:  # refused where a plain write would be
                os.close(os.open(target, os.O_WRONLY))
            temp = f"{target}.{pid}-{index}.tmp"
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((target, temp, mode is not None))
            with open(fd, "wb") as out:
                if mode is not None:
                    os.chmod(fd, stat.S_IMODE(mode))
                out.write(blob)
        # A failing replace takes back the ones before it, never the last.
        for index, (target, _, existed) in enumerate(staged[:-1]):
            if existed:
                backup = f"{target}.{pid}-{index}.bak"
                os.link(target, backup)
                backups[index] = backup
        for target, blob in through:
            with open(target, "wb") as out:
                out.write(blob)
        for index, (target, temp, _) in enumerate(staged):
            os.replace(temp, target)
            replaced.append(index)
    except OSError as exc:
        for index in reversed(replaced):
            try:
                if index in backups:
                    os.replace(backups[index], staged[index][0])
                else:
                    os.remove(staged[index][0])
            except OSError:
                pass
        raise OSError(exc.errno, exc.strerror, target) from None
    finally:
        leftovers = [temp for _, temp, _ in staged] + list(backups.values())
        for leftover in leftovers:
            if os.path.lexists(leftover):
                os.remove(leftover)


def _require_same_setup(*setups: CurveSetup):
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
    setup = CurveSetup(curve, base, table_point, args.alphabet)
    group_order = curve.order  # an oversized p fails here, before any file is written
    setup.code_table()  # refuses a setup whose cipher is not total
    _save((args.out, keyfile.render_curve_setup(setup)))
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
        setup.code_table(("secret point", secret_point))
        private, public = keys.keypair_from_secret(setup.curve, setup.base, args.alpha,
                                                   secret_point)
    else:
        setup.code_table()  # refuses a setup whose cipher is not total
        private, public = keys.keygen(setup.curve, setup.base, _make_rng(args.seed))
    _save((args.out_private, keyfile.render_private_key(setup, private, public)),
          (args.out_public, keyfile.render_general_public_key(setup, public)),
          inputs=(args.curve,))
    return 0


def _cmd_derive_specific(args) -> int:
    setup, own, _ = _load(args.private, keyfile.parse_private_key)
    peer_setup, peer = _load(args.peer_public, keyfile.parse_general_public_key)
    _require_same_setup(setup, peer_setup)
    pub = brief(args.peer_public)
    setup.code_table((f"{pub}: pub1", peer.k1), (f"{pub}: pub2", peer.k2))
    specific = keys.derive_specific(own, peer.k2, args.issuer, args.audience)
    _save((args.out, keyfile.render_specific_public_key(setup, specific)),
          inputs=(args.private, args.peer_public))
    return 0


def _load_conversation(args):
    """Own private key, the peer's keys, and a code table that holds the peer's points."""
    setup, own, _ = _load(args.private, keyfile.parse_private_key)
    peer_setup, peer = _load(args.peer_public, keyfile.parse_general_public_key)
    specific_setup, specific = _load(args.peer_specific, keyfile.parse_specific_public_key)
    _require_same_setup(setup, peer_setup, specific_setup)
    pub, spec = brief(args.peer_public), brief(args.peer_specific)
    return own, peer, specific, setup.code_table(
        (f"{pub}: pub1", peer.k1), (f"{pub}: pub2", peer.k2), (f"{spec}: point", specific.point))


def _cmd_encrypt(args) -> int:
    own, peer, specific, table = _load_conversation(args)
    ctx = cipher.EncryptionContext(own, peer, specific, table)
    print(cipher.encrypt_message(ctx, args.message, rng=_make_rng(args.seed), nonces=args.gammas))
    return 0


def _cmd_decrypt(args) -> int:
    own, peer, specific, table = _load_conversation(args)
    ctx = cipher.DecryptionContext(own, peer.k1, specific, table)
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
        status = args.handler(args)
        sys.stdout.flush()  # a reader gone since the last write shows here
        return status
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and exc.filename is None:
            # stdout's reader has gone (a named output's error names it):
            # stop quietly, and let the final flush go to the null device.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return STDOUT_CLOSED
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
