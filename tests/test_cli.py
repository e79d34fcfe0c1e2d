"""The command-line interface, driven as a real subprocess (see `run_cli`),
and in-process where a test counts what a command computes."""

import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import vectors
from eccipher import (
    DEFAULT_ALPHABET, Curve, DecryptionContext, FieldElement, attack, cli, codec,
    decrypt_message, derive_specific, keyfile, keygen, keypair_from_secret,
)

CURVE_ARGS = ["--p", "37", "--a", "2", "--b", "9", "--base", "9,4", "--table-base", "5,25"]


@pytest.fixture()
def workdir(run_cli, tmp_path):
    result = run_cli("curve", "init", *CURVE_ARGS, "--out", "demo.ecff", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    return tmp_path


def _make_demo_keys(run_cli, workdir):
    for name, alpha, point in (("alice", 5, "10,20"), ("bob", 7, "11,20")):
        result = run_cli(
            "keygen", "--curve", "demo.ecff", "--alpha", alpha, "--point", point,
            "--out-private", f"{name}.priv", "--out-public", f"{name}.pub",
            cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
    for own, peer in (("alice", "bob"), ("bob", "alice")):
        result = run_cli(
            "derive-specific", "--private", f"{own}.priv", "--peer-public", f"{peer}.pub",
            "--issuer", own, "--audience", peer, "--out", f"{own}_for_{peer}.spec",
            cwd=workdir,
        )
        assert result.returncode == 0, result.stderr


# ------------------------------------------------------------------- curve

def test_curve_init_prints_orders(run_cli, tmp_path):
    result = run_cli("curve", "init", *CURVE_ARGS, "--out", "c.ecff", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "group order = 43\nbase point order = 43\n"
    assert (tmp_path / "c.ecff").exists()


def test_curve_init_rejects_singular_curve(run_cli, tmp_path):
    result = run_cli(
        "curve", "init", "--p", "37", "--a", "0", "--b", "0",
        "--base", "9,4", "--out", "c.ecff", cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "singular" in result.stderr
    assert result.stdout == ""


def test_curve_init_rejects_composite_modulus(run_cli, tmp_path):
    result = run_cli(
        "curve", "init", "--p", "4", "--a", "2", "--b", "9",
        "--base", "0,3", "--out", "c.ecff", cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "prime" in result.stderr


def test_curve_init_rejects_off_curve_base(run_cli, tmp_path):
    result = run_cli(
        "curve", "init", "--p", "37", "--a", "2", "--b", "9",
        "--base", "9,5", "--out", "c.ecff", cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "not on" in result.stderr


def test_curve_points_lists_every_point(run_cli, workdir):
    result = run_cli("curve", "points", "--curve", "demo.ecff", cwd=workdir)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 43
    assert lines[0] == "inf"
    expected = {f"({x},{y})" for x, y in vectors.AFFINE_POINTS} | {"inf"}
    assert set(lines) == expected
    # The order too: ascending x, and 37 = 5 (mod 8), so within each pair
    # Tonelli-Shanks's root first, then its negation.
    listing = ["inf"]
    for x in range(vectors.P):
        for y in FieldElement(x ** 3 + vectors.A * x + vectors.B, vectors.P).sqrt() or ():
            listing.append(f"({x},{y})")
    assert lines == listing


def test_curve_init_accepts_custom_alphabet(run_cli, tmp_path):
    result = run_cli(
        "curve", "init", "--p", "5", "--a", "1", "--b", "1", "--base", "0,1",
        "--alphabet", "*abcdefgh", "--out", "small.ecff", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "group order = 9\nbase point order = 9\n"
    assert "alphabet = *abcdefgh\n" in (tmp_path / "small.ecff").read_text()


def test_curve_init_rejects_alphabet_larger_than_group(run_cli, tmp_path):
    result = run_cli(
        "curve", "init", "--p", "5", "--a", "1", "--b", "1", "--base", "0,1",
        "--out", "small.ecff", cwd=tmp_path,  # default 43-symbol alphabet
    )
    assert result.returncode == 2, result.stderr
    assert "alphabet" in result.stderr


def test_curve_init_refuses_a_table_that_misses_points(run_cli, tmp_path):
    # (2,23365) generates 65,386 points of E_65537(2,3), and the default
    # alphabet names 43 of them: a ciphertext point past them would fail
    # to decode partway through a message, so no setup file is written.
    result = run_cli("curve", "init", "--p", "65537", "--a", "2", "--b", "3",
                     "--base", "2,23365", "--out", "c.ecff", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr == ("error: alphabet has 43 symbols but the table point generates "
                             "65386 points; a total cipher needs exactly 65386\n")
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_curve_init_refuses_a_base_outside_the_table(run_cli, tmp_path):
    # E_1009(7,21) is Z/2 x Z/530: (8,331) has order 530 but is no multiple
    # of (0,651), so E1 = gamma*C would miss a table that covers (0,651)'s
    # 530 multiples exactly.  The table point's own base is accepted.
    alphabet = "".join(chr(0x4E00 + i) for i in range(530))
    init = ("curve", "init", "--p", "1009", "--a", "7", "--b", "21",
            "--table-base", "0,651", "--alphabet", alphabet, "--out", "c.ecff")
    result = run_cli(*init, "--base", "8,331", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr == ("error: base point (8,331) is not a multiple of the table point "
                             "(0,651); a total cipher needs it in the table\n")
    assert list(tmp_path.iterdir()) == []
    result = run_cli(*init, "--base", "0,651", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "group order = 1060\nbase point order = 530\n"


def test_curve_init_leaves_the_key_break_table_alone(tmp_path, monkeypatch, capsys):
    # The setup's own code table answers whether C is in it, so curve init
    # builds no key-break table.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(attack, "_kept", None)
    assert cli.main(["curve", "init", *CURVE_ARGS, "--out", "demo.ecff"]) == 0
    assert capsys.readouterr() == ("group order = 43\nbase point order = 43\n", "")
    assert attack._kept is None


_E65537 = Curve(65537, 2, 3)
_E1009 = Curve(1009, 7, 21)
_E1009_ALPHABET = "".join(chr(0x4E00 + i) for i in range(530))


def _write_conversation(directory, setup, alice, bob):
    """Key files for a conversation between two in-process key pairs, each
    a (private, public) pair on `setup`: curve init could not write them."""
    for name, (private, public) in (("alice", alice), ("bob", bob)):
        (directory / f"{name}.priv").write_text(
            keyfile.render_private_key(setup, private, public), encoding="utf-8")
        (directory / f"{name}.pub").write_text(
            keyfile.render_general_public_key(setup, public), encoding="utf-8")
    for (name, (private, _)), (peer, (_, public)) in ((("alice", alice), ("bob", bob)),
                                                       (("bob", bob), ("alice", alice))):
        (directory / f"{name}_for_{peer}.spec").write_text(keyfile.render_specific_public_key(
            setup, derive_specific(private, public.k2, name, peer)), encoding="utf-8")


def _conversation_commands(alphabet):
    return [
        ("encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
         "--peer-specific", "alice_for_bob.spec", "--message", alphabet[1:4], "--seed", 3),
        ("decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
         "--peer-specific", "bob_for_alice.spec", "--cipher", alphabet[2:6]),
    ]


@pytest.mark.parametrize("setup, message", [
    (keyfile.CurveSetup(_E65537, _E65537.point(2, 23365), _E65537.point(2, 23365),
                        DEFAULT_ALPHABET),
     "alphabet has 43 symbols but the table point generates 65386 points; "
     "a total cipher needs exactly 65386"),
    (keyfile.CurveSetup(_E1009, _E1009.point(8, 331), _E1009.point(0, 651), _E1009_ALPHABET),
     "base point (8,331) is not a multiple of the table point (0,651); "
     "a total cipher needs it in the table"),
], ids=["table-misses-points", "base-outside-table"])
def test_conversations_refuse_a_partial_setup_at_the_start(run_cli, tmp_path, setup, message):
    # Setup files written by hand, or before curve init refused these
    # setups, reach keygen, derive-specific, encrypt and decrypt, which
    # refuse them before any output rather than writing keys the cipher
    # cannot use or failing on a point partway through a message.
    rng = random.Random(7)
    alice, bob = (keygen(setup.curve, setup.base, rng) for _ in range(2))
    _write_conversation(tmp_path, setup, alice, bob)
    (tmp_path / "curve.ecff").write_text(keyfile.render_curve_setup(setup), encoding="utf-8")
    files = sorted(path.name for path in tmp_path.iterdir())
    commands = [
        ("keygen", "--curve", "curve.ecff", "--seed", 1,
         "--out-private", "out.priv", "--out-public", "out.pub"),
        ("derive-specific", "--private", "bob.priv", "--peer-public", "alice.pub",
         "--out", "out.spec"),
        *_conversation_commands(setup.alphabet),
    ]
    for command in commands:
        result = run_cli(*command, cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == files


def test_keygen_refuses_a_secret_point_outside_the_table(run_cli, tmp_path):
    # E_1009(7,21) is Z/2 x Z/530: (8,331) is no multiple of (0,651), so
    # every E2 built from a key on it would miss the table.  A multiple of
    # the table point is accepted.
    result = run_cli("curve", "init", "--p", "1009", "--a", "7", "--b", "21",
                     "--base", "0,651", "--alphabet", _E1009_ALPHABET, "--out", "c.ecff",
                     cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    keygen_args = ("keygen", "--curve", "c.ecff", "--alpha", 5,
                   "--out-private", "k.priv", "--out-public", "k.pub")
    result = run_cli(*keygen_args, "--point", "8,331", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: secret point (8,331) is not a multiple of the table point "
                             "(0,651); a total cipher needs it in the table\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.ecff"]
    inside = 2 * _E1009.point(0, 651)
    result = run_cli(*keygen_args, "--point", f"{inside.x},{inside.y}", cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_conversations_refuse_a_peer_point_outside_the_table(run_cli, tmp_path):
    # On the total E_1009 setup, Alice's key is built on a secret point
    # outside <(0,651)>, so her public points and Bob's specific key for
    # her miss the table; deriving a specific key for her, encrypting to
    # her and decrypting from Bob all refuse, naming the file, before any
    # output.
    base = _E1009.point(0, 651)
    setup = keyfile.CurveSetup(_E1009, base, base, _E1009_ALPHABET)
    alice = keypair_from_secret(_E1009, base, 5, _E1009.point(8, 331))
    bob = keypair_from_secret(_E1009, base, 3, 2 * base)
    _write_conversation(tmp_path, setup, alice, bob)
    files = sorted(path.name for path in tmp_path.iterdir())
    bob_for_alice = derive_specific(bob[0], alice[1].k2).point
    derive = ("derive-specific", "--private", "bob.priv", "--peer-public", "alice.pub",
              "--out", "out.spec")
    commands = [derive, *_conversation_commands(_E1009_ALPHABET)]
    alice_pub1 = f"'alice.pub': pub1 {alice[1].k1}"
    refused = [alice_pub1, alice_pub1, f"'bob_for_alice.spec': point {bob_for_alice}"]
    for command, name in zip(commands, refused, strict=True):
        result = run_cli(*command, cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert sorted(path.name for path in tmp_path.iterdir()) == files
        assert result.stderr == (f"error: {name} is not a multiple of the table point (0,651); "
                                 "a total cipher needs it in the table\n")


_BIG_SETUP = """\
p = 1048583
a = 0
b = 1
base.x = 2
base.y = 3
table.x = 2
table.y = 3
alphabet = *ab
"""


def test_curve_points_refuses_oversized_modulus(run_cli, tmp_path):
    # Hand-built file: curve init cannot create one this large because it
    # must count the points.
    (tmp_path / "big.ecff").write_text("format = ecff-v1\nkind = curve\n" + _BIG_SETUP)
    result = run_cli("curve", "points", "--curve", "big.ecff", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "2**20" in result.stderr


@pytest.mark.parametrize("command", [
    ("curve", "init", "--p", "1048583", "--a", "0", "--b", "1", "--base", "2,3",
     "--out", "out.ecff"),
    ("keygen", "--curve", "big.ecff", "--out-private", "out.priv", "--out-public", "out.pub"),
    ("derive-specific", "--private", "big.priv", "--peer-public", "big.pub", "--out", "out.spec"),
], ids=["curve-init", "keygen", "derive-specific"])
def test_oversized_modulus_is_refused_before_any_output(run_cli, tmp_path, command):
    # The size is a fact of the curve: no message cites a key-file line for it.
    (tmp_path / "big.ecff").write_text("format = ecff-v1\nkind = curve\n" + _BIG_SETUP)
    (tmp_path / "big.priv").write_text(
        "format = ecff-v1\nkind = private\n" + _BIG_SETUP
        + "alpha = 5\npoint.x = 2\npoint.y = 3\npub1 = inf\npub2 = inf\n"
    )
    (tmp_path / "big.pub").write_text(
        "format = ecff-v1\nkind = public-general\n" + _BIG_SETUP + "pub1 = inf\npub2 = inf\n"
    )
    result = run_cli(*command, cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: p = 1048583 exceeds enumeration limit 2**20\n"
    assert result.stdout == ""
    assert not list(tmp_path.glob("out.*"))


# ------------------------------------------------------------------ keygen

def test_keygen_writes_expected_public_key(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    pub = (workdir / "alice.pub").read_text()
    assert "pub1.x = 1\npub1.y = 7\npub2.x = 33\npub2.y = 23\n" in pub


def test_keygen_seeded_is_reproducible(run_cli, workdir):
    for suffix in ("1", "2"):
        result = run_cli(
            "keygen", "--curve", "demo.ecff", "--seed", 1,
            "--out-private", f"p{suffix}.priv", "--out-public", f"p{suffix}.pub",
            cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
    assert (workdir / "p1.priv").read_text() == (workdir / "p2.priv").read_text()
    assert (workdir / "p1.pub").read_text() == (workdir / "p2.pub").read_text()


def test_keygen_alpha_without_point_is_a_usage_error(run_cli, workdir):
    result = run_cli(
        "keygen", "--curve", "demo.ecff", "--alpha", 5,
        "--out-private", "x.priv", "--out-public", "x.pub", cwd=workdir,
    )
    assert result.returncode == 1, result.stderr


def test_keygen_seed_with_alpha_is_a_usage_error(run_cli, workdir):
    result = run_cli(
        "keygen", "--curve", "demo.ecff", "--seed", 1, "--alpha", 5, "--point", "10,20",
        "--out-private", "x.priv", "--out-public", "x.pub", cwd=workdir,
    )
    assert result.returncode == 1, result.stderr


def test_keygen_out_of_range_alpha_is_a_data_error(run_cli, workdir):
    result = run_cli(
        "keygen", "--curve", "demo.ecff", "--alpha", 43, "--point", "10,20",
        "--out-private", "x.priv", "--out-public", "x.pub", cwd=workdir,
    )
    assert result.returncode == 2, result.stderr
    assert "[1, 42]" in result.stderr


# ---------------------------------------------------------- derive-specific

@pytest.mark.parametrize("command, point", [
    (("curve", "init", "--p", "37", "--a", "2", "--b", "9", "--base", "9,x", "--out", "c.ecff"),
     "9,x"),
    (("keygen", "--curve", "demo.ecff", "--alpha", "5", "--point", "1.5,2",
      "--out-private", "k.priv", "--out-public", "k.pub"), "1.5,2"),
], ids=["curve-init", "keygen"])
def test_point_coordinates_that_are_not_integers_are_a_data_error(run_cli, workdir, command,
                                                                  point):
    result = run_cli(*command, cwd=workdir)
    assert result.returncode == 2
    assert result.stderr == f"error: point coordinates must be integers, got '{point}'\n"
    assert result.stdout == ""
    assert sorted(path.name for path in workdir.iterdir()) == ["demo.ecff"]


def test_derive_specific_vectors(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    ab = (workdir / "alice_for_bob.spec").read_text()
    assert "point.x = 15\npoint.y = 11\n" in ab
    assert "issuer = alice\naudience = bob\n" in ab
    ba = (workdir / "bob_for_alice.spec").read_text()
    assert "point.x = 2\npoint.y = 13\n" in ba


def test_derive_specific_rejects_truncated_peer_file(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    pub = (workdir / "bob.pub").read_text()
    truncated = pub[: pub.index("pub2.x")]
    (workdir / "broken.pub").write_text(truncated)
    result = run_cli(
        "derive-specific", "--private", "alice.priv", "--peer-public", "broken.pub",
        "--out", "x.spec", cwd=workdir,
    )
    assert result.returncode == 2, result.stderr
    assert "pub2" in result.stderr


# --------------------------------------------------------- encrypt/decrypt

def test_encrypt_decrypt_round_trip_with_fixed_nonces(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    enc = run_cli(
        "encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec",
        "--message", vectors.MESSAGE, "--gammas", ",".join(map(str, vectors.NONCES)),
        cwd=workdir,
    )
    assert enc.returncode == 0, enc.stderr
    assert enc.stdout == vectors.CIPHERTEXT + "\n"
    dec = run_cli(
        "decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
        "--peer-specific", "bob_for_alice.spec", "--cipher", vectors.CIPHERTEXT,
        cwd=workdir,
    )
    assert dec.returncode == 0, dec.stderr
    assert dec.stdout == vectors.MESSAGE + "\n"


def test_encrypt_decrypt_round_trip_with_seeded_nonces(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    message = "attack at dawn".replace(" ", "1")
    enc = run_cli(
        "encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec", "--message", message, "--seed", 77,
        cwd=workdir,
    )
    assert enc.returncode == 0, enc.stderr
    ciphertext = enc.stdout.strip()
    assert len(ciphertext) == 2 * len(message)
    dec = run_cli(
        "decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
        "--peer-specific", "bob_for_alice.spec", "--cipher", ciphertext,
        cwd=workdir,
    )
    assert dec.returncode == 0, dec.stderr
    assert dec.stdout == message + "\n"


def test_encrypt_wrong_gamma_count_is_a_usage_error(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    result = run_cli(
        "encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec",
        "--message", "attack", "--gammas", "8,12",
        cwd=workdir,
    )
    assert result.returncode == 1, result.stderr


def test_encrypt_gammas_and_seed_are_mutually_exclusive(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    result = run_cli(
        "encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec",
        "--message", "attack", "--gammas", "8,12,19,2,3,23", "--seed", 1,
        cwd=workdir,
    )
    assert result.returncode == 1, result.stderr


def test_encrypt_rejects_character_outside_alphabet(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    result = run_cli(
        "encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec", "--message", "a b", "--seed", 1,
        cwd=workdir,
    )
    assert result.returncode == 2, result.stderr
    assert "position 1" in result.stderr


def test_decrypt_rejects_odd_length(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    result = run_cli(
        "decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
        "--peer-specific", "bob_for_alice.spec", "--cipher", "b5c",
        cwd=workdir,
    )
    assert result.returncode == 2, result.stderr
    assert "even" in result.stderr


def test_decrypt_rejects_unknown_symbol(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    result = run_cli(
        "decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
        "--peer-specific", "bob_for_alice.spec", "--cipher", "b^",
        cwd=workdir,
    )
    assert result.returncode == 2, result.stderr


def test_carriage_return_in_issuer_round_trips(run_cli, workdir):
    # Key files are read byte for byte: a lone CR inside a value is not a
    # line break, so the file written is the file read.
    _make_demo_keys(run_cli, workdir)
    for own, peer in (("alice", "bob"), ("bob", "alice")):
        issuer = own[:2] + "\r" + own[2:]
        result = run_cli(
            "derive-specific", "--private", f"{own}.priv", "--peer-public", f"{peer}.pub",
            "--issuer", issuer, "--audience", peer, "--out", f"{own}_for_{peer}.spec",
            cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        spec = (workdir / f"{own}_for_{peer}.spec").read_bytes()
        assert f"issuer = {issuer}\naudience = {peer}\n".encode() in spec
    enc = run_cli(
        "encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec",
        "--message", vectors.MESSAGE, "--gammas", ",".join(map(str, vectors.NONCES)),
        cwd=workdir,
    )
    assert enc.returncode == 0, enc.stderr
    assert enc.stdout == vectors.CIPHERTEXT + "\n"
    dec = run_cli(
        "decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
        "--peer-specific", "bob_for_alice.spec", "--cipher", vectors.CIPHERTEXT,
        cwd=workdir,
    )
    assert dec.returncode == 0, dec.stderr
    assert dec.stdout == vectors.MESSAGE + "\n"


def test_crlf_key_file_is_rejected(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    pub = workdir / "alice.pub"
    pub.write_bytes(pub.read_bytes().replace(b"\n", b"\r\n"))
    result = run_cli(
        "encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec", "--message", "a", "--seed", 1,
        cwd=workdir,
    )
    assert result.returncode == 2, result.stderr
    assert "line 1" in result.stderr
    assert result.stdout == ""


def test_undecodable_key_file_is_refused_with_its_line(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    pub = workdir / "alice.pub"
    lines = pub.read_bytes().split(b"\n")
    assert lines[2] == b"p = 37"
    lines[2] = b"p = 3\xff7"
    pub.write_bytes(b"\n".join(lines))
    result = run_cli(
        "encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec", "--message", "a", "--seed", 1,
        cwd=workdir,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: line 3: not valid UTF-8\n"
    assert result.stdout == ""


# "\udcff" reaches the child as the byte 0xff, which is no UTF-8 text.  The
# curve-init alphabet covers all 43 points, so only the write can fail.
@pytest.mark.parametrize("command, target", [
    (("derive-specific", "--private", "alice.priv", "--peer-public", "bob.pub",
      "--issuer", "al\udcffice", "--audience", "bob", "--out", "alice_for_bob.spec"),
     "alice_for_bob.spec"),
    (("curve", "init", *CURVE_ARGS, "--alphabet", vectors.ALPHABET[:42] + "\udcff",
      "--out", "demo.ecff"),
     "demo.ecff"),
], ids=["derive-specific", "curve-init"])
def test_unwritable_output_leaves_an_existing_file_unchanged(run_cli, workdir, command, target):
    _make_demo_keys(run_cli, workdir)
    before = (workdir / target).read_bytes()
    result = run_cli(*command, cwd=workdir)
    assert result.returncode == 2, result.stderr
    assert "can't encode" in result.stderr
    assert result.stdout == ""
    assert (workdir / target).read_bytes() == before


def test_keygen_writes_both_key_files_or_neither(run_cli, workdir):
    result = run_cli("keygen", "--curve", "demo.ecff", "--seed", 9,
                     "--out-private", "d.priv", "--out-public", "nodir/d.pub", cwd=workdir)
    assert result.returncode == 2
    assert result.stderr == "error: [Errno 2] No such file or directory: 'nodir/d.pub'\n"
    assert not (workdir / "d.priv").exists()
    result = run_cli("keygen", "--curve", "demo.ecff", "--seed", 9,
                     "--out-private", "e.priv", "--out-public", "e.pub", cwd=workdir)
    assert result.returncode == 0, result.stderr
    before = (workdir / "e.priv").read_bytes()
    result = run_cli("keygen", "--curve", "demo.ecff", "--seed", 11,
                     "--out-private", "e.priv", "--out-public", "nodir/e.pub", cwd=workdir)
    assert result.returncode == 2
    assert result.stderr == "error: [Errno 2] No such file or directory: 'nodir/e.pub'\n"
    assert (workdir / "e.priv").read_bytes() == before
    assert sorted(path.name for path in workdir.iterdir()) == ["demo.ecff", "e.priv", "e.pub"]


def test_replaced_output_keeps_its_mode(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    target = workdir / "alice.priv"
    target.chmod(0o600)
    before = target.read_bytes()
    target.write_bytes(b"stale")
    result = run_cli(
        "keygen", "--curve", "demo.ecff", "--alpha", 5, "--point", "10,20",
        "--out-private", "alice.priv", "--out-public", "alice.pub", cwd=workdir,
    )
    assert result.returncode == 0, result.stderr
    assert target.read_bytes() == before
    assert target.stat().st_mode & 0o777 == 0o600


def test_output_path_that_is_a_directory_is_named_in_the_error(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    (workdir / "sub").mkdir()
    for out in ("sub", "."):
        result = run_cli("derive-specific", "--private", "alice.priv", "--peer-public", "bob.pub",
                         "--out", out, cwd=workdir)
        assert result.returncode == 2
        assert result.stderr == f"error: [Errno 21] Is a directory: '{out}'\n"
    assert not list(workdir.glob("*.tmp"))


def test_an_output_is_written_at_the_path_as_given(run_cli, workdir):
    # "x/" names a directory, so the write is refused: it must not replace
    # the regular file "x".  An error names the path as it was typed.
    (workdir / "x").write_bytes(b"kept")
    cases = [("x/", "[Errno 20] Not a directory: 'x/'"),
             ("./nope/k.ecff", "[Errno 2] No such file or directory: './nope/k.ecff'")]
    for out, error in cases:
        result = run_cli("curve", "init", *CURVE_ARGS, "--out", out, cwd=workdir)
        assert result.returncode == 2
        assert result.stderr == f"error: {error}\n"
        assert result.stdout == ""
    assert (workdir / "x").read_bytes() == b"kept"
    assert sorted(path.name for path in workdir.iterdir()) == ["demo.ecff", "x"]


def test_symlinked_output_writes_the_file_it_points_to(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    expected = (workdir / "alice.priv").read_bytes()
    (workdir / "secure").mkdir()
    (workdir / "secure" / "alice.priv").write_bytes(b"stale")
    link = workdir / "alice.priv"
    link.unlink()
    link.symlink_to(Path("secure") / "alice.priv")
    result = run_cli(
        "keygen", "--curve", "demo.ecff", "--alpha", 5, "--point", "10,20",
        "--out-private", "alice.priv", "--out-public", "alice.pub", cwd=workdir,
    )
    assert result.returncode == 0, result.stderr
    assert link.is_symlink()
    assert (workdir / "secure" / "alice.priv").read_bytes() == expected


def test_fifo_output_is_written_through(run_cli, workdir):
    _make_demo_keys(run_cli, workdir)
    expected = (workdir / "alice_for_bob.spec").read_bytes()
    fifo = workdir / "out.spec"
    os.mkfifo(fifo)
    # A reader is open before the command starts, so its open for writing
    # does not block; the key file is far smaller than a pipe's buffer.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        result = run_cli("derive-specific", "--private", "alice.priv", "--peer-public", "bob.pub",
                         "--issuer", "alice", "--audience", "bob", "--out", "out.spec", cwd=workdir)
        assert result.returncode == 0, result.stderr
        assert os.read(reader, 1 << 16) == expected
    finally:
        os.close(reader)
    assert fifo.is_fifo()


def _other_name_for(workdir, path, spelling):
    """`path` as given, with a leading ./, or through a symlink made for it."""
    if spelling == "symlink":
        (workdir / "link").symlink_to(path)
        return "link"
    return {"same": path, "dot": f"./{path}"}[spelling]


@pytest.mark.parametrize("existing", [False, True], ids=["missing", "existing"])
@pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
def test_keygen_refuses_one_file_for_both_keys(run_cli, workdir, spelling, existing):
    if existing:
        (workdir / "k.ecff").write_bytes(b"old")
    other = _other_name_for(workdir, "k.ecff", spelling)
    before = sorted(path.name for path in workdir.iterdir())
    result = run_cli("keygen", "--curve", "demo.ecff", "--seed", 9,
                     "--out-private", "k.ecff", "--out-public", other, cwd=workdir)
    assert result.returncode == 2
    assert result.stderr == f"error: output '{other}' is the same file as output 'k.ecff'\n"
    assert sorted(path.name for path in workdir.iterdir()) == before
    if existing:
        assert (workdir / "k.ecff").read_bytes() == b"old"


@pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
@pytest.mark.parametrize("target", ["alice.priv", "bob.pub"])  # --private, --peer-public
def test_derive_specific_refuses_to_overwrite_its_input(run_cli, workdir, spelling, target):
    _make_demo_keys(run_cli, workdir)
    other = _other_name_for(workdir, target, spelling)
    before = {path.name: path.read_bytes() for path in workdir.iterdir() if not path.is_symlink()}
    result = run_cli("derive-specific", "--private", "alice.priv", "--peer-public", "bob.pub",
                     "--out", other, cwd=workdir)
    assert result.returncode == 2
    assert result.stderr == f"error: output '{other}' is the same file as input '{target}'\n"
    assert {path.name: path.read_bytes()
            for path in workdir.iterdir() if not path.is_symlink()} == before


def test_keygen_refuses_to_overwrite_the_curve_file(run_cli, workdir):
    before = (workdir / "demo.ecff").read_bytes()
    result = run_cli("keygen", "--curve", "demo.ecff", "--seed", 9,
                     "--out-private", "demo.ecff", "--out-public", "d.pub", cwd=workdir)
    assert result.returncode == 2
    assert result.stderr == "error: output 'demo.ecff' is the same file as input 'demo.ecff'\n"
    assert sorted(path.name for path in workdir.iterdir()) == ["demo.ecff"]
    assert (workdir / "demo.ecff").read_bytes() == before


def test_both_keys_to_one_pipe_are_written_through(run_cli, workdir):
    # Captured stdout is a pipe, not a regular file, so it may be named twice.
    result = run_cli("keygen", "--curve", "demo.ecff", "--seed", 9,
                     "--out-private", "/dev/stdout", "--out-public", "/dev/stdout", cwd=workdir)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("format = ecff-v1\n") == 2
    assert "kind = private\n" in result.stdout and "kind = public-general\n" in result.stdout


def test_curve_points_into_a_pipe_closed_after_one_line_stops_quietly(cli_env, tmp_path,
                                                                      monkeypatch):
    # As `eccipher curve points ... | head -1`: E_16381(2,9) lists 16,473
    # lines, far more than a pipe holds, so the child writes into the pipe
    # after its reader has gone.  It stops as a writer killed by SIGPIPE
    # would in a shell, with 141 and nothing on stderr.
    monkeypatch.chdir(tmp_path)
    alphabet = "".join(chr(0x4E00 + i) for i in range(16473))
    assert cli.main(["curve", "init", "--p", "16381", "--a", "2", "--b", "9",
                     "--base", "2,9880", "--alphabet", alphabet, "--out", "wide.ecff"]) == 0
    child = subprocess.Popen([sys.executable, "-m", "eccipher", "curve", "points",
                              "--curve", "wide.ecff"], cwd=tmp_path, env=cli_env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert child.stdout.readline() == b"inf\n"
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=120) == cli.STDOUT_CLOSED == 141
    finally:
        child.kill()
        child.wait()
        child.stderr.close()


def _run_into_a_closed_pipe(cli_env, workdir, *args):
    """Run the CLI with a stdout pipe whose reader has closed already: (exit, stderr)."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        result = subprocess.run([sys.executable, "-m", "eccipher", *args], cwd=workdir,
                                env=cli_env, stdout=writer, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(writer)
    return result.returncode, result.stderr


def test_output_held_until_exit_into_a_closed_pipe_stops_quietly(cli_env, workdir):
    # The demo's 43 lines stay in stdout's buffer until the command ends;
    # the flush that then meets the closed pipe ends it quietly too.
    assert _run_into_a_closed_pipe(cli_env, workdir, "curve", "points",
                                   "--curve", "demo.ecff") == (141, "")


def test_a_named_output_into_a_closed_pipe_is_a_data_error(cli_env, workdir):
    # The pipe is reached through a path the command was given, so the
    # error names that path, as any other failed output does.
    assert _run_into_a_closed_pipe(cli_env, workdir, "keygen", "--curve", "demo.ecff",
                                   "--seed", "9", "--out-private", "/dev/stdout",
                                   "--out-public", "k.pub") == (
        2, "error: [Errno 32] Broken pipe: '/dev/stdout'\n")


@pytest.mark.parametrize("existing", [False, True])
def test_keygen_takes_back_the_private_key_when_the_public_replace_fails(
    workdir, monkeypatch, capsys, existing
):
    # A public path that cannot be replaced, as for a file of another user
    # in a sticky directory, once the private key has been replaced.
    monkeypatch.chdir(workdir)
    if existing:
        assert cli.main(["keygen", "--curve", "demo.ecff", "--seed", "3",
                         "--out-private", "f.priv", "--out-public", "f.pub"]) == 0
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    real_replace = os.replace

    def replace(src, dst):
        if str(dst) == "f.pub" and str(src).endswith(".tmp"):
            raise PermissionError(1, "Operation not permitted", src, None, dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert cli.main(["keygen", "--curve", "demo.ecff", "--seed", "4",
                     "--out-private", "f.priv", "--out-public", "f.pub"]) == 2
    assert capsys.readouterr().err == "error: [Errno 1] Operation not permitted: 'f.pub'\n"
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


def test_mismatched_key_files_are_rejected(run_cli, workdir, tmp_path):
    _make_demo_keys(run_cli, workdir)
    other = run_cli(
        "curve", "init", "--p", "31", "--a", "0", "--b", "3", "--base", "1,2",
        "--out", "other.ecff", cwd=workdir,
    )
    assert other.returncode == 0, other.stderr
    result = run_cli(
        "keygen", "--curve", "other.ecff", "--seed", 3,
        "--out-private", "eve.priv", "--out-public", "eve.pub", cwd=workdir,
    )
    assert result.returncode == 0, result.stderr
    result = run_cli(
        "encrypt", "--private", "eve.priv", "--peer-public", "alice.pub",
        "--peer-specific", "alice_for_bob.spec", "--message", "a", "--seed", 1,
        cwd=workdir,
    )
    assert result.returncode == 2, result.stderr
    assert "disagree" in result.stderr


_LONG_TEXT = "x" * 3000
_LONG_NUMBER = "9" * 4000
_POINTS = ("curve", "points", "--curve", "demo.ecff")
_KEYGEN = ("keygen", "--curve", "demo.ecff", "--out-private", "x.priv", "--out-public", "x.pub")
_INIT = ("curve", "init", "--a", "2", "--b", "9", "--out", "c.ecff")


@pytest.mark.parametrize("edit, command, prefix, size", [
    pytest.param(("demo.ecff", 1, "format = " + _LONG_TEXT), _POINTS,
                 "error: line 1: unknown format tag", "3000 characters", id="format-tag"),
    pytest.param(("demo.ecff", 2, "kind = " + _LONG_TEXT), _POINTS,
                 "error: line 2: expected kind", "3000 characters", id="kind"),
    pytest.param(("demo.ecff", 3, _LONG_TEXT), _POINTS,
                 "error: line 3: expected 'p' entry", "3000 characters", id="entry"),
    pytest.param(("demo.ecff", 3, "p = " + _LONG_TEXT), _POINTS,
                 "error: line 3: p must be a plain decimal", "3000 characters", id="decimal"),
    pytest.param(("demo.ecff", 3, "p = " + _LONG_NUMBER), _POINTS,
                 "error: line 3: modulus must be below 2**61", "4000 digits", id="file-p"),
    pytest.param(("alice.priv", 11, "alpha = " + _LONG_NUMBER),
                 ("derive-specific", "--private", "alice.priv", "--peer-public", "bob.pub",
                  "--out", "x.spec"),
                 "error: line 11: secret scalar must be in [1, 42]", "4000 digits",
                 id="file-alpha"),
    pytest.param(None, (*_INIT, "--base", "9,4", "--p", _LONG_NUMBER),
                 "error: modulus must be below 2**61", "4000 digits", id="init-p"),
    pytest.param(None, (*_INIT, "--base", "9,4", f"--p=-{_LONG_NUMBER}"),
                 "error: modulus must exceed 3", "4000 digits", id="init-negative-p"),
    pytest.param(None, (*_INIT, "--p", "37", "--base", _LONG_TEXT),
                 "error: point must be 'X,Y' or 'inf'", "3000 characters", id="init-base"),
    pytest.param(None, (*_KEYGEN, "--alpha", _LONG_NUMBER, "--point", "10,20"),
                 "error: secret scalar must be in [1, 42]", "4000 digits", id="keygen-alpha"),
    pytest.param(None, ("encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
                        "--peer-specific", "alice_for_bob.spec", "--message", "a",
                        "--gammas", _LONG_NUMBER),
                 "error: nonce must be in [1, 42]", "4000 digits", id="encrypt-gammas"),
])
def test_long_values_are_cut_short_in_errors(run_cli, workdir, edit, command, prefix, size):
    if command[0] in ("derive-specific", "encrypt"):
        _make_demo_keys(run_cli, workdir)
    if edit is not None:
        name, number, text = edit
        lines = (workdir / name).read_bytes().decode("utf-8").split("\n")
        lines[number - 1] = text
        (workdir / name).write_bytes("\n".join(lines).encode("utf-8"))
    result = run_cli(*command, cwd=workdir)
    assert result.returncode == 2, result.stderr[:300]
    assert result.stderr.startswith(prefix), result.stderr[:300]
    assert f"({size})" in result.stderr
    assert len(result.stderr.encode("utf-8")) < 200, result.stderr[:300]


_ENCRYPT = ("encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
            "--peer-specific", "alice_for_bob.spec", "--message", "a")


# "9" * 5000 is past int()'s digit limit, "x" * 3000 is no integer at all.
@pytest.mark.parametrize("value", ["9" * 5000, _LONG_TEXT], ids=["digits", "text"])
@pytest.mark.parametrize("command, option", [
    (_INIT, "--p"),
    (("curve", "init", "--p", "37", "--b", "9", "--out", "c.ecff"), "--a"),
    (("curve", "init", "--p", "37", "--a", "2", "--out", "c.ecff"), "--b"),
    (_KEYGEN, "--seed"),
    (_KEYGEN, "--alpha"),
    (_ENCRYPT, "--seed"),
], ids=["init-p", "init-a", "init-b", "keygen-seed", "keygen-alpha", "encrypt-seed"])
def test_long_int_arguments_are_cut_short(run_cli, tmp_path, command, option, value):
    # Usage errors print the fixed usage text first; the error is the last line.
    result = run_cli(*command, option, value, cwd=tmp_path)
    assert result.returncode == 1, result.stderr[:300]
    error = result.stderr.splitlines()[-1]
    assert f"error: argument {option}: invalid int value: " in error, result.stderr[:300]
    assert f"({len(value)} characters)" in error
    assert len(error.encode("utf-8")) < 200, result.stderr[:300]
    assert value[:21] not in result.stderr


def test_missing_file_is_a_data_error(run_cli, workdir):
    result = run_cli("curve", "points", "--curve", "nope.ecff", cwd=workdir)
    assert result.returncode == 2, result.stderr


def test_unknown_subcommand_is_a_usage_error(run_cli, tmp_path):
    result = run_cli("frobnicate", cwd=tmp_path)
    assert result.returncode == 1, result.stderr


@pytest.mark.parametrize("command", [
    (_LONG_TEXT,),
    ("curve", _LONG_TEXT),
    ("curve", "points", "--curve", "a.ecff", _LONG_TEXT),
], ids=["command", "subcommand", "unrecognized"])
def test_long_unknown_arguments_are_cut_short(run_cli, tmp_path, command):
    result = run_cli(*command, cwd=tmp_path)
    assert result.returncode == 1, result.stderr[:300]
    error = result.stderr.splitlines()[-1]
    assert len(error.encode("utf-8")) < 200, result.stderr[:300]
    assert f"({len(_LONG_TEXT)} characters)" in error
    assert _LONG_TEXT[:21] not in result.stderr


def test_short_unknown_arguments_keep_argparse_wording(run_cli, tmp_path):
    stock = argparse.ArgumentParser(prog="eccipher curve", exit_on_error=False)
    subcommands = stock.add_subparsers(dest="subcommand")
    subcommands.add_parser("init")
    subcommands.add_parser("points")
    with pytest.raises(argparse.ArgumentError) as caught:
        stock.parse_args(["nope"])
    result = run_cli("curve", "nope", cwd=tmp_path)
    assert result.returncode == 1, result.stderr
    assert result.stderr.splitlines()[-1] == f"eccipher curve: error: {caught.value}"
    result = run_cli("curve", "points", "--curve", "a.ecff", "extra", "x", cwd=tmp_path)
    assert result.returncode == 1, result.stderr
    assert result.stderr.splitlines()[-1] == "eccipher: error: unrecognized arguments: extra x"


def test_missing_required_flag_is_a_usage_error(run_cli, tmp_path):
    result = run_cli("curve", "init", "--p", "37", cwd=tmp_path)
    assert result.returncode == 1, result.stderr


def test_full_random_pipeline_recovers_message(run_cli, tmp_path):
    result = run_cli("curve", "init", *CURVE_ARGS, "--out", "demo.ecff", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    for name, seed in (("a", 11), ("b", 22)):
        result = run_cli(
            "keygen", "--curve", "demo.ecff", "--seed", seed,
            "--out-private", f"{name}.priv", "--out-public", f"{name}.pub",
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
    for own, peer in (("a", "b"), ("b", "a")):
        result = run_cli(
            "derive-specific", "--private", f"{own}.priv", "--peer-public", f"{peer}.pub",
            "--out", f"{own}_for_{peer}.spec", cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
    message = "meet2nite#9"
    enc = run_cli(
        "encrypt", "--private", "b.priv", "--peer-public", "a.pub",
        "--peer-specific", "a_for_b.spec", "--message", message, "--seed", 5,
        cwd=tmp_path,
    )
    assert enc.returncode == 0, enc.stderr
    dec = run_cli(
        "decrypt", "--private", "a.priv", "--peer-public", "b.pub",
        "--peer-specific", "b_for_a.spec", "--cipher", enc.stdout.strip(),
        cwd=tmp_path,
    )
    assert dec.returncode == 0, dec.stderr
    assert dec.stdout == message + "\n"


def test_key_commands_never_count_the_group(tmp_path, monkeypatch, enumerations, capsys):
    # Only `curve init`, which prints #E, enumerates the curve; the README
    # walkthrough's key commands need the base order alone.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["curve", "init", *CURVE_ARGS, "--out", "demo.ecff"]) == 0
    assert capsys.readouterr().out == "group order = 43\nbase point order = 43\n"
    assert len(enumerations) == 1
    enumerations.clear()
    for name, alpha, point in (("alice", "5", "10,20"), ("bob", "7", "11,20")):
        assert cli.main(["keygen", "--curve", "demo.ecff", "--alpha", alpha, "--point", point,
                         "--out-private", f"{name}.priv", "--out-public", f"{name}.pub"]) == 0
    for own, peer in (("alice", "bob"), ("bob", "alice")):
        assert cli.main(["derive-specific", "--private", f"{own}.priv",
                         "--peer-public", f"{peer}.pub", "--issuer", own, "--audience", peer,
                         "--out", f"{own}_for_{peer}.spec"]) == 0
    assert cli.main(["encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
                     "--peer-specific", "alice_for_bob.spec", "--message", "attack",
                     "--gammas", "8,12,19,2,3,23"]) == 0
    assert cli.main(["decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
                     "--peer-specific", "bob_for_alice.spec", "--cipher", "b5cl#jvb7p@f"]) == 0
    assert capsys.readouterr() == ("b5cl#jvb7p@f\nattack\n", "")
    assert enumerations == []


def test_encrypt_parses_each_files_setup_and_searches_the_base_order_once(
        tmp_path, monkeypatch, capsys, searches):
    # The private key, the peer's general key and the peer's specific key
    # each give their own CurveSetup, and only the private key's computes
    # orders, so encrypt searches the base order once; without --table-base
    # the base also generates the code table.
    monkeypatch.chdir(tmp_path)
    assert CURVE_ARGS[-2] == "--table-base"
    assert cli.main(["curve", "init", *CURVE_ARGS[:-2], "--out", "demo.ecff"]) == 0
    for name, seed in (("alice", "1"), ("bob", "2")):
        assert cli.main(["keygen", "--curve", "demo.ecff", "--seed", seed,
                         "--out-private", f"{name}.priv", "--out-public", f"{name}.pub"]) == 0
    assert cli.main(["derive-specific", "--private", "alice.priv", "--peer-public", "bob.pub",
                     "--out", "alice_for_bob.spec"]) == 0
    capsys.readouterr()
    searches.clear()
    built = []
    original = keyfile.CurveSetup.__init__

    def counting_init(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(keyfile.CurveSetup, "__init__", counting_init)
    assert cli.main(["encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
                     "--peer-specific", "alice_for_bob.spec", "--message", "attack",
                     "--seed", "4"]) == 0
    assert capsys.readouterr().err == ""
    assert len(built) == 3
    assert [(pt.x, pt.y) for pt in searches] == [vectors.BASE]


def test_a_wide_command_indexes_its_alphabet_once(tmp_path, monkeypatch, capsys):
    # On E_16381(2,9), whose 16,473 points all get a symbol, the three key
    # files' distinct-symbols checks and the code table share one index of
    # the alphabet, so encrypt and decrypt each make one pass over it.  The
    # cache is cleared so the ceremony's parses do not count.
    monkeypatch.chdir(tmp_path)
    alphabet = "".join(chr(0x4E00 + i) for i in range(16473))
    message = "".join(alphabet[i] for i in (0, 1, 7, 4096, 16472, 16472, 9999, 3))
    cipher = "".join(alphabet[i] for i in (7735, 4964, 9939, 6580, 3381, 8881, 12979, 3246,
                                           15692, 1563, 5079, 6425, 2953, 12311, 2180, 8707))
    assert cli.main(["curve", "init", "--p", "16381", "--a", "2", "--b", "9",
                     "--base", "2,9880", "--alphabet", alphabet, "--out", "wide.ecff"]) == 0
    for name, seed in (("alice", "1"), ("bob", "2")):
        assert cli.main(["keygen", "--curve", "wide.ecff", "--seed", seed,
                         "--out-private", f"{name}.priv", "--out-public", f"{name}.pub"]) == 0
    for own, peer in (("alice", "bob"), ("bob", "alice")):
        assert cli.main(["derive-specific", "--private", f"{own}.priv",
                         "--peer-public", f"{peer}.pub", "--out", f"{own}_for_{peer}.spec"]) == 0
    capsys.readouterr()
    commands = [
        (["encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
          "--peer-specific", "alice_for_bob.spec", "--message", message, "--seed", "4"], cipher),
        (["decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
          "--peer-specific", "bob_for_alice.spec", "--cipher", cipher], message),
    ]
    for args, printed in commands:
        codec._positions.cache_clear()
        assert cli.main(args) == 0
        assert capsys.readouterr() == (printed + "\n", "")
        info = codec._positions.cache_info()
        assert (info.misses, info.hits) == (1, 3)


# ------------------------------------------------------------------ fuzzing

_DEMO_FILES = ("demo.ecff", "alice.priv", "alice.pub", "bob.priv", "bob.pub",
               "alice_for_bob.spec", "bob_for_alice.spec")
_FUZZ_COMMANDS = (
    ("curve", "init", *CURVE_ARGS, "--out", "c.ecff"),
    ("curve", "points", "--curve", "demo.ecff"),
    ("keygen", "--curve", "demo.ecff", "--seed", "1",
     "--out-private", "x.priv", "--out-public", "x.pub"),
    ("keygen", "--curve", "demo.ecff", "--alpha", "5", "--point", "10,20",
     "--out-private", "x.priv", "--out-public", "x.pub"),
    ("derive-specific", "--private", "alice.priv", "--peer-public", "bob.pub",
     "--issuer", "alice", "--audience", "bob", "--out", "x.spec"),
    ("encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
     "--peer-specific", "alice_for_bob.spec", "--message", "attack", "--gammas", "8,12,19,2,3,23"),
    ("encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
     "--peer-specific", "alice_for_bob.spec", "--message", "meet#at#9!", "--seed", "3"),
    ("decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
     "--peer-specific", "bob_for_alice.spec", "--cipher", "b5cl#jvb7p@f"),
)
_FUZZ_VALUES = ("", "0", "-1", "1", "2", "36", "37", "43", "44", "1009", "9" * 40, "x",
                "1.5", "inf", "9,4", "5,25", "0,0", "1,2,3", " 7", "é", "a\x00b", "*ab",
                "8,12", "ab", "b5cl", "一丁")


def _fuzz_value(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.randint(-50, 1100))
    if kind == 1:
        return f"{rng.randint(-2, 40)},{rng.randint(-2, 40)}"
    if kind == 2:
        return rng.choice(_FUZZ_VALUES)
    return "".join(rng.choice(DEFAULT_ALPHABET + "AZ,-= é")
                   for _ in range(rng.randint(0, 12)))


def _fuzzed_file(rng, data):
    # One to three line edits: a value replaced, a byte changed, a line cut
    # short, dropped, repeated or swapped with another.
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        line = lines[i]
        edit = rng.randrange(6)
        if edit == 0:
            key, sep, _ = line.partition(b" = ")
            lines[i] = key + sep + _fuzz_value(rng).encode()
        elif edit == 1:
            at = rng.randrange(len(line) + 1)
            lines[i] = line[:at] + bytes([rng.choice(b"09=-, \r\t\xff\x00")]) + line[at + 1:]
        elif edit == 2:
            lines[i] = line[:rng.randrange(len(line) + 1)]
        elif edit == 3 and len(lines) > 1:
            del lines[i]
        elif edit == 4:
            lines.insert(i, lines[j])
        else:
            lines[i], lines[j] = lines[j], line
    return b"\n".join(lines)


def test_fuzzed_key_files_and_arguments_never_fail_partway(tmp_path, monkeypatch, capsys):
    # Seeded in-process runs of every command, on the demo's key files
    # with one to three lines changed or with random argument values: each
    # exits 0, 1 or 2 (argparse's SystemExit counts as its code), raises
    # nothing else, and prints no result before a failing exit.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["curve", "init", *CURVE_ARGS, "--out", "demo.ecff"]) == 0
    for name, alpha, point in (("alice", "5", "10,20"), ("bob", "7", "11,20")):
        assert cli.main(["keygen", "--curve", "demo.ecff", "--alpha", alpha, "--point", point,
                         "--out-private", f"{name}.priv", "--out-public", f"{name}.pub"]) == 0
    for own, peer in (("alice", "bob"), ("bob", "alice")):
        assert cli.main(["derive-specific", "--private", f"{own}.priv",
                         "--peer-public", f"{peer}.pub", "--issuer", own, "--audience", peer,
                         "--out", f"{own}_for_{peer}.spec"]) == 0
    capsys.readouterr()
    originals = {name: Path(name).read_bytes() for name in _DEMO_FILES}
    rng = random.Random(7)
    codes = []
    for run in range(400):
        for name, data in originals.items():
            Path(name).write_bytes(data)
        argv = list(rng.choice(_FUZZ_COMMANDS))
        if run % 2:
            inputs = [name for name in _DEMO_FILES if name in argv] or list(_DEMO_FILES)
            name = rng.choice(inputs)
            mutated = _fuzzed_file(rng, originals[name])
            Path(name).write_bytes(mutated)
            case = (argv, name, mutated)
        else:
            for _ in range(rng.randint(1, 3)):
                at = rng.choice([i for i, arg in enumerate(argv) if arg.startswith("--")])
                argv[at + 1] = _fuzz_value(rng)
            case = argv
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            raise AssertionError(case) from exc
        out, _ = capsys.readouterr()
        assert code in (0, 1, 2), case
        assert code == 0 or out == "", case
        codes.append(code)
    assert set(codes) == {0, 1, 2}


# --------------------------------------------------------------- key break

def test_the_public_files_alone_break_both_keys_and_the_message(tmp_path, monkeypatch, capsys):
    # A general public key leaks alpha*C = K1 - K2, so one discrete log on
    # the shared base C gives a party's scalar, and its secret point is
    # alpha^-1 * K2, as the base order 43 is prime.  The second break
    # reuses the baby steps the first one built on C.
    monkeypatch.chdir(tmp_path)
    message = "meet#at#9!"
    assert cli.main(["curve", "init", *CURVE_ARGS, "--out", "demo.ecff"]) == 0
    for name, seed in (("alice", "1"), ("bob", "2")):
        assert cli.main(["keygen", "--curve", "demo.ecff", "--seed", seed,
                         "--out-private", f"{name}.priv", "--out-public", f"{name}.pub"]) == 0
    for own, peer in (("alice", "bob"), ("bob", "alice")):
        assert cli.main(["derive-specific", "--private", f"{own}.priv",
                         "--peer-public", f"{peer}.pub", "--out", f"{own}_for_{peer}.spec"]) == 0
    capsys.readouterr()
    assert cli.main(["encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
                     "--peer-specific", "alice_for_bob.spec", "--message", message,
                     "--seed", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\n")
    ciphertext = out[:-1]

    def text(name):
        return Path(name).read_bytes().decode("utf-8")

    setup, _ = keyfile.parse_general_public_key(text("alice.pub"))
    base, n = setup.base, setup.curve.order_of(setup.base)
    assert n == 43
    attack.ecdlp_bsgs(setup.table_point, base, n)   # another generator takes the kept entry
    built = []
    build = attack._Kept

    def counting_build(generator):
        built.append(generator)
        return build(generator)

    monkeypatch.setattr(attack, "_Kept", counting_build)
    recovered = {}
    for name in ("alice", "bob"):
        _, public = keyfile.parse_general_public_key(text(f"{name}.pub"))
        alpha = attack.ecdlp_bsgs(base, public.k1 - public.k2, n)
        private, rebuilt = keypair_from_secret(setup.curve, base, alpha,
                                               pow(alpha, -1, n) * public.k2)
        assert rebuilt == public
        assert (setup, private, public) == keyfile.parse_private_key(text(f"{name}.priv"))
        recovered[name] = private
    assert built == [base]
    _, bob = keyfile.parse_general_public_key(text("bob.pub"))
    _, bob_for_alice = keyfile.parse_specific_public_key(text("bob_for_alice.spec"))
    context = DecryptionContext(recovered["alice"], bob.k1, bob_for_alice, setup.code_table())
    assert decrypt_message(context, ciphertext) == message


# ------------------------------------------------------------------ start-up

def test_importing_the_cli_loads_no_dataclasses_inspect_typing_or_pathlib():
    # Each command pays its imports: the records are plain __slots__ classes,
    # `codec` takes Sequence from collections.abc and `cli` opens key files
    # with open().  -S keeps site start-up from importing any on its own.
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, eccipher.cli; print(sorted("
         "{'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
