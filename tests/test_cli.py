"""The command-line interface, driven as a real subprocess (see `run_cli`)."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vectors

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


# ------------------------------------------------------------------ start-up

def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Each command pays its imports; the records are plain __slots__ classes.
    # -S keeps site start-up from importing either on its own.
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, eccipher.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
