"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.

Criteria 3, 4 and 10 check the circulated transcription of the
demonstration vectors value by value.  That transcription misprints the E1
of its fifth encryption step (vectors.py documents the arithmetic), so no
implementation with a correct group law reproduces it verbatim.  Those
criteria therefore require every other transcribed point exactly, and at
step 5 they require what the brute-force oracle derives from the
transcription's own nonces: the printed E1 is step 1's (8*C) while the
stated nonce 3 gives 3*C, so the scheme's ciphertext differs from the
circulated one in exactly that symbol, and decrypting the circulated
ciphertext recovers M5 - alpha_A*(8-3)*C in place of M5.
"""

import functools
import random
import time

import pytest

import vectors
from eccipher import (
    CodeTable,
    Curve,
    DecryptionContext,
    EncryptionContext,
    decrypt_message,
    decrypt_point,
    derive_specific,
    ecdlp_bsgs,
    ecdlp_exhaustive,
    encrypt_message,
    encrypt_point,
    keygen,
    keypair_from_secret,
    slow_scalar_mul,
)
from eccipher.keyfile import (
    CurveSetup,
    render_curve_setup,
    render_general_public_key,
    render_private_key,
    render_specific_public_key,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}")
                raise
            print(f"criterion {number:2d} PASS  {label}")
        return wrapper
    return decorate


def _coords(point):
    return None if point.is_infinity else (point.x, point.y)


# --------------------------------------------------------------------------

@criterion(1, "point-set reproduction (43 points, exact set, < 1 ms)")
def test_criterion_01_point_set(e37):
    points = e37.enumerate_points()
    assert len(points) == 43
    assert {_coords(p) for p in points} == {None} | set(vectors.AFFINE_POINTS)

    best = min(_timed_enumeration() for _ in range(5))
    assert best < 0.001, f"enumeration took {best * 1e3:.3f} ms"


def _timed_enumeration():
    fresh = Curve(vectors.P, vectors.A, vectors.B)
    start = time.perf_counter()
    fresh.enumerate_points()
    return time.perf_counter() - start


@criterion(2, "key-vector reproduction (exact point equality)")
def test_criterion_02_key_vectors(e37, e37_base):
    alice_private, alice_public = keypair_from_secret(
        e37, e37_base, vectors.ALICE_SCALAR, e37.point(*vectors.ALICE_POINT)
    )
    bob_private, bob_public = keypair_from_secret(
        e37, e37_base, vectors.BOB_SCALAR, e37.point(*vectors.BOB_POINT)
    )
    assert alice_public.k1 == e37.point(*vectors.ALICE_K1)
    assert alice_public.k2 == e37.point(*vectors.ALICE_K2)
    assert bob_public.k1 == e37.point(*vectors.BOB_K1)
    assert bob_public.k2 == e37.point(*vectors.BOB_K2)
    assert derive_specific(alice_private, bob_public.k2).point \
        == e37.point(*vectors.ALICE_SPECIFIC)
    assert derive_specific(bob_private, alice_public.k2).point \
        == e37.point(*vectors.BOB_SPECIFIC)


# The fifth step (index 4) is the one the transcription misprints; its E1
# is ciphertext symbol 8.
STEP5 = 4
STEP5_E1_SYMBOL = 2 * STEP5


def _symbol(coords):
    """Code-table symbol of a point, read from the frozen vectors alone."""
    return vectors.ALPHABET[0 if coords is None else vectors.AFFINE_POINTS.index(coords) + 1]


def _step5_e1_by_oracle(e37):
    """E1 under step 5's stated nonce, by repeated addition only.

    Also proves, by the same oracle, that the transcription's printed step-5
    E1 is step 1's E1 copied, and that it differs from the stated nonce's.
    """
    base = e37.point(*vectors.BASE)
    printed = vectors.MISPRINTED_STEP5_PAIR[0]
    assert _coords(slow_scalar_mul(vectors.NONCES[0], base)) == printed
    stated = _coords(slow_scalar_mul(vectors.NONCES[STEP5], base))
    assert stated != printed
    return stated


def _mended_ciphertext(step5_e1):
    """The circulated ciphertext with step 5's E1 symbol replaced by the oracle's.

    It differs from the circulated one at exactly one position.
    """
    circulated = vectors.MISPRINTED_CIPHERTEXT
    i = STEP5_E1_SYMBOL
    mended = circulated[:i] + _symbol(step5_e1) + circulated[i + 1:]
    assert [k for k, (x, y) in enumerate(zip(mended, circulated)) if x != y] == [i]
    return mended


def _misprint_decryption_by_oracle(e37):
    """M5 - alpha_A*(8-3)*C: what decrypting the printed step-5 pair must recover.

    The recipient removes alpha_A*E1 with E1 = 8*C where the sender added
    the mask for E1 = 3*C.
    """
    _step5_e1_by_oracle(e37)  # proves the printed E1 is NONCES[0]*C
    base = e37.point(*vectors.BASE)
    shift = vectors.ALICE_SCALAR * (vectors.NONCES[0] - vectors.NONCES[STEP5])
    return _coords(e37.point(*vectors.MESSAGE_POINTS[STEP5]) - slow_scalar_mul(shift, base))


@criterion(3, "encryption-vector reproduction, circulated transcription")
def test_criterion_03_encryption_vectors(e37, bob_to_alice):
    stated_pairs = list(vectors.CIPHER_PAIRS)
    stated_pairs[STEP5] = vectors.MISPRINTED_STEP5_PAIR
    step5_e1 = _step5_e1_by_oracle(e37)

    problems = []
    for step, (m_coords, nonce, (e1, e2)) in enumerate(
        zip(vectors.MESSAGE_POINTS, vectors.NONCES, stated_pairs)
    ):
        if step == STEP5:
            e1 = step5_e1
        pair = encrypt_point(bob_to_alice, e37.point(*m_coords), nonce)
        actual = tuple(_coords(point) for point in pair)
        if actual != (e1, e2):
            problems.append(f"step {step + 1}: expected {(e1, e2)}, scheme yields {actual}")

    ciphertext = encrypt_message(bob_to_alice, vectors.MESSAGE, nonces=vectors.NONCES)
    expected = _mended_ciphertext(step5_e1)
    if ciphertext != expected:
        problems.append(f"ciphertext: expected {expected!r}, scheme yields {ciphertext!r}")
    assert not problems, "; ".join(problems)


@criterion(4, "decryption-vector reproduction, circulated transcription")
def test_criterion_04_decryption_vectors(e37, e37_table, alice_from_bob):
    expected_points = list(vectors.MESSAGE_POINTS)
    expected_points[STEP5] = _misprint_decryption_by_oracle(e37)

    problems = []
    symbols = vectors.MISPRINTED_CIPHERTEXT
    for step, expected in enumerate(expected_points):
        pair = (
            e37_table.encode_symbol(symbols[2 * step]),
            e37_table.encode_symbol(symbols[2 * step + 1]),
        )
        recovered = _coords(decrypt_point(alice_from_bob, pair))
        if recovered != expected:
            problems.append(f"step {step + 1}: expected {expected}, recovered {recovered}")
    plaintext = decrypt_message(alice_from_bob, symbols)
    if plaintext != vectors.MISPRINTED_DECRYPTION:
        problems.append(
            f"plaintext of {symbols!r}: expected {vectors.MISPRINTED_DECRYPTION!r}, "
            f"got {plaintext!r}"
        )
    plaintext = decrypt_message(alice_from_bob, vectors.CIPHERTEXT)
    if plaintext != vectors.MESSAGE:
        problems.append(
            f"plaintext of {vectors.CIPHERTEXT!r}: expected {vectors.MESSAGE!r}, "
            f"got {plaintext!r}"
        )
    assert not problems, "; ".join(problems)


@criterion(5, "masking identity, 1000 random key sets per curve, zero failures")
def test_criterion_05_masking_identity(e37, e1009):
    failures = 0
    for curve, base_coords in ((e37, vectors.BASE), (e1009, vectors.MID_BASE)):
        base = curve.point(*base_coords)
        n = curve.order_of(base)
        rng = random.Random(int(curve.p))
        for _ in range(1000):
            a_priv, a_pub = keygen(curve, base, rng)
            b_priv, b_pub = keygen(curve, base, rng)
            a_spec = derive_specific(a_priv, b_pub.k2)
            b_spec = derive_specific(b_priv, a_pub.k2)
            nonce = rng.randrange(1, n)
            e1 = nonce * base
            sender_mask = ((b_priv.scalar + nonce) * a_pub.k1
                           - nonce * a_pub.k2 + a_spec.point)
            recipient_mask = (a_priv.scalar * e1
                              + a_priv.scalar * b_pub.k1 + b_spec.point)
            if sender_mask != recipient_mask:
                failures += 1
    assert failures == 0


@criterion(6, "group-law suite (closure, commutativity, associativity, Lagrange, < 5 s)")
def test_criterion_06_group_laws(e37):
    start = time.perf_counter()
    points = e37.enumerate_points()
    assert len(points) == 43

    checked_pairs = 0
    for p in points:
        for q in points:
            total = p + q
            assert e37.contains(total)
            assert total == q + p
            checked_pairs += 1
    assert checked_pairs == 1849

    tiny = Curve(5, 1, 1)
    tiny_points = tiny.enumerate_points()
    assert len(tiny_points) <= 20
    for p in tiny_points:
        for q in tiny_points:
            for r in tiny_points:
                assert (p + q) + r == p + (q + r)

    rng = random.Random(1849)
    for _ in range(10_000):
        p, q, r = (rng.choice(points) for _ in range(3))
        assert (p + q) + r == p + (q + r)

    inf = e37.infinity()
    for p in points:
        assert p + inf == p
        assert (p + (-p)).is_infinity
        assert (43 * p).is_infinity

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"group-law suite took {elapsed:.2f} s"


@criterion(7, "oracle equivalence (fast vs slow scalars; BSGS vs exhaustive)")
def test_criterion_07_oracle_equivalence(e37):
    points = e37.enumerate_points()
    for p in points:
        for k in range(86):
            assert k * p == slow_scalar_mul(k, p)

    generator = e37.point(5, 25)
    for target in points:
        assert ecdlp_bsgs(generator, target, 43) \
            == ecdlp_exhaustive(generator, target, 43)


@criterion(8, "code-table hypothesis (i * (5,25) reproduces all 43 cells)")
def test_criterion_08_code_table(e37, e37_table):
    generator = e37.point(*vectors.TABLE_POINT)
    acc = e37.infinity()
    published_cells = [None] + vectors.AFFINE_POINTS
    for index, symbol in enumerate(vectors.ALPHABET):
        assert _coords(acc) == published_cells[index]
        assert e37_table.encode_symbol(symbol) == acc
        acc = acc + generator  # repeated addition, not double-and-add


@criterion(9, "round-trip property, 1000 random trials across two curves")
def test_criterion_09_round_trip(e37, e31):
    failures = 0
    for curve, base_coords in ((e37, vectors.BASE), (e31, vectors.ALT_BASE)):
        base = curve.point(*base_coords)
        table = CodeTable.from_generator(curve, base)
        rng = random.Random(1000 + int(curve.p))
        for _ in range(500):
            a_priv, a_pub = keygen(curve, base, rng)
            b_priv, b_pub = keygen(curve, base, rng)
            enc = EncryptionContext(
                b_priv, a_pub, derive_specific(a_priv, b_pub.k2), table
            )
            dec = DecryptionContext(
                a_priv, b_pub.k1, derive_specific(b_priv, a_pub.k2), table
            )
            message = "".join(
                rng.choice(table.alphabet) for _ in range(rng.randrange(0, 21))
            )
            if decrypt_message(dec, encrypt_message(enc, message, rng=rng)) != message:
                failures += 1
    assert failures == 0


# ------------------------------------------------------------ CLI criterion

def _expected_file_bytes(e37):
    """Canonical file contents implied by the fixed key vectors."""
    base = e37.point(*vectors.BASE)
    setup = CurveSetup(e37, base, e37.point(*vectors.TABLE_POINT), vectors.ALPHABET)
    alice_priv, alice_pub = keypair_from_secret(
        e37, base, vectors.ALICE_SCALAR, e37.point(*vectors.ALICE_POINT)
    )
    bob_priv, bob_pub = keypair_from_secret(
        e37, base, vectors.BOB_SCALAR, e37.point(*vectors.BOB_POINT)
    )
    return {
        "demo.ecff": render_curve_setup(setup),
        "alice.priv": render_private_key(setup, alice_priv, alice_pub),
        "alice.pub": render_general_public_key(setup, alice_pub),
        "bob.priv": render_private_key(setup, bob_priv, bob_pub),
        "bob.pub": render_general_public_key(setup, bob_pub),
        "ab.spec": render_specific_public_key(
            setup, derive_specific(alice_priv, bob_pub.k2, "alice", "bob")),
        "ba.spec": render_specific_public_key(
            setup, derive_specific(bob_priv, alice_pub.k2, "bob", "alice")),
    }


@criterion(10, "CLI end-to-end scenario, byte-exact against criteria 2-4")
def test_criterion_10_cli_end_to_end(e37, run_cli, tmp_path):
    problems = []

    init = run_cli("curve", "init", "--p", 37, "--a", 2, "--b", 9, "--base", "9,4",
                   "--table-base", "5,25", "--out", "demo.ecff", cwd=tmp_path)
    assert init.returncode == 0, init.stderr
    assert init.stdout == "group order = 43\nbase point order = 43\n"

    for name, scalar, point in (("alice", 5, "10,20"), ("bob", 7, "11,20")):
        step = run_cli("keygen", "--curve", "demo.ecff", "--alpha", scalar,
                       "--point", point, "--out-private", f"{name}.priv",
                       "--out-public", f"{name}.pub", cwd=tmp_path)
        assert step.returncode == 0, step.stderr

    spec_args = (("ab.spec", "alice", "bob"), ("ba.spec", "bob", "alice"))
    for out, own, peer in spec_args:
        step = run_cli("derive-specific", "--private", f"{own}.priv",
                       "--peer-public", f"{peer}.pub", "--issuer", own,
                       "--audience", peer, "--out", out, cwd=tmp_path)
        assert step.returncode == 0, step.stderr

    for name, expected in _expected_file_bytes(e37).items():
        actual = (tmp_path / name).read_text(encoding="utf-8")
        if actual != expected:
            problems.append(f"{name}: file bytes differ from the key vectors")

    enc = run_cli("encrypt", "--private", "bob.priv", "--peer-public", "alice.pub",
                  "--peer-specific", "ab.spec", "--message", vectors.MESSAGE,
                  "--gammas", ",".join(map(str, vectors.NONCES)), cwd=tmp_path)
    assert enc.returncode == 0, enc.stderr
    expected = _mended_ciphertext(_step5_e1_by_oracle(e37))
    if enc.stdout != expected + "\n":
        problems.append(f"encrypt: expected {expected!r}, scheme yields {enc.stdout!r}")

    for cipher, plain in ((vectors.MISPRINTED_CIPHERTEXT, vectors.MISPRINTED_DECRYPTION),
                          (vectors.CIPHERTEXT, vectors.MESSAGE)):
        dec = run_cli("decrypt", "--private", "alice.priv", "--peer-public", "bob.pub",
                      "--peer-specific", "ba.spec", "--cipher", cipher, cwd=tmp_path)
        assert dec.returncode == 0, dec.stderr
        if dec.stdout != plain + "\n":
            problems.append(
                f"decrypt of {cipher!r}: expected {plain!r}, got {dec.stdout!r}"
            )

    assert not problems, "; ".join(problems)
