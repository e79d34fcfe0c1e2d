"""Point encryption/decryption and the whole-message text pipeline."""

import random
import re

import pytest

import vectors
from eccipher import (
    CodeTable,
    Curve,
    DecryptionContext,
    EncryptionContext,
    GeneralPublicKey,
    InvalidCiphertextError,
    MalformedCiphertextError,
    MessageTooLongError,
    Point,
    SpecificPublicKey,
    UnknownPointError,
    UnknownSymbolError,
    decrypt_message,
    decrypt_point,
    derive_specific,
    encrypt_message,
    encrypt_point,
    keygen,
    keypair_from_secret,
)
from eccipher.reference import slow_scalar_mul


def _pair(curve, coords):
    (x1, y1), (x2, y2) = coords
    return curve.point(x1, y1), curve.point(x2, y2)


# ----------------------------------------------------------- fixed vectors

def test_single_point_encryption_vectors(e37, bob_to_alice):
    for (m_coords, nonce, pair_coords) in zip(
        vectors.MESSAGE_POINTS, vectors.NONCES, vectors.CIPHER_PAIRS
    ):
        pair = encrypt_point(bob_to_alice, e37.point(*m_coords), nonce)
        assert type(pair) is tuple and pair == _pair(e37, pair_coords)


def test_single_point_decryption_vectors(e37, alice_from_bob):
    for m_coords, pair_coords in zip(vectors.MESSAGE_POINTS, vectors.CIPHER_PAIRS):
        pair = _pair(e37, pair_coords)
        assert decrypt_point(alice_from_bob, pair) == e37.point(*m_coords)
        assert decrypt_point(alice_from_bob, list(pair)) == e37.point(*m_coords)


def test_message_encryption_vector(bob_to_alice):
    assert encrypt_message(bob_to_alice, vectors.MESSAGE, nonces=vectors.NONCES) \
        == vectors.CIPHERTEXT


def test_message_decryption_vector(alice_from_bob):
    assert decrypt_message(alice_from_bob, vectors.CIPHERTEXT) == vectors.MESSAGE


def test_misprinted_transcription_decrypts_to_near_miss(alice_from_bob):
    # The circulated step-5 pair cannot come out of the scheme (its E1
    # implies nonce 8, its E2 nonce 3); decrypting the misprinted string
    # recovers '3' in place of 'c'.  vectors.py has the full story.
    assert decrypt_message(alice_from_bob, vectors.MISPRINTED_CIPHERTEXT) \
        == vectors.MISPRINTED_DECRYPTION


def test_exhaustive_round_trip_over_all_points_and_nonces(e37, e37_table,
                                                          bob_to_alice, alice_from_bob):
    for message_point in e37_table.encode_message(e37_table.alphabet):
        for nonce in range(1, 43):
            pair = encrypt_point(bob_to_alice, message_point, nonce)
            assert decrypt_point(alice_from_bob, pair) == message_point


# ------------------------------------------------------------- text format

def test_empty_message(bob_to_alice, alice_from_bob):
    assert encrypt_message(bob_to_alice, "", nonces=[]) == ""
    assert decrypt_message(alice_from_bob, "") == ""


def test_ciphertext_is_twice_the_message_length(bob_to_alice):
    rng = random.Random(5)
    for message in ("a", "attack", "mixed1234#@", "*" * 20):
        assert len(encrypt_message(bob_to_alice, message, rng=rng)) == 2 * len(message)


def test_equal_characters_encrypt_differently(bob_to_alice):
    text = encrypt_message(bob_to_alice, "aa", rng=random.Random(11))
    assert len(text) == 4
    assert text[0:2] != text[2:4]


def test_default_rng_uses_system_entropy(bob_to_alice, alice_from_bob):
    text = encrypt_message(bob_to_alice, "attack")
    assert decrypt_message(alice_from_bob, text) == "attack"


def test_distinct_nonces_give_distinct_e1(e37, e37_table, bob_to_alice):
    m = e37_table.encode_symbol("a")
    firsts = {encrypt_point(bob_to_alice, m, nonce)[0] for nonce in range(1, 43)}
    assert len(firsts) == 42


def test_odd_length_ciphertext_rejected(alice_from_bob):
    with pytest.raises(MalformedCiphertextError):
        decrypt_message(alice_from_bob, "b5c")


def test_unknown_symbol_in_ciphertext_rejected(alice_from_bob):
    with pytest.raises(UnknownSymbolError):
        decrypt_message(alice_from_bob, "b^")


def test_unknown_symbol_in_message_rejected(bob_to_alice):
    with pytest.raises(UnknownSymbolError, match="position 1"):
        encrypt_message(bob_to_alice, "a b", rng=random.Random(1))


def test_message_longer_than_nonce_space_rejected(bob_to_alice):
    with pytest.raises(MessageTooLongError):
        encrypt_message(bob_to_alice, "a" * 43, rng=random.Random(1))
    encrypt_message(bob_to_alice, "a" * 42, rng=random.Random(1))


def test_wrong_nonce_count_rejected(bob_to_alice):
    with pytest.raises(ValueError, match="nonces"):
        encrypt_message(bob_to_alice, "attack", nonces=[8, 12])


def test_nonce_out_of_range_rejected(e37, e37_table, bob_to_alice):
    m = e37_table.encode_symbol("a")
    for bad in (0, 43, -1):
        with pytest.raises(ValueError):
            encrypt_point(bob_to_alice, m, bad)


def test_infinity_is_a_legal_cipher_point(e37, bob_to_alice, alice_from_bob):
    # '*' encodes infinity, so E2 (or a forged E1) may be the identity;
    # both slots must flow through decryption unharmed.
    inf_pair = (e37.infinity(), e37.infinity())
    recovered = decrypt_point(alice_from_bob, inf_pair)
    assert recovered.is_infinity or e37.is_on_curve(recovered.x, recovered.y)
    plain = decrypt_message(alice_from_bob, "**")
    assert len(plain) == 1


def test_e2_can_be_infinity_and_renders_as_star(e37, e37_table, bob_to_alice,
                                                alice_from_bob):
    # Search the nonce space for a pair whose E2 is the identity.
    hits = []
    for symbol in e37_table.alphabet:
        m = e37_table.encode_symbol(symbol)
        for nonce in range(1, 43):
            _, e2 = encrypt_point(bob_to_alice, m, nonce)
            if e2.is_infinity:
                hits.append((symbol, nonce))
                text = encrypt_message(bob_to_alice, symbol, nonces=[nonce])
                assert text[1] == "*"
                assert decrypt_message(alice_from_bob, text) == symbol
    assert hits


def test_cross_curve_ciphertext_rejected(alice_from_bob):
    other = Curve(5, 1, 1)
    pair = (other.point(0, 1), other.point(0, 1))
    with pytest.raises(InvalidCiphertextError):
        decrypt_point(alice_from_bob, pair)


def test_context_rejects_mixed_curves(e37, e37_table, demo_keys):
    other = Curve(5, 1, 1)
    other_table = CodeTable.from_generator(other, other.point(0, 1), "*abcdefgh")
    with pytest.raises(ValueError, match="^code table belongs to a different curve$"):
        EncryptionContext(demo_keys.bob_private, demo_keys.alice_public,
                          demo_keys.alice_specific, other_table)
    # (0,3) lies on both E_37(2,9) and E_37(3,9), so only the curve differs.
    twin = Curve(37, 3, 9).point(0, 3)
    alice, bob = demo_keys.alice_public, demo_keys.bob_public
    mixed = "^all context points must share one curve$"
    cases = [
        (EncryptionContext, (demo_keys.bob_private, GeneralPublicKey(twin, alice.k2),
                             demo_keys.alice_specific, e37_table), mixed),
        (EncryptionContext, (demo_keys.bob_private, GeneralPublicKey(alice.k1, twin),
                             demo_keys.alice_specific, e37_table), mixed),
        (EncryptionContext, (demo_keys.bob_private, alice, SpecificPublicKey(twin),
                             e37_table), mixed),
        (DecryptionContext, (demo_keys.alice_private, twin, demo_keys.bob_specific,
                             e37_table), mixed),
        (DecryptionContext, (demo_keys.alice_private, bob.k1, SpecificPublicKey(twin),
                             e37_table), mixed),
        (DecryptionContext, (demo_keys.alice_private, bob.k1, demo_keys.bob_specific,
                             other_table), "^code table belongs to a different curve$"),
    ]
    for context, args, message in cases:
        with pytest.raises(ValueError, match=message):
            context(*args)


def test_message_point_on_another_curve_rejected(bob_to_alice):
    twin = Curve(37, 3, 9).point(0, 3)
    with pytest.raises(ValueError, match="^message point belongs to a different curve$"):
        encrypt_point(bob_to_alice, twin, 8)


# -------------------------------------------------------- masking identity

def test_masking_identity_for_random_keys(e37, e37_base):
    # What the sender adds, (s + g)*K1 - g*K2 + S, must equal what the
    # recipient subtracts, r*E1 + r*J1 + T, for every key set and nonce.
    rng = random.Random(2024)
    n = e37.order_of(e37_base)
    for _ in range(50):
        a_priv, a_pub = keygen(e37, e37_base, rng)
        b_priv, b_pub = keygen(e37, e37_base, rng)
        a_spec = derive_specific(a_priv, b_pub.k2)
        b_spec = derive_specific(b_priv, a_pub.k2)
        nonce = rng.randrange(1, n)
        e1 = nonce * e37_base
        sender_mask = (b_priv.scalar + nonce) * a_pub.k1 - nonce * a_pub.k2 + a_spec.point
        recipient_mask = a_priv.scalar * e1 + a_priv.scalar * b_pub.k1 + b_spec.point
        assert sender_mask == recipient_mask


def test_round_trip_with_random_keys_on_second_curve(e31):
    base = e31.point(*vectors.ALT_BASE)
    table = CodeTable.from_generator(e31, base)
    rng = random.Random(31)
    for _ in range(25):
        a_priv, a_pub = keygen(e31, base, rng)
        b_priv, b_pub = keygen(e31, base, rng)
        enc = EncryptionContext(b_priv, a_pub, derive_specific(a_priv, b_pub.k2), table)
        dec = DecryptionContext(a_priv, b_pub.k1, derive_specific(b_priv, a_pub.k2), table)
        message = "".join(rng.choice(table.alphabet) for _ in range(rng.randrange(0, 21)))
        assert decrypt_message(dec, encrypt_message(enc, message, rng=rng)) == message


@pytest.fixture()
def scalar_muls(monkeypatch):
    """The number of k * P products computed while the test runs."""
    calls = []
    original = Point.__rmul__

    def counting_rmul(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(Point, "__rmul__", counting_rmul)
    return calls


def test_encrypt_algebra_outside_the_base_subgroup(scalar_muls):
    # E_503(2,9) is cyclic of order 502 = 2 * 251: the table point G = (0,3)
    # generates it, and the base C = 2*G = (56,146) has order 251, so <C>
    # has index 2 in the table.  The scalar 3 on the secret point G puts
    # the recipient's K1 = 9*G and K2 = 3*G outside <C> but in the table,
    # so E2 is checked where no step may treat K1 or K2 as a multiple of C.
    # Every nonce is tried.  Each symbol costs two scalar multiplies to
    # encrypt, once the context holds s*K1 + S and K1 - K2, and one to
    # decrypt, once the context holds r*J1 + T.
    curve = Curve(503, 2, 9)
    generator = curve.point(0, 3)
    base = 2 * generator
    assert base == curve.point(56, 146)
    table = CodeTable.from_generator(curve, generator, "".join(chr(0x4E00 + i) for i in range(502)))
    recipient_private, recipient_public = keypair_from_secret(curve, base, 3, generator)
    sender_private, sender_public = keypair_from_secret(curve, base, 101, 17 * base)
    subgroup = {k * base for k in range(251)}
    assert recipient_public.k1 not in subgroup and recipient_public.k2 not in subgroup
    recipient_specific = derive_specific(recipient_private, sender_public.k2)
    sender_specific = derive_specific(sender_private, recipient_public.k2)
    scalar_muls.clear()
    enc = EncryptionContext(sender_private, recipient_public, recipient_specific, table)
    assert len(scalar_muls) == 1
    dec = DecryptionContext(recipient_private, sender_public.k1, sender_specific, table)
    points = curve.enumerate_points()
    k1, k2, spec = recipient_public.k1, recipient_public.k2, recipient_specific.point
    beta = sender_private.scalar
    sampled = set(random.Random(1009).sample(range(1, 251), 20))
    for nonce in range(1, 251):
        message = points[nonce * 7 % len(points)]
        scalar_muls.clear()
        e1, e2 = encrypt_point(enc, message, nonce)
        assert len(scalar_muls) == 2
        assert e2 == message + (beta + nonce) * k1 - nonce * k2 + spec
        scalar_muls.clear()
        assert decrypt_point(dec, (e1, e2)) == message
        assert len(scalar_muls) == 1
        if nonce in sampled:
            assert e1 == slow_scalar_mul(nonce, base)
            assert e2 == (message + slow_scalar_mul(beta + nonce, k1)
                          - slow_scalar_mul(nonce, k2) + spec)


def test_contexts_refuse_key_points_outside_the_table(e1009, scalar_muls):
    # E_1009(7,21) is Z/2 x Z/530, so the table on the base (0,358) holds
    # only <C>, half the group.  The scalar 3 on the secret point (8,331),
    # outside <C>, puts the recipient's K1 outside the table, and with it
    # the sender's specific key.  Both contexts refuse before any scalar
    # multiply, not when E2 is rendered partway through a message.
    curve = e1009
    base = curve.point(*vectors.MID_BASE)
    table = CodeTable.from_generator(curve, base, "".join(chr(0x4E00 + i) for i in range(530)))
    recipient_private, recipient_public = keypair_from_secret(curve, base, 3, curve.point(8, 331))
    sender_private, sender_public = keypair_from_secret(curve, base, 401, 17 * base)
    recipient_specific = derive_specific(recipient_private, sender_public.k2)
    sender_specific = derive_specific(sender_private, recipient_public.k2)
    scalar_muls.clear()
    outside = "^point {} is not in the code table$"
    with pytest.raises(UnknownPointError, match=outside.format(re.escape(str(recipient_public.k1)))):
        EncryptionContext(sender_private, recipient_public, recipient_specific, table)
    with pytest.raises(UnknownPointError,
                       match=outside.format(re.escape(str(sender_specific.point)))):
        DecryptionContext(recipient_private, sender_public.k1, sender_specific, table)
    assert scalar_muls == []


# ----------------------------------------------------------------- records

def test_cipher_records_take_positional_and_keyword_arguments(e37, e37_table, demo_keys):
    fields = (demo_keys.bob_private, demo_keys.alice_public, demo_keys.alice_specific, e37_table)
    for ctx in (EncryptionContext(*fields),
                EncryptionContext(sender_private=fields[0], recipient_general=fields[1],
                                  recipient_specific=fields[2], table=fields[3])):
        assert (ctx.sender_private, ctx.recipient_general,
                ctx.recipient_specific, ctx.table) == fields
    fields = (demo_keys.alice_private, demo_keys.bob_public.k1, demo_keys.bob_specific, e37_table)
    for ctx in (DecryptionContext(*fields),
                DecryptionContext(recipient_private=fields[0], sender_k1=fields[1],
                                  sender_specific=fields[2], table=fields[3])):
        assert (ctx.recipient_private, ctx.sender_k1, ctx.sender_specific, ctx.table) == fields

