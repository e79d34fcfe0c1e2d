"""Point encryption/decryption and the whole-message text pipeline."""

import random

import pytest

import vectors
from eccipher import (
    CipherPair,
    CodeTable,
    Curve,
    DecryptionContext,
    EncryptionContext,
    InvalidCiphertextError,
    MalformedCiphertextError,
    MessageTooLongError,
    UnknownSymbolError,
    decrypt_message,
    decrypt_point,
    derive_specific,
    encrypt_message,
    encrypt_point,
    keygen,
)


def _pair(curve, coords):
    (x1, y1), (x2, y2) = coords
    return CipherPair(curve.point(x1, y1), curve.point(x2, y2))


# ----------------------------------------------------------- fixed vectors

def test_single_point_encryption_vectors(e37, bob_to_alice):
    for (m_coords, nonce, pair_coords) in zip(
        vectors.MESSAGE_POINTS, vectors.NONCES, vectors.CIPHER_PAIRS
    ):
        pair = encrypt_point(bob_to_alice, e37.point(*m_coords), nonce)
        assert pair == _pair(e37, pair_coords)


def test_single_point_decryption_vectors(e37, alice_from_bob):
    for m_coords, pair_coords in zip(vectors.MESSAGE_POINTS, vectors.CIPHER_PAIRS):
        recovered = decrypt_point(alice_from_bob, _pair(e37, pair_coords))
        assert recovered == e37.point(*m_coords)


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
    firsts = {encrypt_point(bob_to_alice, m, nonce).e1 for nonce in range(1, 43)}
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
    inf_pair = CipherPair(e37.infinity(), e37.infinity())
    recovered = decrypt_point(alice_from_bob, inf_pair)
    assert e37.contains(recovered)
    plain = decrypt_message(alice_from_bob, "**")
    assert len(plain) == 1


def test_e2_can_be_infinity_and_renders_as_star(e37, e37_table, bob_to_alice,
                                                alice_from_bob):
    # Search the nonce space for a pair whose E2 is the identity.
    hits = []
    for symbol in e37_table.alphabet:
        m = e37_table.encode_symbol(symbol)
        for nonce in range(1, 43):
            pair = encrypt_point(bob_to_alice, m, nonce)
            if pair.e2.is_infinity:
                hits.append((symbol, nonce))
                text = encrypt_message(bob_to_alice, symbol, nonces=[nonce])
                assert text[1] == "*"
                assert decrypt_message(alice_from_bob, text) == symbol
    assert hits


def test_cross_curve_ciphertext_rejected(alice_from_bob):
    other = Curve(5, 1, 1)
    pair = CipherPair(other.point(0, 1), other.point(0, 1))
    with pytest.raises(InvalidCiphertextError):
        decrypt_point(alice_from_bob, pair)


def test_context_rejects_mixed_curves(e37, e37_table, demo_keys):
    other = Curve(5, 1, 1)
    other_table = CodeTable.from_generator(other, other.point(0, 1), "*abcdefgh")
    with pytest.raises(ValueError):
        EncryptionContext(demo_keys.bob_private, demo_keys.alice_public,
                          demo_keys.alice_specific, other_table)


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


# ----------------------------------------------------------------- records

def test_cipher_records_take_positional_and_keyword_arguments(e37, e37_table, demo_keys):
    e1, e2 = e37.point(9, 4), e37.point(5, 25)
    for pair in (CipherPair(e1, e2), CipherPair(e1=e1, e2=e2)):
        assert (pair.e1, pair.e2) == (e1, e2)
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


def test_cipher_pairs_compare_and_hash_by_their_points(e37):
    p, q = e37.point(9, 4), e37.point(5, 25)
    pair = CipherPair(p, q)
    same = CipherPair(Curve(37, 2, 9).point(9, 4), e37.point(5, 25))
    assert pair == same and not pair != same
    assert hash(pair) == hash(same)
    for other in (CipherPair(q, p), CipherPair(p, p), CipherPair(p, e37.infinity())):
        assert pair != other and not pair == other
    assert pair != (p, q)
    assert len({pair, same, CipherPair(q, p)}) == 2
