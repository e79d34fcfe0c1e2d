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


@pytest.fixture()
def bare_additions(scalar_muls, monkeypatch):
    """Every Point addition made while the test runs outside a k * P
    product, as its (P, Q) operands; scalar_muls still counts the products."""
    made = []
    multiplying = []   # non-empty while a k * P product runs
    original_add, original_rmul = Point.__add__, Point.__rmul__

    def counting_add(self, other):
        if not multiplying:
            made.append((self, other))
        return original_add(self, other)

    def marked_rmul(self, k):
        multiplying.append(True)
        try:
            return original_rmul(self, k)
        finally:
            multiplying.pop()

    monkeypatch.setattr(Point, "__add__", counting_add)
    monkeypatch.setattr(Point, "__rmul__", marked_rmul)
    return made


def _doublings(additions):
    return [(p, q) for p, q in additions if p == q]


def test_encrypt_algebra_outside_the_base_subgroup(scalar_muls, bare_additions):
    # E_503(2,9) is cyclic of order 502 = 2 * 251: the table point G = (0,3)
    # generates it, and the base C = 2*G = (56,146) has order 251, so <C>
    # has index 2 in the table.  The scalar 3 on the secret point G puts
    # the recipient's K1 = 9*G and K2 = 3*G outside <C> but in the table,
    # so E2 is checked where no step may treat K1 or K2 as a multiple of C.
    # Every nonce is tried.  The encryption context costs one scalar
    # multiply, s*K1, and 2(L - 1) doublings for its tables of 2**i * C and
    # 2**i * (K1 - K2), L = 8 the bit length of 251.  Each symbol then costs
    # no scalar multiply to encrypt and 2*popcount(g) additions, of which
    # E1's popcount(g) - 1 come first and include no doubling; decrypting
    # costs one scalar multiply, once the context holds r*J1 + T.
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
    bare_additions.clear()
    enc = EncryptionContext(sender_private, recipient_public, recipient_specific, table)
    assert len(scalar_muls) == 1
    assert len(_doublings(bare_additions)) == 14
    dec = DecryptionContext(recipient_private, sender_public.k1, sender_specific, table)
    points = curve.enumerate_points()
    k1, k2, spec = recipient_public.k1, recipient_public.k2, recipient_specific.point
    beta = sender_private.scalar
    sampled = set(random.Random(1009).sample(range(1, 251), 20))
    for nonce in range(1, 251):
        message = points[nonce * 7 % len(points)]
        scalar_muls.clear()
        bare_additions.clear()
        e1, e2 = encrypt_point(enc, message, nonce)
        assert len(scalar_muls) == 0
        # E1's popcount(g) - 1 additions come first, then E2's popcount(g) + 1.
        ones = bin(nonce).count("1")
        assert len(bare_additions) == 2 * ones
        assert _doublings(bare_additions[:ones - 1]) == []
        assert e1 == nonce * base
        assert e2 == message + (beta + nonce) * k1 - nonce * k2 + spec
        scalar_muls.clear()
        assert decrypt_point(dec, (e1, e2)) == message
        assert len(scalar_muls) == 1
        if nonce in sampled:
            assert e1 == slow_scalar_mul(nonce, base)
            assert e2 == (message + slow_scalar_mul(beta + nonce, k1)
                          - slow_scalar_mul(nonce, k2) + spec)


def _symbols(count):
    return "".join(chr(0x4E00 + i) for i in range(count))


def _context_in(table, base, recipient_scalar=3):
    """A sender's context whose keys all lie in <base>, on `table`."""
    curve = table.curve
    recipient_private, recipient_public = keypair_from_secret(curve, base, recipient_scalar,
                                                              5 * base)
    sender_private, sender_public = keypair_from_secret(curve, base, 2, 7 * base)
    return EncryptionContext(sender_private, recipient_public,
                             derive_specific(recipient_private, sender_public.k2), table)


def _nonce_multiple(ctx, part, message, nonce):
    """g * P as encrypt_point makes it, and P: for E1, P is C and g * P is
    E1; for E2, P is K1 - K2 and g * P is E2 - M - (s*K1 + S)."""
    e1, e2 = encrypt_point(ctx, message, nonce)
    if part == "E1":
        return e1, ctx.sender_private.base
    k1, k2 = ctx.recipient_general.k1, ctx.recipient_general.k2
    return e2 - message - (ctx.sender_private.scalar * k1 + ctx.recipient_specific.point), k1 - k2


@pytest.mark.parametrize("part", ["E1", "E2"])
def test_e1_equals_the_fast_and_slow_products_for_every_nonce(e37_base, bob_to_alice, part):
    # E_37(2,9) with the demo base (n = 43), and E_503(2,9) with the base
    # (56,146) of order 251 inside a table of the whole group.  E1 is g*C
    # and E2 holds g*(K1 - K2), each summed from the context's doublings.
    e503 = Curve(503, 2, 9)
    e503_base = e503.point(56, 146)
    e503_ctx = _context_in(CodeTable.from_generator(e503, e503.point(0, 3), _symbols(502)),
                           e503_base)
    for ctx, base, n in ((bob_to_alice, e37_base, 43), (e503_ctx, e503_base, 251)):
        sampled = set(random.Random(n).sample(range(1, n), 10))
        for nonce in range(1, n):
            product, point = _nonce_multiple(ctx, part, base, nonce)
            assert product == nonce * point
            if nonce in sampled:
                assert product == slow_scalar_mul(nonce, point)


@pytest.mark.parametrize("part", ["E1", "E2"])
@pytest.mark.parametrize("p, a, b, base_xy, n", [
    (16381, 2, 9, (2, 9880), 16473),
    (1048573, 2, 3, (4, 5120), 525014),
])
def test_e1_equals_the_product_at_each_power_of_two_on_larger_curves(p, a, b, base_xy, n, part):
    # 2**k and 2**k - 1 for every k < L, the bit length of n: the nonce
    # 2**(L-1) takes g*P from the last doubling alone, and 2**(L-1) - 1
    # sums every doubling before it, for P = C (E1) and P = K1 - K2 (E2).
    curve = Curve(p, a, b)
    base = curve.point(*base_xy)
    ctx = _context_in(CodeTable.from_generator(curve, base, _symbols(n)), base)
    nonces = {1, n - 1}
    for k in range(1, n.bit_length()):
        nonces |= {2 ** k, 2 ** k - 1}
    for nonce in sorted(nonces):
        product, point = _nonce_multiple(ctx, part, base, nonce)
        assert product == nonce * point


def test_e2_is_right_where_the_difference_has_a_smaller_order_than_the_base():
    # E_16381(2,9) with G = C = (2,9880), n = 16473 = 3 * 17**2 * 19.  The
    # recipient's scalar 51 makes K1 - K2 = 51*C of order n/51 = 323, below
    # 2**i for the doublings i >= 9, so E2's sums over them meet their
    # term, its negative and infinity, which E1's never do.  Every nonce is
    # tried, and E2 and decryption are checked against k * P; a seeded
    # sample, and 323, the first nonce whose g*(K1 - K2) is infinity,
    # against the slow oracle too.
    curve = Curve(16381, 2, 9)
    base = curve.point(2, 9880)
    n = 16473
    table = CodeTable.from_generator(curve, base, _symbols(n))
    recipient_private, recipient_public = keypair_from_secret(curve, base, 51, 5 * base)
    sender_private, sender_public = keypair_from_secret(curve, base, 2, 7 * base)
    recipient_specific = derive_specific(recipient_private, sender_public.k2)
    enc = EncryptionContext(sender_private, recipient_public, recipient_specific, table)
    dec = DecryptionContext(recipient_private, sender_public.k1,
                            derive_specific(sender_private, recipient_public.k2), table)
    difference = recipient_public.k1 - recipient_public.k2
    assert curve.order_of(difference) == 323
    # Which of the three cases some nonce's partial sums j*D + 2**i * D
    # meet, worked out in Z_323.
    met = set()
    for nonce in range(1, n):
        bits = [i for i, bit in enumerate(bin(nonce)[:1:-1]) if bit == "1"]
        partial = 2 ** bits[0] % 323
        for i in bits[1:]:
            term = 2 ** i % 323
            if partial == term:
                met.add("doubling")
            elif (partial + term) % 323 == 0:
                met.add("negative")
            elif partial == 0:
                met.add("infinity")
            partial = (partial + term) % 323
    assert met == {"doubling", "negative", "infinity"}
    offset = sender_private.scalar * recipient_public.k1 + recipient_specific.point
    messages = table.encode_message(_symbols(n)[::997])
    sampled = set(random.Random(323).sample(range(1, n), 5))
    annihilated = []
    for nonce in range(1, n):
        message = messages[nonce % len(messages)]
        e1, e2 = encrypt_point(enc, message, nonce)
        product = nonce * difference
        if product.is_infinity:
            annihilated.append(nonce)
        assert e2 == message + offset + product
        assert decrypt_point(dec, (e1, e2)) == message
        if nonce in sampled or nonce == 323:
            assert e2 == message + offset + slow_scalar_mul(nonce, difference)
    assert annihilated == list(range(323, n, 323)) and len(annihilated) == 50


def test_encrypt_point_refuses_a_non_int_nonce_before_any_arithmetic(
        e37_table, bob_to_alice, additions, scalar_muls):
    m = e37_table.encode_symbol("a")
    additions.clear()
    for bad in (3.0, "3"):
        with pytest.raises(TypeError):
            encrypt_point(bob_to_alice, m, bad)
    assert additions == [] and scalar_muls == []

    class Three:
        def __index__(self):
            return 3

    assert encrypt_point(bob_to_alice, m, Three()) == encrypt_point(bob_to_alice, m, 3)


def _race_on_one_context(curve, race, recipient_scalar):
    """Eight threads share one context on E_1009(7,21)'s base (0,358) of
    order 530, and its table's walk grows under them; each encrypts its own
    messages under its own explicit nonces and must get what a context of
    its own gives."""
    base = curve.point(*vectors.MID_BASE)
    alphabet = _symbols(530)
    rng = random.Random(8)
    jobs = []
    for _ in range(8):
        messages = [rng.choices(alphabet, k=rng.randrange(1, 40)) for _ in range(6)]
        jobs.append([("".join(message), rng.sample(range(1, 530), len(message)))
                     for message in messages])
    serial_ctx = _context_in(CodeTable.from_generator(curve, base, alphabet), base,
                             recipient_scalar)
    expected = [[encrypt_message(serial_ctx, message, nonces=nonces) for message, nonces in job]
                for job in jobs]
    shared = _context_in(CodeTable.from_generator(curve, base, alphabet), base, recipient_scalar)
    results = [None] * len(jobs)

    def worker(index):
        results[index] = [encrypt_message(shared, message, nonces=nonces)
                          for message, nonces in jobs[index]]

    race(worker, [(index,) for index in range(len(jobs))])
    assert results == expected


def test_threads_sharing_an_encryption_context_get_the_serial_ciphertexts(e1009, race):
    _race_on_one_context(e1009, race, 3)


def test_threads_sharing_a_context_whose_difference_has_a_smaller_order_get_the_serial_ciphertexts(
        e1009, race):
    # The recipient's scalar 10 makes K1 - K2 = 10*C of order 53, below the
    # base's 530, so the threads also share the sums in which E2's partial
    # sums meet their term, its negative or infinity.
    assert e1009.order_of(10 * e1009.point(*vectors.MID_BASE)) == 53
    _race_on_one_context(e1009, race, 10)


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
    outside = ("^{} {} is not a multiple of the table point \\(0,358\\); "
               "a total cipher needs it in the table$")
    with pytest.raises(UnknownPointError,
                       match=outside.format("recipient pub1", re.escape(str(recipient_public.k1)))):
        EncryptionContext(sender_private, recipient_public, recipient_specific, table)
    with pytest.raises(UnknownPointError,
                       match=outside.format("sender specific point",
                                            re.escape(str(sender_specific.point)))):
        DecryptionContext(recipient_private, sender_public.k1, sender_specific, table)
    assert scalar_muls == []


def _keys_on_half_the_base(curve):
    """E_1009(7,21)'s base C = (0,358) of order 530, its table point
    G = 2*C = (421,420) of order 265 with a table on G, and a recipient's
    and a sender's keys on base C whose points all lie in <G>."""
    base = curve.point(*vectors.MID_BASE)
    table_point = 2 * base
    assert table_point == curve.point(421, 420) and curve.order_of(table_point) == 265
    table = CodeTable.from_generator(curve, table_point, _symbols(265))
    recipient = keypair_from_secret(curve, base, 2, 3 * table_point)
    sender = keypair_from_secret(curve, base, 4, 5 * table_point)
    return base, table, recipient, sender


def test_encryption_context_refuses_a_base_outside_the_table(e1009, scalar_muls):
    # Every key point lies in <G>, but E1 = g*C does not for an odd nonce
    # g, so the encryption context refuses C before any scalar multiply,
    # not when an odd nonce's E1 is rendered after all the arithmetic.
    base, table, (recipient_private, recipient_public), (sender_private, sender_public) \
        = _keys_on_half_the_base(e1009)
    recipient_specific = derive_specific(recipient_private, sender_public.k2)
    sender_specific = derive_specific(sender_private, recipient_public.k2)
    scalar_muls.clear()
    with pytest.raises(UnknownPointError, match=r"^base point \(0,358\) is not a multiple of the "
                                                r"table point \(421,420\); a total cipher needs it "
                                                r"in the table$"):
        EncryptionContext(sender_private, recipient_public, recipient_specific, table)
    assert scalar_muls == []
    # The decryption context never computes with C, so it builds, and
    # decrypts a pair made by the paper's formula under an even nonce.
    dec = DecryptionContext(recipient_private, sender_public.k1, sender_specific, table)
    message = table.encode_symbol(table.alphabet[7])
    e1 = 2 * base
    e2 = message + (4 + 2) * recipient_public.k1 - 2 * recipient_public.k2 \
        + recipient_specific.point
    assert decrypt_point(dec, (e1, e2)) == message


def test_threads_building_contexts_on_one_fresh_table_each_get_the_serial_result(e1009, race):
    # Eight threads build contexts on one fresh table on G = (421,420), so
    # each context's check grows the table's shared walk under the others.
    # In half the threads the keys lie on the base G: each context is
    # accepted and encrypts as one on a table of its own does.  In the
    # other half the sender's base is C = (0,358), outside the table, and
    # each is refused with the same message.
    curve = e1009
    _, table, recipient, (outside_private, outside_public) = _keys_on_half_the_base(curve)
    table_point = curve.point(421, 420)
    serial = _context_in(table, table_point)
    rng = random.Random(38)
    jobs = []
    for _ in range(4):
        length = rng.randrange(1, 40)
        jobs.append(("".join(rng.choices(table.alphabet, k=length)),
                     rng.sample(range(1, 265), length)))
    expected = [encrypt_message(serial, message, nonces=nonces) for message, nonces in jobs]
    refusal = ("base point (0,358) is not a multiple of the table point (421,420); "
               "a total cipher needs it in the table")
    outside_specific = derive_specific(recipient[0], outside_public.k2)
    shared = CodeTable.from_generator(curve, table_point, table.alphabet)
    results = [None] * 8

    def worker(index):
        if index % 2:
            try:
                EncryptionContext(outside_private, recipient[1], outside_specific, shared)
            except UnknownPointError as error:
                results[index] = str(error)
        else:
            ctx = EncryptionContext(serial.sender_private, serial.recipient_general,
                                    serial.recipient_specific, shared)
            results[index] = [encrypt_message(ctx, message, nonces=nonces)
                              for message, nonces in jobs]

    race(worker, [(index,) for index in range(8)])
    assert results == [expected, refusal] * 4


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

