"""The brute-force oracles, and their agreement with the fast paths."""

import math
import threading

import pytest
from hypothesis import assume, given, strategies as st

import vectors
from eccipher import (
    CodeTable,
    Curve,
    DecryptionContext,
    EncryptionContext,
    attack,
    decrypt_message,
    derive_specific,
    ecdlp_bsgs,
    ecdlp_exhaustive,
    encrypt_message,
    keypair_from_secret,
    slow_scalar_mul,
)
from eccipher.curve import _Kept, _Multiples
from eccipher.reference import decrypt_by_index, encrypt_by_index


def test_slow_scalar_mul_vector(e37):
    assert slow_scalar_mul(5, e37.point(10, 20)) == e37.point(33, 23)


def test_slow_scalar_mul_zero(e37):
    assert slow_scalar_mul(0, e37.point(9, 4)).is_infinity


def test_group_order_annihilates(e37):
    # 43 comes straight from counting the enumerated points.
    assert len(e37.enumerate_points()) == 43
    assert slow_scalar_mul(43, e37.point(5, 25)).is_infinity


def test_slow_scalar_mul_rejects_negative(e37):
    with pytest.raises(ValueError):
        slow_scalar_mul(-1, e37.point(9, 4))


def test_fast_equals_slow_for_sampled_inputs(e37):
    for coords in ((5, 25), (9, 4), (10, 20)):
        p = e37.point(*coords)
        for k in (0, 1, 2, 7, 42, 43, 44, 85):
            assert k * p == slow_scalar_mul(k, p)


def test_the_cipher_in_z_n_gives_the_acceptance_vectors(bob_to_alice, alice_from_bob):
    assert encrypt_by_index(bob_to_alice, vectors.MESSAGE, vectors.NONCES) == vectors.CIPHERTEXT
    assert decrypt_by_index(alice_from_bob, vectors.CIPHERTEXT) == vectors.MESSAGE
    assert decrypt_by_index(alice_from_bob, vectors.MISPRINTED_CIPHERTEXT) \
        == vectors.MISPRINTED_DECRYPTION


_SMALL_PRIMES = [p for p in range(5, 400) if all(p % q for q in range(2, math.isqrt(p) + 1))]


@given(st.data())
def test_the_cipher_agrees_with_the_cipher_in_z_n_on_small_total_setups(data):
    # A random curve mod p < 400, its table on a random point G of order
    # N with N symbols, C = k*G, and key points in <G>, so the cipher is
    # total; then a message under explicit nonces, and a ciphertext of
    # random symbols.  The Z_N cipher shares no group law with the cipher.
    p = data.draw(st.sampled_from(_SMALL_PRIMES))
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    assume((4 * a ** 3 + 27 * b ** 2) % p)
    curve = Curve(p, a, b)
    points = curve.enumerate_points()
    generator = points[data.draw(st.integers(1, len(points) - 1))]
    size = curve.order_of(generator)
    alphabet = "".join(chr(0x4E00 + i) for i in range(size))
    table = CodeTable.from_generator(curve, generator, alphabet)
    multiple = st.integers(1, size - 1)
    base = data.draw(multiple) * generator
    n = curve.order_of(base)
    scalar = st.integers(1, n - 1)
    recipient_private, recipient_public = keypair_from_secret(
        curve, base, data.draw(scalar), data.draw(multiple) * generator)
    sender_private, sender_public = keypair_from_secret(
        curve, base, data.draw(scalar), data.draw(multiple) * generator)
    enc = EncryptionContext(sender_private, recipient_public,
                            derive_specific(recipient_private, sender_public.k2), table)
    dec = DecryptionContext(recipient_private, sender_public.k1,
                            derive_specific(sender_private, recipient_public.k2), table)
    message = data.draw(st.text(alphabet=alphabet, max_size=12))
    nonces = data.draw(st.lists(scalar, min_size=len(message), max_size=len(message)))
    ciphertext = encrypt_message(enc, message, nonces=nonces)
    assert ciphertext == encrypt_by_index(enc, message, nonces)
    assert decrypt_message(dec, ciphertext) == decrypt_by_index(dec, ciphertext) == message
    forged = data.draw(st.text(alphabet=alphabet, min_size=2, max_size=12).filter(
        lambda text: len(text) % 2 == 0))
    assert decrypt_message(dec, forged) == decrypt_by_index(dec, forged)


def test_recover_scalar_from_public_point(e37):
    # The secret 5 is recoverable from 5*A at this scale, which is the
    # whole reason these curves are toys.
    g, q = e37.point(10, 20), e37.point(33, 23)
    assert ecdlp_exhaustive(g, q, 43) == 5
    assert ecdlp_bsgs(g, q, 43) == 5


def test_recover_nonce_from_first_cipher_point(e37):
    g, q = e37.point(9, 4), e37.point(1, 30)
    assert ecdlp_exhaustive(g, q, 43) == 8
    assert ecdlp_bsgs(g, q, 43) == 8


def test_log_of_generator_is_one(e37):
    p = e37.point(5, 25)
    assert ecdlp_exhaustive(p, p, 43) == 1
    assert ecdlp_bsgs(p, p, 43) == 1


def test_log_of_identity_is_zero(e37):
    p = e37.point(5, 25)
    assert ecdlp_exhaustive(p, e37.infinity(), 43) == 0
    assert ecdlp_bsgs(p, e37.infinity(), 43) == 0


def test_target_outside_generator_span_returns_none(e37):
    inf = e37.infinity()
    assert ecdlp_exhaustive(inf, e37.point(5, 25), 43) is None
    assert ecdlp_bsgs(inf, e37.point(5, 25), 43) is None


def _outside_span(curve, base):
    """The first enumerated point that is no multiple of base."""
    span = set()
    acc = curve.infinity()
    for _ in range(curve.order_of(base)):
        span.add(acc)
        acc = acc + base
    return next(p for p in curve.enumerate_points() if p not in span)


def test_solvers_agree_on_proper_subgroup(e1009):
    # The base generates a proper subgroup (order 530 of 1060), so points
    # outside it exist and both solvers must report them as unreachable.
    base = e1009.point(*vectors.MID_BASE)
    order = e1009.order_of(base)
    assert order < e1009.order
    outside = _outside_span(e1009, base)
    assert ecdlp_exhaustive(base, outside, order) is None
    assert ecdlp_bsgs(base, outside, order) is None
    inside = 123 * base
    assert ecdlp_exhaustive(base, inside, order) == 123
    assert ecdlp_bsgs(base, inside, order) == 123


def test_solvers_agree_for_every_bound_and_target(e37, e1009):
    # A first hit at or past n means no k < n exists; a bound of 0 admits
    # no k at all, not even k = 0 for infinity.
    generator = e37.point(5, 25)
    assert ecdlp_bsgs(generator, 12 * generator, 10) is None
    assert ecdlp_bsgs(generator, e37.infinity(), 0) is None
    for g in (generator, e37.infinity()):
        for n in range(87):
            for target in e37.enumerate_points():
                assert ecdlp_bsgs(g, target, n) == ecdlp_exhaustive(g, target, n), (g, target, n)
    base = e1009.point(*vectors.MID_BASE)
    outside = _outside_span(e1009, base)
    for n in (0, 1, 2, 529, 530, 531, 1060):
        for target in (outside, 529 * base, e1009.infinity()):
            assert ecdlp_bsgs(base, target, n) == ecdlp_exhaustive(base, target, n), (target, n)


def test_target_on_another_curve_is_unreachable(e37, e31):
    generator = e37.point(5, 25)
    for target in (e31.point(*vectors.ALT_BASE), e31.infinity()):
        assert ecdlp_exhaustive(generator, target, 43) is None
        assert ecdlp_bsgs(generator, target, 43) is None


def test_kept_baby_steps_answer_like_the_oracle(e37, e1009):
    # Alternating generators, curves and bounds (m = 7, 5, 24, 33) replace
    # the kept entry; an equal generator on a separate, equal curve finds it.
    twin = Curve(vectors.P, vectors.A, vectors.B)
    assert twin is not e37
    mid = e1009.point(*vectors.MID_BASE)
    cases = [
        (e37.point(5, 25), 43),
        (twin.point(5, 25), 43),
        (e37.point(9, 4), 43),
        (e37.point(9, 4), 20),
        (mid, 530),
        (e37.point(5, 25), 43),
        (mid, 1060),
        (twin.point(9, 4), 20),
    ]
    for _ in range(2):
        for generator, n in cases:
            for k in (0, 1, n // 2, n - 1, n, n + 7):
                target = k * generator
                expected = ecdlp_exhaustive(generator, target, n)
                assert ecdlp_bsgs(generator, target, n) == expected, (generator, k, n)


def test_the_baby_step_core_answers_like_the_oracle(e37, e31, e1009):
    # Fresh and extended cores, with m below and past the generator's order
    # (43, infinity's 1, and 2 and 5 on E_1009), give the oracle's least
    # k < n for every bound and target; extension keeps each least j, and
    # both map the indices 0..60 to the multiples repeated addition
    # gives.  The
    # signed multiples of the order-5 generator meet at m = 4 (-2*G = 3*G);
    # on E_37 (order 43) the 43 of m = 22 are the group exactly, and those
    # of m = 30 meet.
    points = e1009.enumerate_points()
    two = next(p for p in points[1:] if p.y == 0)
    five = next(q for q in (212 * p for p in points) if not q.is_infinity)
    # Every point of E_37 is a target; on E_1009, each point whose order
    # divides 10 and every 53rd point, as all 1060 would take half a minute.
    spans = [p for p in points if (10 * p).is_infinity]
    stranger = e31.point(*vectors.ALT_BASE)
    for generator in (e37.point(5, 25), e37.point(9, 4), e37.infinity(), two, five):
        if generator.curve is e37:
            targets = [*e37.enumerate_points(), stranger]
        else:
            targets = spans + points[::53] + [stranger]
        # The least k < n is the least k < 61 when that is below n.
        least = {target: ecdlp_exhaustive(generator, target, 61) for target in targets}
        multiples = [slow_scalar_mul(i, generator) for i in range(61)]
        for m in (1, 2, 3, 4, 7, 12, 22, 30):
            start = _Multiples(generator, 1)
            for core in (_Multiples(generator, m), _Multiples(generator, m, start)):
                assert core.points == [slow_scalar_mul(j, generator) for j in range(m)]
                assert core.stride == m * generator
                assert core.at(range(61)) == multiples, (generator, m)
                for target, k in least.items():
                    for n in range(61):
                        expected = k if k is not None and k < n else None
                        assert core.log(target, n) == expected, (generator, m, target, n)
            assert len(start.points) == 1 and start.stride == generator


def test_a_walk_forms_its_window_once(additions):
    # Building the walk takes its m steps and forms W = (2m - 1)*G as it
    # finishes: m + 1 additions.  Each search then takes its t giant steps
    # only, and `at` sums t*W + d*G from the same W: t - 1 giant sums and
    # the final one.
    curve = Curve(16381, 2, 9)
    generator = curve.point(2, 9880)
    m, k = 129, 10000
    target = k * generator
    t = (k + m - 1) // (2 * m - 1)
    additions.clear()
    core = _Multiples(generator, m)
    assert len(additions) == m + 1
    assert core.window == slow_scalar_mul(2 * m - 1, generator)
    for _ in range(2):
        additions.clear()
        assert core.log(target, 16473) == k
        assert len(additions) == t
    additions.clear()
    assert core.at([k]) == [target]
    assert len(additions) == t


def test_a_walk_holds_its_window_from_the_moment_it_is_built(e37, e1009):
    # Fresh and extended walks of every generator of the oracle test, the
    # order-2 and order-5 ones of E_1009 included, hold W = (2m - 1)*G (None
    # for m = 0) once built, and searches and index maps keep that object.
    points = e1009.enumerate_points()
    two = next(p for p in points[1:] if p.y == 0)
    five = next(q for q in (212 * p for p in points) if not q.is_infinity)
    for generator in (e37.point(5, 25), e37.point(9, 4), e37.infinity(), two, five):
        target = 7 * generator
        for m in range(31):
            for core in (_Multiples(generator, m),
                         _Multiples(generator, m, _Multiples(generator, 1)),
                         _Multiples(generator, 0, _Multiples(generator, m))):
                size = len(core.points)
                held = core.window
                if size:
                    assert held == slow_scalar_mul(2 * size - 1, generator), (generator, m)
                    core.at(range(61))
                else:
                    assert held is None
                core.log(target, 61)
                assert core.window is held


def test_the_core_of_a_generator_of_order_two_alternates_with_infinity(e1009):
    # y = 0 makes 2*G infinity, so the core's step doubles G to infinity
    # and every m past the order repeats the two points.
    two = next(point for point in e1009.enumerate_points()[1:] if point.y == 0)
    for m in range(1, 7):
        for core in (_Multiples(two, m), _Multiples(two, m, _Multiples(two, 1))):
            assert core.points == [slow_scalar_mul(j, two) for j in range(m)]
            assert core.stride == slow_scalar_mul(m, two)
            infinity = e1009.infinity()
            assert core.index == ({infinity: 0, two: 1} if m > 1 else {infinity: 0})


def test_a_core_whose_signed_multiples_meet_the_order_takes_no_giant_step(e37, e1009,
                                                                          additions):
    # Once two signed multiples meet, or m*G meets -(m - 1)*G, the core
    # holds every multiple of G: a target outside <G> is answered, like
    # every multiple, by one dict lookup and no addition, and extending the
    # core keeps its order.  At m = 21 the 41 signed multiples of an
    # order-43 generator are not all of them.
    points = e1009.enumerate_points()
    two = next(p for p in points[1:] if p.y == 0)
    five = next(q for q in (212 * p for p in points) if not q.is_infinity)
    generator = e37.point(5, 25)
    assert _Multiples(generator, 21).order is None
    for g, m, order in ((two, 2, 2), (five, 4, 5), (five, 3, 5), (generator, 22, 43),
                        (generator, 30, 43)):
        multiples = [slow_scalar_mul(k, g) for k in range(order)]
        outside = _outside_span(g.curve, g) if g.curve is e1009 else None
        for core in (_Multiples(g, m), _Multiples(g, m, _Multiples(g, 1)),
                     _Multiples(g, 3 * order, _Multiples(g, 2 * order))):
            assert core.order == order
            additions.clear()
            for k, target in enumerate(multiples):
                assert core.log(target, order) == k
                assert core.log(target, k) is None
            if outside is not None:
                assert core.log(outside, 10**6) is None
            assert additions == []
    # The key break keeps such a table as it is: growing it adds nothing.
    outside, three = _outside_span(e1009, five), 3 * five
    assert ecdlp_bsgs(five, outside, 1060) is None
    assert len(attack._kept.walk.points) == 33 == math.isqrt(1060 - 1) + 1
    for _ in range(3):
        additions.clear()
        assert ecdlp_bsgs(five, outside, 1060) is None
        assert ecdlp_bsgs(five, three, 1060) == 3
        assert additions == [] and len(attack._kept.walk.points) == 33


def test_a_second_solve_on_one_base_takes_only_giant_steps(e1009, additions):
    # The first solve builds m baby steps.  The second grows the table
    # straight to T = min(2**12, n) = 530, which holds every multiple of
    # the order-530 base, so it and every later solve, an equal base on a
    # separate, equal curve included, take no giant step at all.
    base = e1009.point(*vectors.MID_BASE)
    n, cap = 530, 530
    m = math.isqrt(n - 1) + 1
    ecdlp_bsgs(2 * base, base, n)   # another generator takes the kept entry
    additions.clear()
    assert ecdlp_bsgs(base, 529 * base, n) == 529
    assert len(additions) > m   # the baby steps were built again
    assert len(attack._kept.walk.points) == m
    target = 17 * base
    additions.clear()
    assert ecdlp_bsgs(base, target, n) == 17
    assert len(additions) == cap - m + 1
    assert len(attack._kept.walk.points) == cap and attack._kept.walk.order == n
    twin = Curve(vectors.MID_P, vectors.MID_A, vectors.MID_B)
    for generator in (base, twin.point(*vectors.MID_BASE)):
        for k in (0, 17, 529):
            target = k * generator
            additions.clear()
            assert ecdlp_bsgs(generator, target, n) == k
            assert additions == []


def test_a_bound_past_the_group_builds_no_more_baby_steps_than_hasse_allows(e37, e1009,
                                                                           additions):
    # The least k lies below ord(G) <= p + 1 + floor(2*sqrt(p)), 50 on E_37
    # and 1073 on E_1009, so a bound far past it walks about the square
    # root of that many baby steps, not of the bound.
    generator = e37.point(5, 25)
    target = 5 * generator
    base = e1009.point(*vectors.MID_BASE)
    outside = _outside_span(e1009, base)
    assert ecdlp_exhaustive(generator, target, 10**12) == 5
    additions.clear()
    assert ecdlp_bsgs(generator, target, 10**12) == 5
    assert len(additions) < 100
    additions.clear()
    assert ecdlp_bsgs(base, outside, 10**30) is None
    assert len(additions) < 100


def test_repeat_solves_grow_the_kept_table_to_its_cap(additions):
    # E_16381(2,9) has 16,473 points and (2,9880) generates them all, so
    # m = ceil(sqrt(n)) = 129 and the cap is T = min(2**12, n) = 4096.
    curve = Curve(16381, 2, 9)
    generator = curve.point(2, 9880)
    n, m, cap = 16473, 129, 4096
    assert curve.order_of(generator) == n
    other = 2 * generator
    other_target = 5 * other
    targets = [(k, k * generator) for k in (7919 * j % n for j in range(80))]
    ecdlp_bsgs(other, other, n)   # another generator takes the kept entry
    additions.clear()
    assert ecdlp_bsgs(generator, targets[0][1], n) == targets[0][0]
    assert len(attack._kept.walk.points) == m
    assert m < len(additions) < 2 * m   # m + 1 to build, then the giant steps
    sizes = [m]
    giant = -(-n // (2 * cap - 1))
    for k, target in targets[1:]:
        additions.clear()
        assert ecdlp_bsgs(generator, target, n) == k
        # The second call grows the table to the cap in cap - m + 1
        # additions; every call then takes at most `giant` giant steps.
        grown = cap - m + 1 if len(sizes) == 1 else 0
        assert grown <= len(additions) <= grown + giant
        sizes.append(len(attack._kept.walk.points))
    assert sizes == [m] + [cap] * (len(targets) - 1)
    for k in (0, 1, 4095, 4096, n // 2, n - 1):
        target = k * generator
        additions.clear()
        assert ecdlp_bsgs(generator, target, n) == k
        assert len(additions) <= -(-n // cap) - 1 == 4
        assert len(additions) <= -(-n // (2 * cap - 1)) == 3
        assert len(attack._kept.walk.points) == cap
    additions.clear()
    assert ecdlp_bsgs(other, other_target, n) == 5
    assert len(attack._kept.walk.points) == m
    assert len(additions) >= m   # the baby steps were built again


def test_repeat_solves_on_a_target_of_another_curve_spend_their_budget_on_baby_steps(
        additions):
    # A target off the generator's curve is answered before any giant step,
    # so the first call spends only the m + 1 additions of a fresh table of
    # m = ceil(sqrt(n)) baby steps, the second only the cap - m + 1 that
    # grow it to T = min(2**12, n), and later ones none.
    curve = Curve(16381, 2, 9)
    generator = curve.point(2, 9880)
    n, m, cap = 16473, 129, 4096
    stranger = Curve(16381, 3, 9).enumerate_points()[1]
    ecdlp_bsgs(2 * generator, generator, n)   # another generator takes the kept entry
    additions.clear()
    assert ecdlp_bsgs(generator, stranger, n) is None
    assert len(additions) == m + 1
    sizes = [len(attack._kept.walk.points)]
    for spent in (cap - m + 1, 0, 0):
        additions.clear()
        assert ecdlp_bsgs(generator, stranger, n) is None
        assert len(additions) == spent
        sizes.append(len(attack._kept.walk.points))
    assert sizes == [m, cap, cap, cap]


def test_threads_racing_on_different_generators_get_the_oracles_answers(e1009, race):
    # Each thread solves on its own generator and bound, so the kept entry
    # keeps changing hands; every answer must still be the oracle's.
    points = e1009.enumerate_points()[1:]
    jobs = []
    for index, n in ((1, 1060), (5, 530), (40, 265), (77, 100), (300, 1060)):
        generator = points[index]
        targets = [k * generator for k in (0, 3, n // 3, n - 1, n + 5)] + [points[-index]]
        jobs.append([(generator, t, n, ecdlp_exhaustive(generator, t, n)) for t in targets])
    start = threading.Barrier(len(jobs))
    errors = []

    def worker(job):
        try:
            start.wait(timeout=60)
            for _ in range(20):
                for generator, target, n, expected in job:
                    assert ecdlp_bsgs(generator, target, n) == expected
        except Exception as exc:
            errors.append(exc)

    race(worker, [(job,) for job in jobs])
    assert errors == []


def test_threads_sharing_a_generator_while_its_table_grows_get_the_oracles_answers(
        e1009, race):
    # Every thread solves on one generator, with its own targets and bound,
    # so the threads grow the one kept table and replace it under each
    # other; every answer must still be the oracle's.  Each round starts
    # the table again from ceil(sqrt(n)) baby steps.
    points = e1009.enumerate_points()[1:]
    generator = points[1]
    jobs = []
    for index, n in ((3, 1060), (8, 530), (21, 1060), (55, 265), (144, 1060)):
        targets = [k * generator for k in (0, index, n // 3 + index, n - 1, n + 5)]
        targets.append(points[-index])
        jobs.append([(t, n, ecdlp_exhaustive(generator, t, n)) for t in targets])
    errors, sizes = [], []

    def worker(start, job):
        try:
            start.wait(timeout=60)
            for _ in range(4):
                for target, n, expected in job:
                    assert ecdlp_bsgs(generator, target, n) == expected
                    sizes.append(len(attack._kept.walk.points))
        except Exception as exc:
            errors.append(exc)

    for _ in range(10):
        ecdlp_bsgs(points[0], points[0], 1060)   # another generator takes the kept entry
        start = threading.Barrier(len(jobs))
        race(worker, [(start, job) for job in jobs])
    assert errors == []
    assert max(sizes) > 33   # the table grew past a fresh start's ceil(sqrt(1060))


def test_a_thread_that_read_an_older_table_keeps_the_longer_one_grown_meanwhile(
        e1009, monkeypatch):
    # Thread A finds another generator's table kept, so it keeps a fresh
    # holder of the base, to be grown to m = 24 baby steps, and is held
    # before it grows it until this thread has grown the same holder to
    # T = 530; A must then search the 530, not replace them with its own 24.
    base = e1009.point(*vectors.MID_BASE)
    n = 530
    ecdlp_bsgs(2 * base, base, n)   # another generator takes the kept entry
    read, released = threading.Event(), threading.Event()
    grown = _Kept.grown
    errors, asked, searched = [], [], []

    def held_grown(self, m):
        if threading.current_thread() is not held:
            return grown(self, m)
        asked.append((self is attack._kept, self.walk.generator == base, len(self.walk.points), m))
        read.set()
        if not released.wait(timeout=60):
            raise TimeoutError("the thread was never released")
        searched.append(grown(self, m))
        return searched[-1]

    def worker():
        try:
            assert ecdlp_bsgs(base, 500 * base, n) == 500
        except Exception as exc:
            errors.append(exc)

    monkeypatch.setattr(_Kept, "grown", held_grown)
    held = threading.Thread(target=worker)
    held.start()
    try:
        assert read.wait(timeout=60)
        holder = attack._kept
        assert ecdlp_bsgs(base, 5 * base, n) == 5
        assert ecdlp_bsgs(base, base, n) == 1
        assert attack._kept is holder
        longer = holder.walk
        assert len(longer.points) == 530
    finally:
        released.set()
        held.join(timeout=60)
    assert not held.is_alive()
    assert errors == []
    assert asked == [(True, True, 0, 24)]
    assert len(searched) == 1 and searched[0] is longer
    assert attack._kept is holder and holder.walk is longer


def test_threads_racing_on_a_fresh_walk_get_the_oracles_answers(e1009, race):
    # Threads share one fresh walk, not through `_Kept`, and race their
    # first searches and index maps; every answer must still be the
    # oracle's, and the walk keeps the window (2m - 1)*G it was built with.
    base = e1009.point(*vectors.MID_BASE)
    n, m = 530, 8
    targets = [k * base for k in (0, 7, 8, 100, 263, 529)] + [_outside_span(e1009, base)]
    logs = [(target, ecdlp_exhaustive(base, target, n)) for target in targets]
    indices = [0, 7, 8, 15, 100, 263, 529]
    multiples = [slow_scalar_mul(i, base) for i in indices]
    window = slow_scalar_mul(2 * m - 1, base)
    errors = []

    def worker(start, core, searching_first):
        try:
            start.wait(timeout=60)
            for searching in (searching_first, not searching_first):
                if searching:
                    for target, expected in logs:
                        assert core.log(target, n) == expected
                else:
                    assert core.at(indices) == multiples
        except Exception as exc:
            errors.append(exc)

    for _ in range(20):
        core = _Multiples(base, m)
        held = core.window
        assert held == window
        start = threading.Barrier(4)
        race(worker, [(start, core, first) for first in (True, False, True, False)])
        assert core.window is held
    assert errors == []
