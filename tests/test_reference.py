"""The brute-force oracles, and their agreement with the fast paths."""

import math
import sys
import threading

import pytest

import vectors
from eccipher import Curve, ecdlp_bsgs, ecdlp_exhaustive, slow_scalar_mul


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


def test_a_second_solve_on_one_base_takes_only_giant_steps(e1009, additions):
    base = e1009.point(*vectors.MID_BASE)
    n = 530
    m = math.isqrt(n - 1) + 1
    ecdlp_bsgs(2 * base, base, n)   # another generator takes the kept entry
    additions.clear()
    assert ecdlp_bsgs(base, 529 * base, n) == 529
    assert len(additions) > m   # the baby steps were built again
    twin = Curve(vectors.MID_P, vectors.MID_A, vectors.MID_B)
    for generator in (base, twin.point(*vectors.MID_BASE)):
        for k in (0, 17, 529):
            target = k * generator
            additions.clear()
            assert ecdlp_bsgs(generator, target, n) == k
            assert len(additions) <= m


def test_threads_racing_on_different_generators_get_the_oracles_answers(e1009):
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

    threads = [threading.Thread(target=worker, args=(job,)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
