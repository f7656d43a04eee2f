import decimal
import math
import os
import random
from fractions import Fraction

import pytest

from echotk import curves, seq, sweep
from echotk.curves import CURVE_E, POINT_P


def _reduced(p):
    cp, good = curves.reduce_mod_p(CURVE_E, p)
    return cp, good


def test_group_order_small_primes_by_enumeration():
    cp7, _ = _reduced(7)
    assert sweep.group_order(cp7) == 11
    cp2, _ = _reduced(2)
    assert sweep.group_order(cp2) == 5


def test_group_order_rejects_singular_curves():
    cp3, good = _reduced(3)
    assert not good
    with pytest.raises(curves.SingularCurveError):
        sweep.group_order(cp3)


def test_group_order_bsgs_matches_exhaustive():
    for p in sweep.primes_up_to(1000):
        if p < sweep.EXHAUSTIVE_LIMIT or p in (3, 5):
            continue
        cp, _ = _reduced(p)
        n_bsgs = sweep.group_order(cp)
        n_exh = sweep._count_exhaustive(cp.a1, cp.a2, cp.a3, cp.a4, cp.a6, p)
        assert n_bsgs == n_exh, p


def test_group_order_hasse_and_annihilation():
    rng = random.Random(5)
    for p in (1009, 4999, 9973):
        cp, _ = _reduced(p)
        n = sweep.group_order(cp)
        assert abs(n - (p + 1)) <= 2 * math.isqrt(p) + 1
        for _ in range(20):
            pt = sweep._random_point(cp.a1, cp.a2, cp.a3, cp.a4, cp.a6, p, rng)
            assert curves._fp_mul(n, pt, cp.a1, cp.a2, cp.a3, cp.a4, p) is None


def _naive_order(pt, cp):
    acc = pt
    n = 1
    while acc is not None:
        acc = curves.add(acc, pt, cp)
        n += 1
    return n


def test_has_odd_order_examples_and_oracle():
    cp7, _ = _reduced(7)
    assert sweep.has_odd_order(curves.reduce_point_mod_p(POINT_P, 7), cp7)
    cp2, _ = _reduced(2)
    assert sweep.has_odd_order(curves.reduce_point_mod_p(POINT_P, 2), cp2)
    assert sweep.has_odd_order(None, cp7)
    for p in sweep.primes_up_to(999):
        if p in (3, 5):
            continue
        cp, _ = _reduced(p)
        pt = curves.reduce_point_mod_p(POINT_P, p)
        assert sweep.has_odd_order(pt, cp) == (_naive_order(pt, cp) % 2 == 1), p


def test_divides_some_term_examples():
    assert sweep.divides_some_term(3) is True
    assert sweep.divides_some_term(5) is False
    assert sweep.divides_some_term(7) is True
    assert sweep.divides_some_term(2) is True


def test_divides_some_term_matches_sequence_scan():
    # p | b_n forces (2n+1)P = O mod p, so the first hit appears within
    # half the group order; p + 2*sqrt(p) + 2 is a safe scan bound
    for p in sweep.primes_up_to(199):
        bound = p + 2 * math.isqrt(p) + 2
        scan = any(seq.term(n) % p == 0 for n in range(bound))
        assert sweep.divides_some_term(p) == scan, p


def test_odd_order_decision_matches_naive_order_on_random_pairs():
    # normal-form pairs (a, b) with the marked point (0, 0), at every good
    # prime below 600, p = 2 included: the per-prime decision against the
    # parity of the order found by repeated addition, and the scan engine's
    # count against the same oracle
    rng = random.Random(17)
    pairs = 0
    while pairs < 40:
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 4))
        c = curves.curve_from_pair(a, b)
        if c.discriminant() == 0:
            continue
        pairs += 1
        hits = 0
        for p in sweep.primes_up_to(600):
            if a.denominator % p == 0 or b.denominator % p == 0:
                continue
            cp, good = curves.reduce_mod_p(c, p)
            if not good:
                continue
            pt = curves.reduce_point_mod_p((0, 0), p)
            odd = _naive_order(pt, cp) % 2 == 1
            assert sweep.has_odd_order(pt, cp) == odd, (a, b, p)
            hits += odd
        recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), 600, threads=1)
        assert (recs[-1].pi_prime, recs[-1].pi) == (hits, 109), (a, b)


def test_ratio_str_leaves_decimal_context_alone():
    saved = decimal.getcontext().prec
    decimal.getcontext().prec = 7
    try:
        assert sweep.ratio_str(41856, 78498) == "0.533211037"
        assert decimal.getcontext().prec == 7
    finally:
        decimal.getcontext().prec = saved


def test_primes_segmented_matches_simple():
    base = sweep.primes_up_to(500)
    got = list(sweep.primes_in_range(100, 400, base))
    want = [p for p in sweep.primes_up_to(400) if p >= 100]
    assert got == want


def test_sweep_table_to_1e4():
    recs = sweep.sweep(10_000, threads=1)
    assert [(r.x, r.pi_prime, r.pi) for r in recs] == [
        (10, 3, 4),
        (100, 13, 25),
        (1000, 91, 168),
        (10000, 636, 1229),
    ]
    assert recs[0].ratio == "0.750000000"
    assert recs[2].ratio == "0.541666667"
    assert recs[3].ratio == "0.517493897"


def test_sweep_non_decade_endpoint():
    recs = sweep.sweep(150, threads=1)
    assert [r.x for r in recs] == [10, 100, 150]
    assert recs[-1].pi == 35  # pi(150)


def test_sweep_thread_count_invariance():
    want = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(10_000, threads=1)]
    for threads in (4, 8):
        got = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(10_000, threads=threads)]
        assert got == want, threads


def test_thread_count_must_be_positive():
    for threads in (0, -3):
        with pytest.raises(ValueError):
            sweep.sweep(100, threads=threads)
        with pytest.raises(ValueError):
            sweep.density_scan(CURVE_E, POINT_P, 100, threads=threads)


def test_checkpoint_roundtrip(tmp_path):
    ck = sweep.Checkpoint(97, 25, 13)
    path = str(tmp_path / "ck.txt")
    ck.save(path)
    assert sweep.Checkpoint.load(path) == ck
    assert open(path).read() == "97 25 13\n"


def test_checkpoint_errors(tmp_path):
    with pytest.raises(OSError):
        sweep.Checkpoint.load(str(tmp_path / "missing.txt"))
    bad = tmp_path / "bad.txt"
    bad.write_text("12 34")
    with pytest.raises(ValueError):
        sweep.Checkpoint.load(str(bad))


def test_sweep_resume_matches_cold_run(tmp_path):
    path = str(tmp_path / "resume.txt")
    # seed a checkpoint by sweeping a prefix, then resume to the full bound
    sweep.sweep(70_000, threads=1, checkpoint_path=path)
    ck = sweep.Checkpoint.load(path)
    assert ck.last_prime >= 69_000
    recs = sweep.sweep(100_000, threads=1, checkpoint_path=path)
    cold = sweep.sweep(100_000, threads=1)
    assert [r.x for r in recs] == [10, 100, 1000, 10_000, 100_000]
    assert recs == cold
    os.remove(path)


def test_density_scan_consistent_with_sweep():
    # the sequence sweep counts the bad prime 3 (it divides b_4); the
    # generic scan skips bad primes, so every row sits exactly one below
    recs = sweep.density_scan(CURVE_E, POINT_P, 10_000, threads=1)
    table = sweep.sweep(10_000, threads=1)
    assert [(r.x, r.pi_prime + 1, r.pi) for r in recs] == [(r.x, r.pi_prime, r.pi) for r in table]


def test_character_sum_count_matches_naive_enumeration():
    for p in (7, 11, 13, 101):
        cp, _ = _reduced(p)
        naive = 1
        for x in range(p):
            for y in range(p):
                if cp.contains((x, y)):
                    naive += 1
        assert sweep._count_exhaustive(cp.a1, cp.a2, cp.a3, cp.a4, cp.a6, p) == naive, p
