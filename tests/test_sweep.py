import decimal
import itertools
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from echotk import curves, fabulous, sweep
from echotk.curves import CURVE_E, POINT_P, _fp_add, _fp_mul, _fp_neg


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


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _random_points(cp, rng, count):
    """count random affine points of cp over an odd prime field.

    A random x whose g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 is a square z^2 gives
    y from 2y + a1 x + a3 = z.  For p = 3 mod 4, z = g^((p+1)/4); otherwise z
    comes from a table of all squares, so keep p small then.
    """
    p = cp.p
    b2, b4, b6, _ = cp.b_invariants()
    roots = None if p % 4 == 3 else {z * z % p: z for z in range(p)}
    pts = []
    while len(pts) < count:
        x = rng.randrange(p)
        g = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % p
        z = pow(g, (p + 1) // 4, p) if roots is None else roots.get(g, 0)
        if z * z % p == g:
            pt = (x, (z - cp.a1 * x - cp.a3) * pow(2, -1, p) % p)
            assert cp.contains(pt), (pt, p)
            pts.append(pt)
    return pts


def test_group_order_hasse_and_annihilation():
    rng = random.Random(5)
    for p in (1009, 4999, 9973):
        cp, _ = _reduced(p)
        n = sweep.group_order(cp)
        assert abs(n - (p + 1)) <= 2 * math.isqrt(p) + 1
        for pt in _random_points(cp, rng, 20):
            assert curves._fp_mul(n, pt, cp.a1, cp.a2, cp.a3, cp.a4, p) is None
    # at the largest prime the count takes, its int64 terms come nearest to wrapping
    top = next(n for n in range(sweep.EXHAUSTIVE_MAX, 1, -1) if _is_prime(n))
    cp, _ = _reduced(top)
    n = sweep.group_order(cp)
    assert abs(n - (top + 1)) <= 2 * math.isqrt(top) + 1
    assert curves.scalar_mul(n, curves.reduce_point_mod_p(POINT_P, top), cp) is None


def _naive_order(pt, cp):
    acc = pt
    n = 1
    while acc is not None:
        acc = curves.add(acc, pt, cp)
        n += 1
    return n


# The scalar odd-order decision the lane engine replaced, kept as its oracle:
# one affine baby-step giant-step search per prime with the curves group law.


def _annihilator_oracle(pt, a1, a2, a3, a4, p) -> int:
    """Some M > 0 in the Hasse interval with M*pt = O."""
    T = math.isqrt(4 * p)
    s = math.isqrt(2 * T) + 1
    baby: dict = {}
    run = None
    for j in range(s):
        baby.setdefault(run, j)
        run = _fp_add(run, pt, a1, a2, a3, a4, p)
    s_pt = _fp_mul(s, pt, a1, a2, a3, a4, p)
    lo = p + 1 - T
    giant = _fp_mul(lo, pt, a1, a2, a3, a4, p)
    for i in range((2 * T) // s + 2):
        j = baby.get(_fp_neg(giant, a1, a3, p))
        if j is not None and lo + i * s + j > 0:
            return lo + i * s + j
        j = baby.get(giant)
        if j is not None and lo + i * s - j > 0:
            return lo + i * s - j
        giant = _fp_add(giant, s_pt, a1, a2, a3, a4, p)
    raise AssertionError(f"no annihilator found mod {p}")


def _odd_order_oracle(pt, a1, a2, a3, a4, p) -> bool:
    m = _annihilator_oracle(pt, a1, a2, a3, a4, p)
    return _fp_mul(m >> ((m & -m).bit_length() - 1), pt, a1, a2, a3, a4, p) is None


def _oracle_hit(p, parts, bad) -> bool:
    """The scalar decision for a prepared rational pair, bad primes False."""
    if bad % p == 0:
        return False
    if parts[0][1] % p == 0:
        return True
    x, y, a1, a2, a3, a4 = (n * pow(d, -1, p) % p for n, d in parts)
    return _odd_order_oracle((x, y), a1, a2, a3, a4, p)


def _lanes(rows):
    """Engine lanes from (affine point, curve over F_p) rows."""
    return np.array([(cp.p, *pt, cp.a1, cp.a2, cp.a3, cp.a4) for pt, cp in rows], np.int64).T


def _check_engine(rows):
    """Every lane's M is positive and kills its point, and the decision is the
    parity of the naive order; returns the decisions."""
    lanes = _lanes(rows)
    multiples = sweep._annihilating_multiples(*lanes).tolist()
    decisions = sweep._order_is_odd(*lanes).tolist()
    for (pt, cp), m, odd in zip(rows, multiples, decisions):
        assert m > 0 and curves.scalar_mul(m, pt, cp) is None, (pt, cp)
        assert odd == (_naive_order(pt, cp) % 2 == 1), (pt, cp)
    return decisions


def test_engine_matches_oracle_and_naive_order_below_1000():
    rows = [(curves.reduce_point_mod_p(POINT_P, p), _reduced(p)[0])
            for p in sweep.primes_up_to(999) if p not in (3, 5)]
    decisions = _check_engine(rows)
    for (pt, cp), odd in zip(rows, decisions):
        assert odd == _odd_order_oracle(pt, cp.a1, cp.a2, cp.a3, cp.a4, cp.p), cp.p


def test_engine_on_tiny_primes_with_points_of_order_1_to_4():
    # every affine point of every non-singular curve over F_2 and F_3, and of
    # seeded curves over F_5 and F_7, in one call with mixed and repeated primes
    rng = random.Random(3)
    rows = []
    for p, count in ((2, None), (3, None), (5, 150), (7, 150)):
        if count is None:
            coeffs = [tuple((n // p**i) % p for i in range(5)) for n in range(p**5)]
        else:
            coeffs = [tuple(rng.randrange(p) for _ in range(5)) for _ in range(count)]
        for a in coeffs:
            cp = curves.Curve(*a, p=p)
            if not cp.is_singular():
                rows += [((x, y), cp) for x in range(p) for y in range(p) if cp.contains((x, y))]
    orders = {_naive_order(pt, cp) for pt, cp in rows}
    assert {2, 3, 4} <= orders
    _check_engine(rows)


def test_engine_at_the_largest_lane_prime():
    p = sweep.LANE_PRIME_MAX
    assert p == 2**31 - 1 and _is_prime(p)
    cp, good = _reduced(p)
    assert good
    rng = random.Random(11)
    pts = [curves.reduce_point_mod_p(POINT_P, p)]
    pts += _random_points(cp, rng, 3)
    lanes = _lanes([(pt, cp) for pt in pts])
    multiples = sweep._annihilating_multiples(*lanes).tolist()
    decisions = sweep._order_is_odd(*lanes).tolist()
    for pt, m, odd in zip(pts, multiples, decisions):
        assert m > 0 and _fp_mul(m, pt, cp.a1, cp.a2, cp.a3, cp.a4, p) is None
        assert odd == _odd_order_oracle(pt, cp.a1, cp.a2, cp.a3, cp.a4, p)


def test_engine_matches_oracle_per_prime_to_1e5():
    # E, the t = 1 family member and the control pair, prime by prime
    ps = sweep.primes_up_to(100_000)
    origin = (Fraction(0), Fraction(0))
    for c, pt in (
        (CURVE_E, POINT_P),
        (curves.curve_from_pair(*fabulous.parametrize(1)), origin),
        (curves.curve_from_pair(*fabulous.find_control_pair()), origin),
    ):
        parts, bad = sweep._prepare(c, pt)
        got = sweep._decide(ps, parts, bad, {}).tolist()
        want = [_oracle_hit(p, parts, bad) for p in ps]
        assert got == want, c


def test_lane_bound_fails_loudly():
    big = sweep.LANE_PRIME_MAX + 1
    for call in (
        lambda: sweep.sweep(big, threads=1),
        lambda: sweep.density_scan(CURVE_E, POINT_P, big, threads=1),
        lambda: sweep.divides_some_term(2147483659),  # the least prime above the bound
    ):
        with pytest.raises(ValueError, match="lane bound"):
            call()
    assert _is_prime(2147483659) and not any(map(_is_prime, range(big, 2147483659)))
    # group_order counts every x in F_p, so it stops at EXHAUSTIVE_MAX
    above = next(n for n in itertools.count(sweep.EXHAUSTIVE_MAX + 1) if _is_prime(n))
    with pytest.raises(ValueError, match="exhaustively"):
        sweep.group_order(_reduced(above)[0])


@pytest.mark.parametrize("n, at_o", [(5, 2), (13, 17)])
def test_density_scan_where_the_point_reduces_to_o(n, at_o):
    # x(5P) and x(13P) have denominators b_2^2 = 2^2 and b_6^2 = 17^2, so at
    # one good prime the point reduces to O, of odd order 1, and never
    # reaches a lane; every prime's decision is the parity of the naive order
    pt = curves.scalar_mul(n, POINT_P, CURVE_E)
    ps = sweep.primes_up_to(1000)
    good = [p for p in ps if _reduced(p)[1]]
    assert [p for p in good if curves.reduce_point_mod_p(pt, p) is None] == [at_o]
    odd = {}
    for p in good:
        red = curves.reduce_point_mod_p(pt, p)
        odd[p] = red is None or _naive_order(red, _reduced(p)[0]) % 2 == 1
    assert sweep._decide(ps, *sweep._prepare(CURVE_E, pt), {}).tolist() == [odd.get(p, False) for p in ps]
    recs = sweep.density_scan(CURVE_E, pt, 1000, threads=1)
    assert [(r.x, r.pi_prime, r.pi) for r in recs] == [
        (x, sum(odd[p] for p in good if p <= x), sum(p <= x for p in ps)) for x in (10, 100, 1000)
    ]


def test_divides_some_term_examples():
    assert sweep.divides_some_term(3) is True
    assert sweep.divides_some_term(5) is False
    assert sweep.divides_some_term(7) is True
    assert sweep.divides_some_term(2) is True


def test_odd_order_decision_matches_naive_order_on_random_pairs():
    # normal-form pairs (a, b) with the marked point (0, 0), at every good
    # prime below 600, p = 2 included: one engine call per pair decides every
    # prime, against the parity of the order found by repeated addition, and
    # the scan engine's count against the same oracle
    rng = random.Random(17)
    pairs = 0
    while pairs < 40:
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 4))
        c = curves.curve_from_pair(a, b)
        if c.discriminant() == 0:
            continue
        pairs += 1
        rows = []
        for p in sweep.primes_up_to(600):
            if a.denominator % p == 0 or b.denominator % p == 0:
                continue
            cp, good = curves.reduce_mod_p(c, p)
            if good:
                rows.append(((0, 0), cp))
        hits = sum(_check_engine(rows))
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


def test_sweep_non_decade_endpoint():
    recs = sweep.sweep(150, threads=1)
    assert [r.x for r in recs] == [10, 100, 150]
    assert recs[-1].pi == 35  # pi(150)


def test_sweep_thread_count_invariance():
    # three segments, so both thread counts run a real pool (of 2 and of 3 workers)
    x = 3 * sweep.SEGMENT_SIZE
    want = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(x, threads=1)]
    for threads in (2, 8):
        got = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(x, threads=threads)]
        assert got == want, threads


def test_sweep_asks_for_no_more_workers_than_tasks(monkeypatch):
    made = []

    class RecordingPool:
        """Records max_workers and maps in this process: no worker is started."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    want = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=1)]
    # one task runs in-process, whatever the thread count
    assert sweep.sweep(100, threads=64)[-1].pi == 25
    assert made == []
    # two tasks ask for two workers
    got = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=64)]
    assert made == [2]
    assert got == want


def test_thread_count_must_be_positive():
    for threads in (0, -3):
        with pytest.raises(ValueError):
            sweep.sweep(100, threads=threads)
        with pytest.raises(ValueError):
            sweep.density_scan(CURVE_E, POINT_P, 100, threads=threads)


def test_density_scan_rejects_a_singular_curve():
    # y^2 = x^3 has bad reduction everywhere: a table of zeros would hide that
    cusp = curves.Curve(0, 0, 0, 0, 0)
    assert cusp.contains((1, 1))
    with pytest.raises(curves.SingularCurveError):
        sweep.density_scan(cusp, (1, 1), 100, threads=1)


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
    # E at a few primes, and seeded non-singular curves with all five a_i
    # drawn, p = 2 and 3 included, against counting (x, y) pairs
    curves_fp = [_reduced(p)[0] for p in (7, 11, 13, 101)]
    rng = random.Random(13)
    for p in (2, 3, 5, 7, 11):
        drawn = 0
        while drawn < 40:
            cp = curves.Curve(*(rng.randrange(p) for _ in range(5)), p=p)
            if not cp.is_singular():
                curves_fp.append(cp)
                drawn += 1
    for cp in curves_fp:
        naive = 1 + sum(cp.contains((x, y)) for x in range(cp.p) for y in range(cp.p))
        assert sweep.group_order(cp) == naive, cp
