import decimal
import itertools
import math
import multiprocessing
import os
import random
import signal
import time
import types
from fractions import Fraction

import numpy as np
import pytest

from echotk import curves, fabulous, sweep
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
            assert curves.scalar_mul(n, pt, cp) is None
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


def _annihilator_oracle(pt, cp) -> int:
    """Some M > 0 in the Hasse interval with M*pt = O."""
    p = cp.p
    T = math.isqrt(4 * p)
    s = math.isqrt(2 * T) + 1
    baby: dict = {}
    run = None
    for j in range(s):
        baby.setdefault(run, j)
        run = curves.add(run, pt, cp)
    s_pt = curves.scalar_mul(s, pt, cp)
    lo = p + 1 - T
    giant = curves.scalar_mul(lo, pt, cp)
    for i in range((2 * T) // s + 2):
        j = baby.get(curves.negate(giant, cp))
        if j is not None and lo + i * s + j > 0:
            return lo + i * s + j
        j = baby.get(giant)
        if j is not None and lo + i * s - j > 0:
            return lo + i * s - j
        giant = curves.add(giant, s_pt, cp)
    raise AssertionError(f"no annihilator found mod {p}")


def _odd_order_oracle(pt, cp) -> bool:
    m = _annihilator_oracle(pt, cp)
    return curves.scalar_mul(m >> ((m & -m).bit_length() - 1), pt, cp) is None


def _oracle_hit(p, parts, bad) -> bool:
    """The scalar decision for a prepared rational pair, bad primes False."""
    if bad % p == 0:
        return False
    if parts[0][1] % p == 0:
        return True
    x, y, a1, a2, a3, a4 = (n * pow(d, -1, p) % p for n, d in parts)
    return _odd_order_oracle((x, y), curves.Curve(a1, a2, a3, a4, 0, p=p))  # a6 enters no formula


def _lanes(rows):
    """Engine lanes from (affine point, curve over F_p) rows."""
    return np.array([(cp.p, *pt, cp.a1, cp.a2, cp.a3, cp.a4) for pt, cp in rows], np.int64).T


# the cases of sweep._two_sylow that settle a lane, and those that prove 4 | #E
_SETTLED = (sweep.NO_ROOT, sweep.Z2, sweep.CYCLIC_EVEN, sweep.SPLIT_EVEN)
_FOUR_DIVIDES = (sweep.CYCLIC_EVEN, sweep.SPLIT_EVEN, sweep.BSGS_4)


def _check_engine(rows):
    """Every lane's M is positive and kills its point, also from the quarter
    interval on the lanes whose case proves 4 | #E, and the decision is the
    parity of the naive order; returns the decisions."""
    lanes = _lanes(rows)
    multiples = sweep._annihilating_multiples(*lanes, 1).tolist()
    four = np.flatnonzero(np.isin(sweep._two_sylow(*lanes)[0], _FOUR_DIVIDES))
    if four.size:
        quarter = sweep._annihilating_multiples(*lanes[:, four], 4).tolist()
        for i, m in zip(four.tolist(), quarter):
            pt, cp = rows[i]
            assert m > 0 and m % 4 == 0 and curves.scalar_mul(m, pt, cp) is None, (pt, cp)
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
        assert odd == _odd_order_oracle(pt, cp), cp.p


def _tiny_rows():
    """Every affine point of every non-singular curve over F_2 and F_3, and
    of seeded curves over F_5 and F_7, with mixed and repeated primes."""
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
    return rows


def test_engine_on_tiny_primes_with_points_of_order_1_to_4():
    # in one call, then one prime a call: at p = 3 and 5 the quarter
    # interval holds one or two values
    rows = _tiny_rows()
    orders = {_naive_order(pt, cp) for pt, cp in rows}
    assert {2, 3, 4} <= orders
    _check_engine(rows)
    for p in (2, 3, 5, 7):
        _check_engine([row for row in rows if row[1].p == p])


def test_x_only_ladder_on_tiny_primes():
    # the ladder's O test against the curves group law for every k <= 16 on
    # every point of the tiny-prime curves, p = 2 and x(P) = 0 included
    rows = _tiny_rows()
    lanes = _lanes(rows)
    for k in range(1, 17):
        got = sweep._kills(np.full(len(rows), k, np.int64), *lanes).tolist()
        assert got == [curves.scalar_mul(k, pt, cp) is None for pt, cp in rows], k


def test_engine_at_the_largest_lane_prime():
    p = sweep.LANE_PRIME_MAX
    assert p == 2**31 - 1 and _is_prime(p)
    cp, good = _reduced(p)
    assert good
    rng = random.Random(11)
    pts = [curves.reduce_point_mod_p(POINT_P, p)]
    pts += _random_points(cp, rng, 3)
    lanes = _lanes([(pt, cp) for pt in pts])
    multiples = sweep._annihilating_multiples(*lanes, 1).tolist()
    decisions = sweep._order_is_odd(*lanes).tolist()
    for pt, m, odd in zip(pts, multiples, decisions):
        assert m > 0 and curves.scalar_mul(m, pt, cp) is None
        assert odd == _odd_order_oracle(pt, cp)
    # the ladder against the group law where its terms come nearest to
    # wrapping: the annihilators, their odd parts and neighbours, and random
    # scalars below 2^32, above any M a search returns at this prime
    for pt, m in zip(pts, multiples):
        ks = [1, 2, 3, 2**32 - 1, m, m - 1, m + 1, m >> ((m & -m).bit_length() - 1)]
        ks += [rng.randrange(1, 2**32) for _ in range(8)]
        got = sweep._kills(np.array(ks, np.int64), *_lanes([(pt, cp)] * len(ks))).tolist()
        assert got == [curves.scalar_mul(k, pt, cp) is None for k in ks], pt


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


def _pair_lanes(c, pt, ps):
    """Engine lanes of a rational pair at the primes of ps where the curve
    has good reduction and pt does not reduce to O."""
    parts, bad = sweep._prepare(c, pt)
    rows = [p for p in ps if bad % p and parts[0][1] % p]
    return np.array([[p] + [n * pow(d, -1, p) % p for n, d in parts] for p in rows], np.int64).T


def _poly_mod(a, f, p):
    """a mod f over F_p, coefficient lists in ascending order, trimmed."""
    a = [v % p for v in a]
    inv = pow(f[-1], -1, p)
    while len(a) >= len(f):
        q, shift = a[-1] * inv % p, len(a) - len(f)
        a = [(v - q * f[i - shift]) % p if i >= shift else v for i, v in enumerate(a)][:-1]
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_steps_degenerate(p, x, y, a1, a2, a3, a4):
    """Whether h = X^p - X mod the monic 2-division cubic f is nonzero and
    Euclid on f and h, by true division, misses the degrees 3, 2, 1:
    deg h < 2 or deg(f mod h) < 1."""
    b2, b4 = a1 * a1 + 4 * a2, a1 * a3 + 2 * a4
    b6 = (2 * y + a1 * x + a3) ** 2 - ((4 * x + b2) * x + 2 * b4) * x
    f = [v * pow(4, -1, p) % p for v in (b6, 2 * b4, b2, 4)]
    r, base = [1], [0, 1]
    for bit in bin(p)[2:]:
        r = _poly_mod(np.convolve(r, r).tolist(), f, p)
        if bit == "1":
            r = _poly_mod([0] + r, f, p)
    h = _poly_mod([v - w for v, w in itertools.zip_longest(r, base, fillvalue=0)], f, p)
    return bool(h) and (len(h) < 3 or len(_poly_mod(f, h, p)) < 2)


def _case_by_roots(p, x, y, a1, a2, a3, a4):
    """The case of sweep._two_sylow from the roots of the 2-division cubic,
    found by trying every x in F_p, and Euler's criterion; for odd p."""
    b2, b4 = a1 * a1 + 4 * a2, a1 * a3 + 2 * a4
    b6 = (2 * y + a1 * x + a3) ** 2 - ((4 * x + b2) * x + 2 * b4) * x
    xs = np.arange(p, dtype=np.int64)
    roots = xs[(((4 * xs + b2) * xs + 2 * b4) % p * xs + b6) % p == 0].tolist()  # of 4f

    def square(a):  # a nonzero square mod p
        return pow(a % p, (p - 1) // 2, p) == 1

    if not roots:
        return sweep.NO_ROOT
    if len(roots) == 1:
        e = roots[0]
        if not square((12 * e + 2 * b2) * e + 2 * b4):  # (4f)'(e1) = 4 f'(e1)
            return sweep.Z2
        return sweep.BSGS_4 if square(x - e) else sweep.CYCLIC_EVEN
    return sweep.BSGS_4 if all(square(x - e) for e in roots) else sweep.SPLIT_EVEN


def test_two_division_classifier_against_group_order_and_bsgs():
    # E, the t = 1, t = 2 and t = -23 family members, the control pair, and
    # the 2-torsion point T = (0, 0) of y^2 = x^3 + x^2 + 2x, at every good
    # prime below 3000.  Each lane's case is the one the roots of f give,
    # found by trying every x; BSGS_1 holds exactly p = 2 and the lanes where
    # the gcd steps degenerate.  Against #E from group_order: NO_ROOT has #E
    # odd, Z2 has #E = 2 mod 4, and the other cases 4 | #E.  On the two
    # "even" cases the odd part of #E does not kill the point, and every
    # settled lane's decision is the BSGS decision.  T's x is a root of f at
    # every prime, so T gives lanes with x = e1 to both even rules.  On
    # y^2 = x^3 - 25x = x(x - 5)(x + 5) with (45, 300), u's constant term
    # u(0) = chi(45) is 1 on lanes where u != 1, so the split rule must
    # check all of u.  Its translate x -> x + 1, with (44, 300), has c2 = 3
    # and x != 0, so every coefficient of the cubic whose root is x - X
    # counts.
    origin = (Fraction(0), Fraction(0))
    six = set(range(6))
    for c, pt, cases in (
        (CURVE_E, POINT_P, six),
        (curves.curve_from_pair(*fabulous.parametrize(1)), origin, six - {sweep.BSGS_1}),
        (curves.curve_from_pair(*fabulous.parametrize(2)), origin, six - {sweep.CYCLIC_EVEN}),
        (curves.curve_from_pair(*fabulous.parametrize(-23)), origin, six - {sweep.NO_ROOT, sweep.BSGS_1}),
        (curves.curve_from_pair(*fabulous.find_control_pair()), origin, six),
        (curves.Curve(0, 1, 0, 2, 0), origin, {sweep.Z2, sweep.CYCLIC_EVEN, sweep.SPLIT_EVEN}),
        (curves.Curve(0, 0, 0, -25, 0), (Fraction(45), Fraction(300)), {sweep.SPLIT_EVEN, sweep.BSGS_4}),
        (curves.Curve(0, 3, 0, -22, -24), (Fraction(44), Fraction(300)), {sweep.SPLIT_EVEN, sweep.BSGS_4}),
    ):
        lanes = _pair_lanes(c, pt, sweep.primes_up_to(3000))
        case, odd = sweep._two_sylow(*lanes)
        assert set(case.tolist()) == cases, c
        settled = np.flatnonzero(np.isin(case, _SETTLED))
        assert odd[settled].tolist() == sweep._odd_by_bsgs(*lanes[:, settled], 1).tolist(), c
        for (p, x, y, a1, a2, a3, a4), k in zip(lanes.T.tolist(), case.tolist()):
            if p == 2 or _gcd_steps_degenerate(p, x, y, a1, a2, a3, a4):
                assert k == sweep.BSGS_1, (c, p)
                continue
            assert k == _case_by_roots(p, x, y, a1, a2, a3, a4), (c, p)
            a6 = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x) % p
            cp = curves.Curve(a1, a2, a3, a4, a6, p=p)
            n = sweep.group_order(cp)
            assert n % 2 == 1 if k == sweep.NO_ROOT else n % 4 == (2 if k == sweep.Z2 else 0), (c, p)
            if k in (sweep.CYCLIC_EVEN, sweep.SPLIT_EVEN):
                assert curves.scalar_mul(n >> ((n & -n).bit_length() - 1), (x, y), cp) is not None, (c, p)
        assert np.count_nonzero(case == sweep.BSGS_1) < len(case) / 100, c


def test_bsgs_runs_only_on_lanes_the_classifier_leaves(monkeypatch):
    # E's primes 7..1e5: the classifier settles all but at most 17% of them
    # (about 1/6), only the BSGS cases reach the search, and all but 7 and
    # 17 of those search a quarter of the Hasse interval
    ps = [p for p in sweep.primes_up_to(100_000) if p >= 7]
    searched = {1: [], 4: []}
    search = sweep._annihilating_multiples

    def recording_search(p, *rest):
        searched[rest[-1]] += p.tolist()
        return search(p, *rest)

    monkeypatch.setattr(sweep, "_annihilating_multiples", recording_search)
    assert sweep._decide(ps, *sweep._ECHO_PAIR, {}).sum() == 5118 - 2  # of the table, less 2 and 3
    case, _ = sweep._two_sylow(*_pair_lanes(CURVE_E, POINT_P, ps))
    assert len(case) == len(ps)
    assert searched[1] == [7, 17] and searched[4] == np.array(ps)[case == sweep.BSGS_4].tolist()
    assert len(searched[1]) + len(searched[4]) <= 0.17 * len(ps)


def test_classifier_decides_the_rational_2_torsion_point_even():
    # y^2 = x^3 + x^2 + 2x and its 2-torsion point T = (0, 0): f = x(x^2 + x + 2)
    # has the one root 0 iff -7 is a non-residue, and three roots otherwise.
    # With one root the lane is Z2 iff f'(0) = 2 is a non-residue, and
    # CYCLIC_EVEN otherwise, as x - e1 = 0 is not a nonzero square; with
    # three roots x - 0 = 0 makes u != 1, so SPLIT_EVEN.  T has order 2 on
    # every lane, and no lane reaches the BSGS
    def chi(a, p):
        return pow(a % p, (p - 1) // 2, p)

    ps = [p for p in sweep.primes_up_to(3000) if p not in (2, 7)]
    lanes = np.array([(p, 0, 0, 0, 1, 0, 2) for p in ps], np.int64).T
    case, odd = sweep._two_sylow(*lanes)
    want = [
        sweep.SPLIT_EVEN if chi(-7, p) == 1 else sweep.Z2 if chi(2, p) == p - 1 else sweep.CYCLIC_EVEN for p in ps
    ]
    assert case.tolist() == want
    assert set(want) == {sweep.Z2, sweep.CYCLIC_EVEN, sweep.SPLIT_EVEN}
    assert not odd.any() and not sweep._order_is_odd(*lanes).any()


def test_cubic_pow_against_polynomial_arithmetic():
    # X^e mod seeded monic cubics f over F_p, for every prime p < 200 and
    # every e in 0..p + 1, against successive products reduced by _poly_mod;
    # and, as _two_sylow gets u, Y^e mod g(Y) = -f(x - Y), read back through
    # Y = x - X, equals (x - X)^e mod f
    def padded(a):
        return a + [0] * (3 - len(a))

    rng = random.Random(23)
    rows, want, want_shifted, points = [], [], [], []
    for p in sweep.primes_up_to(199):
        for _ in range(4):
            c0, c1, c2, x = (rng.randrange(p) for _ in range(4))
            f = [c0, c1, c2, 1]
            g = [-(((x + c2) * x + c1) * x + c0), (3 * x + 2 * c2) * x + c1, -(3 * x + c2)]
            power, shifted = [1], [1]
            for e in range(p + 2):
                rows += [(p, c0, c1, c2, e), (p, *(v % p for v in g), e)]
                want.append(padded(power))
                want_shifted.append(padded(shifted))
                points.append((p, x))
                power = _poly_mod([0] + power, f, p)
                shifted = _poly_mod([x * u - v for u, v in zip(shifted + [0], [0] + shifted)], f, p)
    p, c0, c1, c2, e = np.array(rows, np.int64).T
    got = np.stack(sweep._cubic_pow(e, (p, c0, c1, c2))).T.tolist()
    assert got[::2] == want
    back = [
        [(r0 + (r1 + r2 * x) * x) % q, (-r1 - 2 * r2 * x) % q, r2]
        for (q, x), (r0, r1, r2) in zip(points, got[1::2])
    ]
    assert back == want_shifted


def test_density_scan_of_the_t2_family_member():
    # t = 2's 2-adic image is an index-2 subgroup of H_2, so its primes mix
    # the classifier's cases differently from E's
    c = curves.curve_from_pair(*fabulous.parametrize(2))
    recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), 100_000, threads=1)
    assert (recs[-1].x, recs[-1].pi_prime, recs[-1].pi) == (100_000, 4267, 9592)


@pytest.mark.parametrize("t, hits", [(-23, 2556), (-29, 5101), (-5, 2571), (-11, 7667), (None, 5029)])
def test_density_scan_of_other_2_adic_images(t, hits):
    # family members whose 2-adic images differ from E's, and Somos-4's pair
    # (0, 0) on y^2 + y = x^3 - x (t = None), mix the classifier's cases
    # differently: t = -23 and t = -5 have no lane with sylow 1, and three
    # quarters of their lanes search a quarter of the Hasse interval
    c = curves.Curve(0, 0, 1, -1, 0) if t is None else curves.curve_from_pair(*fabulous.parametrize(t))
    recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), 100_000, threads=1)
    assert (recs[-1].x, recs[-1].pi_prime, recs[-1].pi) == (100_000, hits, 9592)


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


def test_divides_some_term_rejects_non_primes():
    # 0, 1 and negatives once raised ZeroDivisionError or an isqrt error, and
    # composites got an answer; 2147450879 = 32767 * 65537 sits below the lane bound
    for n in (0, 1, -7, 4, 9, 91, 2147450879):
        with pytest.raises(ValueError, match="not a prime"):
            sweep.divides_some_term(n)


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
    got = sweep.primes_in_range(100, 400, base)
    want = [p for p in sweep.primes_up_to(400) if p >= 100]
    assert got.dtype == np.int64 and got.tolist() == want
    assert sweep.primes_in_range(400, 100, base).tolist() == []


def test_sweep_non_decade_endpoint():
    recs = sweep.sweep(150, threads=1)
    assert [r.x for r in recs] == [10, 100, 150]
    assert recs[-1].pi == 35  # pi(150)


def test_sweep_thread_count_invariance():
    # three tasks, so both thread counts start children (one and two)
    x = 3 * sweep.SEGMENT_SIZE
    want = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(x, threads=1)]
    for threads in (2, 8):
        got = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(x, threads=threads)]
        assert got == want, threads


# the tests that patch _sweep_chunk reach the children only through fork
_FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="children are not forked")


def _record_children(monkeypatch):
    """Return the list the sweep appends each child it starts to."""
    started = []

    class RecordingProcess(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    patched = types.SimpleNamespace(Pipe=multiprocessing.Pipe, Process=RecordingProcess)
    monkeypatch.setattr(sweep, "multiprocessing", patched)
    return started


def test_sweep_asks_for_no_more_workers_than_tasks(monkeypatch):
    started = _record_children(monkeypatch)
    want = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=1)]
    assert started == []
    # one task runs in the caller, whatever the thread count
    assert sweep.sweep(100, threads=64)[-1].pi == 25
    assert started == []
    # two tasks: the caller runs one and exactly one child the other
    got = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=64)]
    assert len(started) == 1 and started[0].exitcode is not None
    assert got == want
    assert multiprocessing.active_children() == []


@_FORK_ONLY
def test_sweep_reraises_a_child_exception(monkeypatch):
    caller, chunk = os.getpid(), sweep._sweep_chunk

    def failing(task):
        if task[0] > 100_000 and os.getpid() != caller:
            raise ZeroDivisionError(f"no inverse in [{task[0]}, {task[1]})")
        return chunk(task)

    monkeypatch.setattr(sweep, "_sweep_chunk", failing)
    with pytest.raises(ZeroDivisionError, match=r"no inverse in \[\d+, \d+\)") as info:
        sweep.sweep(4 * sweep.SEGMENT_SIZE, threads=2)
    assert "in failing" in str(info.value.__cause__)  # the child's traceback
    assert multiprocessing.active_children() == []


@_FORK_ONLY
def test_sweep_failing_in_the_caller_reaps_its_children(monkeypatch):
    caller, chunk = os.getpid(), sweep._sweep_chunk

    def failing(task):
        if os.getpid() == caller:
            raise KeyError("caller's chunk")
        time.sleep(60)  # the child would outlive the sweep unless it is terminated
        return chunk(task)

    started = _record_children(monkeypatch)
    monkeypatch.setattr(sweep, "_sweep_chunk", failing)
    t0 = time.monotonic()
    with pytest.raises(KeyError, match="caller's chunk"):
        sweep.sweep(3 * sweep.SEGMENT_SIZE, threads=3)
    assert time.monotonic() - t0 < 30
    assert len(started) == 2
    assert [child.exitcode for child in started] == [-signal.SIGTERM] * 2
    assert multiprocessing.active_children() == []


@_FORK_ONLY
def test_sweep_raises_when_a_child_dies_without_a_result(monkeypatch, tmp_path):
    # a child that dies closes its pipe: the sweep raises rather than return
    # the counts it has, and its checkpoint holds only the caller's task
    caller, chunk = os.getpid(), sweep._sweep_chunk

    def dying(task):
        if os.getpid() != caller:
            os._exit(3)
        return chunk(task)

    path = str(tmp_path / "ck.txt")
    x = 2 * sweep.SEGMENT_SIZE
    monkeypatch.setattr(sweep, "_sweep_chunk", dying)
    with pytest.raises(RuntimeError, match=r"sweep worker 1 exited before counting \[\d+, \d+\)"):
        sweep.sweep(x, threads=2, checkpoint_path=path)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(sweep, "_sweep_chunk", chunk)
    ck = sweep.Checkpoint.load(path)
    assert ck.last_prime < x
    done = sweep.SweepRecord(ck.last_prime, ck.pi_prime_so_far, ck.pi_so_far)
    assert sweep.sweep(ck.last_prime, threads=1)[-1] == done
    assert sweep.sweep(x, threads=2, checkpoint_path=path) == sweep.sweep(x, threads=1)


def test_sweep_children_start_by_spawn(monkeypatch):
    # the child's target and its tasks pickle, so spawn and forkserver work
    want = sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=1)
    monkeypatch.setattr(sweep, "multiprocessing", multiprocessing.get_context("spawn"))
    assert sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=2) == want
    assert multiprocessing.active_children() == []


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


def test_sweep_resume_at_another_thread_count_matches_cold_run(tmp_path):
    # a checkpoint written by two workers, resumed by three over three tasks
    path, cold_path = str(tmp_path / "ck.txt"), str(tmp_path / "cold.txt")
    sweep.sweep(70_000, threads=2, checkpoint_path=path)
    x = 70_000 + 2 * sweep.SEGMENT_SIZE + 2
    recs = sweep.sweep(x, threads=3, checkpoint_path=path)
    assert recs == sweep.sweep(x, threads=1, checkpoint_path=cold_path)
    assert open(path).read() == open(cold_path).read()


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
