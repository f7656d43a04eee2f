import decimal
import hashlib
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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


def _reduced_pair(c, pt, p):
    """(pt mod p, c mod p) for a rational pair, or None where c has bad
    reduction at p; the point is None where it reduces to O."""
    if any(Fraction(a).denominator % p == 0 for a in (c.a1, c.a2, c.a3, c.a4, c.a6)):
        return None
    cp, good = curves.reduce_mod_p(c, p)
    return (curves.reduce_point_mod_p(pt, p), cp) if good else None


def _oracle_hit(p, c, pt) -> bool:
    """The scalar decision for a rational pair at p, bad primes False."""
    row = _reduced_pair(c, pt, p)
    return row is not None and (row[0] is None or _odd_order_oracle(*row))


def _lanes(rows):
    """Engine lanes (p, x, b2, b4, b6) from (affine point, curve over F_p)
    rows of odd p."""
    return np.array([(cp.p, pt[0], *cp.b_invariants()[:3]) for pt, cp in rows], np.int64).T


# the cases of sweep._two_sylow that settle a lane, and those that prove 4 | #E
_SETTLED = (sweep.NO_ROOT, sweep.Z2, sweep.CYCLIC_EVEN, sweep.SPLIT_EVEN)
_FOUR_DIVIDES = (sweep.CYCLIC_EVEN, sweep.SPLIT_EVEN, sweep.BSGS_4)


def _check_search(rows, ms):
    """Each lane's two rows M of the search are positive, and 4M kills the
    point for one of them."""
    for (pt, cp), pair in zip(rows, ms.T.tolist()):
        assert min(pair) > 0 and any(curves.scalar_mul(4 * m, pt, cp) is None for m in pair), (pt, cp, pair)


def _check_engine(rows):
    """On every lane whose case proves 4 | #E, the search's rows pass
    _check_search, and on every lane the decision is the parity of the
    naive order; returns the decisions."""
    lanes = _lanes(rows)
    four = np.flatnonzero(np.isin(sweep._two_sylow(*lanes)[0], _FOUR_DIVIDES))
    if four.size:
        _check_search([rows[i] for i in four.tolist()], sweep._bsgs(*lanes[:, four]))
    decisions = sweep._order_is_odd(*lanes).tolist()
    for (pt, cp), odd in zip(rows, decisions):
        assert odd == (_naive_order(pt, cp) % 2 == 1), (pt, cp)
    return decisions


def test_engine_matches_oracle_and_naive_order_below_1000():
    rows = [(curves.reduce_point_mod_p(POINT_P, p), _reduced(p)[0])
            for p in sweep.primes_up_to(999) if p not in (2, 3, 5)]
    decisions = _check_engine(rows)
    for (pt, cp), odd in zip(rows, decisions):
        assert odd == _odd_order_oracle(pt, cp), cp.p


def _tiny_rows():
    """Every affine point of every non-singular curve over F_3, and of
    seeded curves over F_5 and F_7, with mixed and repeated primes."""
    rng = random.Random(3)
    rows = []
    for p, count in ((3, None), (5, 150), (7, 150)):
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
    for p in (3, 5, 7):
        _check_engine([row for row in rows if row[1].p == p])


def _stride(p):
    """The giant stride 2s - 1 of one _bsgs call on the lane primes p, from
    the widest lane's quarter interval, as the search sets it."""
    T = np.array([math.isqrt(4 * q) for q in p.tolist()], np.int64)
    W = int(((p + 1 + T) // 4 - -(-(p + 1 - T) // 4)).max())
    return 2 * max(2, math.isqrt(W // 2) + 1) - 1


def test_search_mixes_tiny_primes_with_the_lane_bound():
    # one search over E's last four-divides primes below 2^31, which set
    # the stride 2s - 1, seeded curves over F_3, F_5, F_7 and F_11, whose
    # intervals lie below s, so their giants start at m0 = 1, and points
    # found by brute force at p near a multiple of 4(2s - 1), with m0 >= 2,
    # whose 4P has order dividing 2s - 1 but not below s: there the step S
    # is O and no baby is, so M is 2s - 1 in both rows, not m0(2s - 1)
    hi = 2**31
    top = sweep.primes_in_range(hi - 2000, hi, sweep.primes_up_to(math.isqrt(hi) + 1)).tolist()
    big = _pair_rows(CURVE_E, POINT_P, top)
    case = sweep._two_sylow(*_lanes(big))[0]
    big = [row for row, k in zip(big, case.tolist()) if k in _FOUR_DIVIDES][-4:]
    stride = _stride(_lanes(big)[0])
    s = (stride + 1) // 2
    rng = random.Random(37)
    tiny = [row for row in _random_rows(rng, [3, 5, 7, 11], 200) if sweep.group_order(row[1]) % 4 == 0]
    assert {cp.p for _, cp in tiny} == {3, 5, 7, 11}
    at_stride = []
    for q in sweep.primes_up_to(5000):
        T = math.isqrt(4 * q)
        if (q + 1 + T) // (4 * stride) * 4 * stride < q + 1 - T or q + 1 - T < 8 * stride:
            continue  # no multiple of 4(2s - 1) in Hasse's interval, or m0 < 2
        for pt, cp in _random_rows(rng, [q], 40):
            Q = curves.scalar_mul(4, pt, cp)
            n = sweep.group_order(cp)
            if n % 4 == 0 and Q is not None and curves.scalar_mul(stride, Q, cp) is None:
                if all(curves.scalar_mul(d, Q, cp) is not None for d in range(1, s)):
                    at_stride.append((pt, cp))
        if len(at_stride) >= 4:
            break
    rows = tiny + big + at_stride
    lanes = _lanes(rows)
    assert _stride(lanes[0]) == stride and len(at_stride) >= 4
    M = sweep._bsgs(*lanes)
    _check_search(rows, M)
    assert (M[:, len(tiny) + len(big) :] == stride).all()
    odd = sweep._kills(M // (M & -M), *lanes).any(axis=0).tolist()
    for (pt, cp), decided in zip(rows, odd):
        if cp.p <= sweep.EXHAUSTIVE_MAX:
            n = sweep.group_order(cp)
            assert decided == (curves.scalar_mul(n >> ((n & -n).bit_length() - 1), pt, cp) is None), (pt, cp)


def _lane_x(R, p):
    """x = X/Z of each lane of a point R = (X : Z), or None at O."""
    return [None if z == 0 else X * pow(z, -1, q) % q for X, z, q in zip(*(a.tolist() for a in (*R, p)))]


def test_x_only_ladder_on_tiny_primes():
    # the ladder against the curves group law for every k <= 16 on every
    # point of the tiny-prime curves, x(P) = 0 included: the O test, and
    # the x of both outputs, also from a projective base (lam x : lam),
    # since the search keys on x through such differences; the ladder takes
    # b8 from the curve, _kills computes it on the lane
    rows = _tiny_rows()
    lanes = _lanes(rows)
    p, x = lanes[0], lanes[1]
    b = tuple(np.array([(cp.p, *cp.b_invariants()) for _, cp in rows], np.int64).T)
    rng = random.Random(5)
    lam = np.array([rng.randrange(1, q) for q in p.tolist()], np.int64)
    bases = ((x, np.ones_like(x)), (lam * x % p, lam))
    for k in range(1, 17):
        got = sweep._kills(np.full(len(rows), k, np.int64), *lanes).tolist()
        assert got == [curves.scalar_mul(k, pt, cp) is None for pt, cp in rows], k
        want = [[None if q is None else q[0] for q in (curves.scalar_mul(n, pt, cp) for pt, cp in rows)]
                for n in (k, k + 1)]
        for base in bases:
            R0, R1 = sweep._ladder(np.full(len(rows), k, np.int64), base, b)
            assert [_lane_x(R0, p), _lane_x(R1, p)] == want, k


def test_engine_at_the_largest_lane_prime():
    p = sweep.LANE_PRIME_MAX
    assert p == 2**31 - 1 and _is_prime(p)
    cp, good = _reduced(p)
    assert good
    rng = random.Random(11)
    pts = [curves.reduce_point_mod_p(POINT_P, p)]
    pts += _random_points(cp, rng, 3)
    lanes = _lanes([(pt, cp) for pt in pts])
    multiples = [_annihilator_oracle(pt, cp) for pt in pts]
    decisions = sweep._order_is_odd(*lanes).tolist()
    for pt, m, odd in zip(pts, multiples, decisions):
        assert m > 0 and curves.scalar_mul(m, pt, cp) is None
        assert odd == _odd_order_oracle(pt, cp)
    # where the case proves 4 | #E, the search's two rows, about 2^29 at this prime
    four = np.flatnonzero(np.isin(sweep._two_sylow(*lanes)[0], _FOUR_DIVIDES))
    M = sweep._bsgs(*lanes[:, four]) if four.size else np.zeros((2, 0), np.int64)
    _check_search([(pts[i], cp) for i in four.tolist()], M)
    searched = dict(zip(four.tolist(), M.T.tolist()))
    # the ladder against the group law where its terms come nearest to
    # wrapping: the annihilators, their odd parts and neighbours, the top
    # scalar, four times the search's rows, and random scalars below 2^62
    for i, (pt, m) in enumerate(zip(pts, multiples)):
        ks = [1, 2, 3, 2**32 - 1, 2**63 - 1, m, m - 1, m + 1, m >> ((m & -m).bit_length() - 1)]
        ks += [4 * r for r in searched.get(i, [])]
        ks += [rng.randrange(1, 2**62) for _ in range(8)]
        got = sweep._kills(np.array(ks, np.int64), *_lanes([(pt, cp)] * len(ks))).tolist()
        assert got == [curves.scalar_mul(k, pt, cp) is None for k in ks], pt


def _check_the_lane_bound_window(step):
    """E's 3028 primes in [2^31 - 2^16, 2^31), the last sweep chunk below the
    lane bound, in one _decide call, which searches about 500 lanes at once:
    the hit count, and every step-th prime against the scalar oracle."""
    hi = 2**31
    ps = sweep.primes_in_range(hi - 2**16, hi, sweep.primes_up_to(math.isqrt(hi) + 1))
    got = sweep._decide(ps, *sweep._ECHO_PAIR)
    assert (len(ps), int(got.sum())) == (3028, 1619)
    assert got[::step].tolist() == [_oracle_hit(p, CURVE_E, POINT_P) for p in ps[::step].tolist()]


def test_decide_at_the_lane_bound():
    _check_the_lane_bound_window(10)


_extended = pytest.mark.skipif(not os.environ.get("ECHO_EXTENDED"), reason="extended check: set ECHO_EXTENDED=1")


@_extended
def test_extended_decide_at_the_lane_bound_against_the_oracle():
    _check_the_lane_bound_window(1)


def test_engine_matches_oracle_per_prime_to_1e5():
    # E, the t = 1 family member and the control pair, prime by prime, p = 2
    # and the bad primes included
    ps = sweep.primes_up_to(100_000)
    origin = (Fraction(0), Fraction(0))
    for c, pt in (
        (CURVE_E, POINT_P),
        (curves.curve_from_pair(*fabulous.parametrize(1)), origin),
        (curves.curve_from_pair(*fabulous.find_control_pair()), origin),
    ):
        got = sweep._decide(ps, *sweep._prepare(c, pt)).tolist()
        want = [_oracle_hit(p, c, pt) for p in ps]
        assert got == want, c


# nine pairs whose scans mix the classifier's cases differently: E, six
# family members, the control pair and Somos-4's (0, 0) on y^2 + y = x^3 - x
def _nine_pairs():
    origin = (Fraction(0), Fraction(0))
    pairs = {"E": (CURVE_E, POINT_P)}
    for t in (1, 2, -23, -5, -11, -29):
        pairs[f"t={t}"] = (curves.curve_from_pair(*fabulous.parametrize(t)), origin)
    pairs["control"] = (curves.curve_from_pair(*fabulous.find_control_pair()), origin)
    pairs["somos4"] = (curves.Curve(0, 0, 1, -1, 0), origin)
    return pairs


# SHA-256 of np.packbits of each pair's decisions at every prime to 1e5 and
# 1e6, computed by an engine whose lanes still carried y and a1..a4, so they
# hold the lanes on (p, x, b2, b4, b6) to that engine's answers
_DIGESTS_1E5 = {
    "E": "ed41144d3bf0b96500ad57c2be2f3d61e7c1ecc0521326fe4267beac88b61c4c",
    "t=1": "1e046f57fe9a5dd9049c013ee94c39de0d8d98936f810b94b498593cdb54997d",
    "t=2": "17185258465e4fe2ba695e55896183f9b12fe05831d9de773d906c273f1c8818",
    "t=-23": "8822ed948f488452685c2d39fad4870639cc6c4dfaa18102115bc87228aa7a20",
    "t=-5": "a0bbcc786e959ce808bab2907d6489ce3836d56dd47cc6cff158e392da8df710",
    "t=-11": "e657afa7042e762086c435f744a5a0b0a49a17d0de762bf542492d52d64d4e08",
    "t=-29": "8c89080ec9e6aa40971f93c20b0620604dcb1a266ffaeeb0ba9a8c1e7a646283",
    "control": "e89b6dc4a64ee583e3831557f7340066709aa214da9a725073066064576ae2ff",
    "somos4": "046557e7a86340c3e38aff494fe9c7eb6199ef8810dd6404cc3233015dad7ca6",
}
_DIGESTS_1E6 = {
    "E": "dd1011b3bf1f3e9d7caa033bf937e2aa4d0a37e787ba549e83c2e4b33387e6dd",
    "t=1": "c4de89d548c93c5c0507f4d039ca532b80c0c14860929f2aa2e4c48f4b5af23e",
    "t=2": "4b1ced7f6c08e1b20ba0330adf141b80a3f3bb87e14b14f2092eca29c8560cfa",
    "t=-23": "475db089d7c5a2cc7ee714b51f5baf743e5703e4b1349df38486a72dc30b9268",
    "t=-5": "4003bd4931da34695b5488ecff0c49dec3f0a78c42a20c0494898817af24c29b",
    "t=-11": "1c46776946041b3cb59b73edd20d167b5dcbbfc416cf39c11f46991dee26f7ab",
    "t=-29": "6bba90e1e559d69714075abd6ccbbe837c05c39173ca433f8690112fef888026",
    "control": "3b0c0036a26a73bc090debf7764c01586f0f8adcf04c16f715e524383fdd9988",
    "somos4": "32abef5dbf5e822ee50a7666faa037146e7c4007e662c1592a1c6532896c9aff",
}


def _check_decision_digests(x, digests):
    """_decide on every prime <= x, in chunks of 2^14 primes, gives the
    pinned digest for each of the nine pairs."""
    ps = sweep.primes_up_to(x)
    got = {}
    for name, (c, pt) in _nine_pairs().items():
        pair = sweep._prepare(c, pt)
        out = np.concatenate([sweep._decide(ps[i : i + 2**14], *pair) for i in range(0, len(ps), 2**14)])
        got[name] = hashlib.sha256(np.packbits(out).tobytes()).hexdigest()
    assert got == digests


def test_decisions_of_nine_pairs_to_1e5_are_pinned():
    _check_decision_digests(100_000, _DIGESTS_1E5)


@_extended
def test_extended_decisions_of_nine_pairs_to_1e6_are_pinned():
    _check_decision_digests(1_000_000, _DIGESTS_1E6)


# SHA-256 of the case codes of sweep._two_sylow, as uint8, on the lanes
# _decide selects at every prime to 1e5, and their counts in the order
# NO_ROOT, Z2, CYCLIC_EVEN, SPLIT_EVEN, BSGS_4, computed by an engine that
# counted the roots through X^p mod f; the decision digests cannot see a
# lane that moves from a settling case into the search
_CASES_1E5 = {
    "E": ("888a47b29b567a70d99bb11a1d1b7c6d6e6d112485bf08132a1b4776b84bad2b", (3225, 2402, 1207, 1188, 1567)),
    "t=1": ("96929159316a6574e0de0224a1f8caf175c83a914d760b7b98c9914c02d922d5", (3225, 2405, 1208, 1170, 1582)),
    "t=2": ("cbd8aab969d65899b10bf207233191f48d5019c9ea3729ca102fa119d2814ab3", (3225, 2386, 0, 1168, 2805)),
    "t=-23": ("d5548c983323dffc698f8b01300ee89509e846adaa79fa98e1143ec9d735b51e", (0, 2404, 1190, 3588, 2405)),
    "t=-5": ("0b702dd970a5334ce67c8f51b1653c3bb02ce19f1acfc91adf9f4f691fbb8503", (0, 2411, 1195, 3594, 2387)),
    "t=-11": ("1267c90404f0b3f4986d18cf37d1a05d4e88316deb9647da891c41e060893472", (3225, 2409, 0, 0, 3955)),
    "t=-29": ("aff7612bb2c2a7e8e487d69facb2161fea6de93a98a01b3c1113619e647d9c4f", (3199, 2383, 1220, 1171, 1615)),
    "control": ("f1107f24bd772327807d67ae296c644fb8100b282a6b7a63519d4f1e0be4344f", (3197, 2405, 1219, 1198, 1571)),
    "somos4": ("a376247d64b80dbfbe6bf82848d0b9c22cc64a4cf744ed61f66a005b1f5e7183", (3208, 2426, 1177, 1198, 1581)),
}


def test_cases_of_nine_pairs_to_1e5_are_pinned(monkeypatch):
    ps = sweep.primes_up_to(100_000)
    seen = []
    two_sylow = sweep._two_sylow

    def recording(*lanes):
        out = two_sylow(*lanes)
        seen.append(out[0])
        return out

    monkeypatch.setattr(sweep, "_two_sylow", recording)
    got = {}
    for name, (c, pt) in _nine_pairs().items():
        seen.clear()
        sweep._decide(ps, *sweep._prepare(c, pt))
        case = np.concatenate(seen)
        digest = hashlib.sha256(case.astype(np.uint8).tobytes()).hexdigest()
        got[name] = (digest, tuple(np.bincount(case, minlength=5).tolist()))
    assert got == _CASES_1E5


def _pair_rows(c, pt, ps):
    """(affine point, curve over F_p) rows of a rational pair at the odd
    primes of ps where the curve has good reduction and pt does not reduce
    to O."""
    rows = [_reduced_pair(c, pt, p) for p in ps if p != 2]
    return [row for row in rows if row is not None and row[0] is not None]


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


def _gcd_steps_degenerate(p, x, b2, b4, b6):
    """Where h = Y^p - Y mod g(Y) = -f(x - Y), f the monic 2-division cubic,
    is nonzero, the step at which Euclid on g and h, by true division,
    misses the degrees 3, 2, 1: "h2" if deg h < 2, "l1" if deg(g mod h) < 1,
    else None."""
    g, power = [], [1]  # g = -sum c_i (x - Y)^i over the coefficients c_i of f
    for c in (v * pow(4, -1, p) % p for v in (b6, 2 * b4, b2, 4)):
        g = [a - c * b for a, b in itertools.zip_longest(g, power, fillvalue=0)]
        power = np.convolve(power, [x, -1]).tolist()
    g = [v % p for v in g]
    r, base = [1], [0, 1]
    for bit in bin(p)[2:]:
        r = _poly_mod(np.convolve(r, r).tolist(), g, p)
        if bit == "1":
            r = _poly_mod([0] + r, g, p)
    h = _poly_mod([v - w for v, w in itertools.zip_longest(r, base, fillvalue=0)], g, p)
    if not h:
        return None
    if len(h) < 3:
        return "h2"
    return "l1" if len(_poly_mod(g, h, p)) < 2 else None


def _case_by_roots(p, x, b2, b4, b6):
    """The case of sweep._two_sylow from the roots of the 2-division cubic,
    found by trying every x in F_p, and Euler's criterion."""
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


def _random_rows(rng, primes, count):
    """count (affine point, curve over F_p) rows with p drawn from primes and
    x, y, a1..a4 uniform mod p, a6 read off the point; singular curves are
    redrawn."""
    rows = []
    while len(rows) < count:
        p = rng.choice(primes)
        x, y, a1, a2, a3, a4 = (rng.randrange(p) for _ in range(6))
        cp = curves.Curve(a1, a2, a3, a4, (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x) % p, p=p)
        if not cp.is_singular():
            rows.append(((x, y), cp))
    return rows


def _check_cases(rows, cases):
    """On the lanes of (affine point, curve over F_p) rows, the cases of
    sweep._two_sylow are exactly cases, and each is the case the roots of f
    give.  Against #E from group_order: NO_ROOT has #E odd, Z2 has
    #E = 2 mod 4, and the other cases 4 | #E.  The point has odd order iff
    the odd part of #E kills it: that is the decision of _order_is_odd on
    every lane, and the classifier's own on the lanes it settles."""
    lanes = _lanes(rows)
    case, odd = sweep._two_sylow(*lanes)
    decisions = sweep._order_is_odd(*lanes)
    assert set(case.tolist()) == cases
    for (pt, cp), lane, k, settled_odd, decided in zip(rows, lanes.T.tolist(), case, odd, decisions):
        p, n = cp.p, sweep.group_order(cp)
        kills = curves.scalar_mul(n >> ((n & -n).bit_length() - 1), pt, cp) is None
        assert decided == kills, p
        assert k == _case_by_roots(*lane), p
        assert n % 2 == 1 if k == sweep.NO_ROOT else n % 4 == (2 if k == sweep.Z2 else 0), p
        if k in _SETTLED:
            assert settled_odd == kills, p


def test_two_division_classifier_against_group_order_and_bsgs():
    # E, the t = 1, t = 2 and t = -23 family members, the control pair, and
    # the 2-torsion point T = (0, 0) of y^2 = x^3 + x^2 + 2x, at every good
    # prime below 3000.  T's x is a root of f at every prime, so T gives
    # lanes with x = e1 to both even rules.  On y^2 = x^3 - 25x =
    # x(x - 5)(x + 5) with (45, 300), u at the root y = 45 - 0 of g is
    # chi(45) = 1 on lanes where u != 1, so the split rule must check all
    # of u.  Its translate x -> x + 1, with (44, 300), has c2 = 3 and
    # x != 0, so every coefficient of g, whose roots are the x - e, counts.
    origin = (Fraction(0), Fraction(0))
    five = set(range(5))
    for c, pt, cases in (
        (CURVE_E, POINT_P, five),
        (curves.curve_from_pair(*fabulous.parametrize(1)), origin, five),
        (curves.curve_from_pair(*fabulous.parametrize(2)), origin, five - {sweep.CYCLIC_EVEN}),
        (curves.curve_from_pair(*fabulous.parametrize(-23)), origin, five - {sweep.NO_ROOT}),
        (curves.curve_from_pair(*fabulous.find_control_pair()), origin, five),
        (curves.Curve(0, 1, 0, 2, 0), origin, {sweep.Z2, sweep.CYCLIC_EVEN, sweep.SPLIT_EVEN}),
        (curves.Curve(0, 0, 0, -25, 0), (Fraction(45), Fraction(300)), {sweep.SPLIT_EVEN, sweep.BSGS_4}),
        (curves.Curve(0, 3, 0, -22, -24), (Fraction(44), Fraction(300)), {sweep.SPLIT_EVEN, sweep.BSGS_4}),
    ):
        _check_cases(_pair_rows(c, pt, sweep.primes_up_to(3000)), cases)
    # seeded random curves at odd p < 400, among them lanes where the two
    # pseudo-remainder steps degenerate: h = Y^p - Y mod g of degree < 2,
    # and g mod h a constant
    rows = _random_rows(random.Random(29), sweep.primes_up_to(399)[1:], 1000)
    assert {_gcd_steps_degenerate(*lane) for lane in _lanes(rows).T.tolist()} == {None, "h2", "l1"}
    _check_cases(rows, five)


def test_bsgs_runs_only_on_lanes_the_classifier_leaves(monkeypatch):
    # E's good primes to 1e5, p = 2 included: the classifier settles all but
    # at most 17% of them (about 1/6), and one search call sees exactly the
    # BSGS_4 lanes; the prepared pair decides p = 2, which no lane holds
    ps = np.array([p for p in sweep.primes_up_to(100_000) if p not in (3, 5)])
    calls = []
    search = sweep._bsgs

    def recording_search(p, *rest):
        calls.append(p.tolist())
        return search(p, *rest)

    monkeypatch.setattr(sweep, "_bsgs", recording_search)
    assert sweep._decide(ps, *sweep._ECHO_PAIR).sum() == 5118 - 1  # of the table, less 3
    odd_ps = ps[ps != 2]
    case, _ = sweep._two_sylow(*_lanes(_pair_rows(CURVE_E, POINT_P, odd_ps.tolist())))
    assert len(case) == len(odd_ps)
    assert calls == [odd_ps[case == sweep.BSGS_4].tolist()]
    assert len(calls[0]) <= 0.17 * len(ps)


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
    lanes = np.array([(p, 0, 4, 4, 0) for p in ps], np.int64).T  # b2 = 4, b4 = 4, b6 = 0
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


@pytest.mark.parametrize(
    "t, hits", [(-23, 2556), (-29, 5101), (-5, 2571), (-11, 7667), (None, 5029), (Fraction(37, 7), 5085)]
)
def test_density_scan_of_other_2_adic_images(t, hits):
    # family members whose 2-adic images differ from E's, and Somos-4's pair
    # (0, 0) on y^2 + y = x^3 - x (t = None), mix the classifier's cases
    # differently: t = -23 and t = -5 have no lane with sylow 1, and three
    # quarters of their lanes search a quarter of the Hasse interval; the
    # rational member t = 37/7 enters the lanes as an integral model with a
    # 97-digit b6' and a 363-bit bad integer
    c = curves.Curve(0, 0, 1, -1, 0) if t is None else curves.curve_from_pair(*fabulous.parametrize(t))
    recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), 100_000, threads=1)
    assert (recs[-1].x, recs[-1].pi_prime, recs[-1].pi) == (100_000, hits, 9592)


def test_lane_residues_match_python_mod():
    # Horner's rule over 30-bit limbs against Python's %, for integers of
    # both signs up to 400 bits and the edges of int64, at lane primes from
    # 3 to the lane bound, where each step comes nearest to 2^63
    rng = random.Random(37)
    q = np.array([3, 5, 7, 65537, 999983, 2**31 - 19, 2**31 - 1], np.int64)
    values = [0, 2**63 - 1, -(2**63 - 1), 2**63, -(2**63), 2**90, -(2**90)]
    values += [2**30, -(2**30), 2**30 - 1, -(2**30) - 1]
    for bits in range(0, 401, 8):
        v = rng.getrandbits(bits) if bits else 1
        values += [v, -v, v | 1 << max(bits - 1, 0)]
    for v in values:
        got = sweep._lane_residues(v, q)
        assert got.dtype == np.int64 and got.tolist() == [v % p for p in q.tolist()], v


def _random_fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 40))


@pytest.mark.parametrize("name", ["E, 13P", "t=37/7"])
def test_decide_is_invariant_under_a_change_of_variables(name):
    # a rational TateMap(r, s, t, u) is an isomorphism mod every prime that
    # divides no numerator or denominator of r, s, t and u, so at each such
    # prime below 10^4 the decision on the mapped pair is the decision on
    # the pair; 13P has x with denominator 17^2, so it reduces to O mod 17
    if name == "E, 13P":
        c, pt = CURVE_E, curves.scalar_mul(13, POINT_P, CURVE_E)
        assert pt[0].denominator == 17**2
    else:
        c, pt = curves.curve_from_pair(*fabulous.parametrize(Fraction(37, 7))), (Fraction(0), Fraction(0))
    ps = sweep.primes_up_to(10_000)
    want = sweep._decide(ps, *sweep._prepare(c, pt))
    rng = random.Random(13)
    for _ in range(4):
        tm = curves.TateMap(*(_random_fraction(rng) for _ in range(4)))
        parts = math.prod(v.numerator * v.denominator for v in (tm.r, tm.s, tm.t, tm.u))
        keep = np.array([parts % p != 0 for p in ps])
        got = sweep._decide(ps, *sweep._prepare(tm.curve(c), tm.apply(pt)))
        assert np.array_equal(got[keep], want[keep]), tm
    assert want.any() and not want.all()


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
    assert sweep._decide(ps, *sweep._prepare(CURVE_E, pt)).tolist() == [odd.get(p, False) for p in ps]
    recs = sweep.density_scan(CURVE_E, pt, 1000, threads=1)
    assert [(r.x, r.pi_prime, r.pi) for r in recs] == [
        (x, sum(odd[p] for p in good if p <= x), sum(p <= x for p in ps)) for x in (10, 100, 1000)
    ]


def test_prepare_decides_p_2_by_the_group_law(monkeypatch):
    # every affine point of every non-singular curve over F_2, lifted to an
    # integral curve through an integral point with seeded even shifts, so
    # that 2 stays a good prime: _prepare decides p = 2, no lane sees it,
    # and the decision is the parity of the naive order
    def no_lane(*lanes):
        raise AssertionError("p = 2 reached a lane")

    monkeypatch.setattr(sweep, "_order_is_odd", no_lane)
    rng = random.Random(31)
    orders = set()
    for n in range(32):
        cp = curves.Curve(*((n >> i) & 1 for i in range(5)), p=2)
        if cp.is_singular():
            continue
        for pt in [(x, y) for x in range(2) for y in range(2) if cp.contains((x, y))]:
            x, y = (v + 2 * rng.randint(-3, 3) for v in pt)
            a1, a2, a3, a4 = (a + 2 * rng.randint(-3, 3) for a in (cp.a1, cp.a2, cp.a3, cp.a4))
            c = curves.Curve(a1, a2, a3, a4, y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x)
            order = _naive_order(pt, cp)
            orders.add(order)
            pair = sweep._prepare(c, (x, y))
            assert c.discriminant().numerator % 2 == 1 and 2 in pair[2]
            assert sweep._decide([2], *pair).tolist() == [order % 2 == 1], (c, (x, y))
    assert orders == {2, 3, 4, 5}
    # bad at 2: y^2 = x^3 - x has discriminant 64, so False; 5P has x with
    # denominator 2^2, so it reduces to O mod 2, of odd order 1
    bad_at_2 = curves.Curve(0, 0, 0, -1, 0)
    assert bad_at_2.discriminant() == 64
    for c, pt, odd in ((bad_at_2, (0, 0), False), (CURVE_E, curves.scalar_mul(5, POINT_P, CURVE_E), True)):
        pair = sweep._prepare(c, pt)
        assert 2 not in pair[2] and sweep._decide([2], *pair).tolist() == [odd]


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
    # prime below 600: one engine call per pair decides every odd prime,
    # against the parity of the order found by repeated addition, and the
    # scan engine's count, p = 2 included, against the same oracle
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
        hits = sum(_check_engine([row for row in rows if row[1].p != 2]))
        hits += sum(_naive_order(pt, cp) % 2 for pt, cp in rows if cp.p == 2)
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


def _record_children(monkeypatch):
    """Return the dict the sweep fills with each child it forks: its pid,
    mapped to its wait status once the sweep has reaped it."""
    children = {}
    fork, waitpid = os.fork, os.waitpid

    def recording_fork():
        pid = fork()
        if pid:
            children[pid] = None
        return pid

    def recording_waitpid(pid, options):
        reaped, status = waitpid(pid, options)
        if reaped in children:
            children[reaped] = status
        return reaped, status

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return children


def _assert_no_children():
    # every child is reaped: none is left running, nor a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_asks_for_no_more_workers_than_tasks(monkeypatch):
    children = _record_children(monkeypatch)
    want = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=1)]
    assert children == {}
    # one task runs in the caller, whatever the thread count
    assert sweep.sweep(100, threads=64)[-1].pi == 25
    assert children == {}
    # two tasks: the caller runs one and exactly one child the other
    got = [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=64)]
    assert len(children) == 1 and None not in children.values()
    assert got == want
    _assert_no_children()


def test_default_worker_count_is_the_usable_cpus(monkeypatch):
    # a process pinned to one CPU of eight runs the sweep alone by default
    want = sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=1)
    children = _record_children(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=None) == want
    assert children == {}


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
    _assert_no_children()


def test_sweep_failing_in_the_caller_reaps_its_children(monkeypatch):
    caller, chunk = os.getpid(), sweep._sweep_chunk

    def failing(task):
        if os.getpid() == caller:
            raise KeyError("caller's chunk")
        time.sleep(60)  # the child would outlive the sweep unless it is terminated
        return chunk(task)

    children = _record_children(monkeypatch)
    monkeypatch.setattr(sweep, "_sweep_chunk", failing)
    t0 = time.monotonic()
    with pytest.raises(KeyError, match="caller's chunk"):
        sweep.sweep(3 * sweep.SEGMENT_SIZE, threads=3)
    assert time.monotonic() - t0 < 30
    assert len(children) == 2
    assert [os.waitstatus_to_exitcode(status) for status in children.values()] == [-signal.SIGTERM] * 2
    _assert_no_children()


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
    _assert_no_children()
    monkeypatch.setattr(sweep, "_sweep_chunk", chunk)
    ck = sweep.Checkpoint.load(path)
    assert ck.last_prime < x
    done = sweep.SweepRecord(ck.last_prime, ck.pi_prime_so_far, ck.pi_so_far)
    assert sweep.sweep(ck.last_prime, threads=1)[-1] == done
    assert sweep.sweep(x, threads=2, checkpoint_path=path) == sweep.sweep(x, threads=1)


def test_sweep_forks_its_workers_without_multiprocessing():
    # in a fresh interpreter in development mode, which reports an unclosed
    # pipe as a ResourceWarning: a 2-worker sweep of three tasks imports no
    # multiprocessing and leaves no child behind
    code = """
import os, sys
from echotk import sweep
assert sweep.sweep(2 * sweep.SEGMENT_SIZE + 2, threads=2)[-1].pi == 12251
assert "multiprocessing" not in sys.modules
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child")
"""
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (0, "no child\n"), proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_threads_without_fork_fail_loudly(monkeypatch):
    # a platform without os.fork runs the sweep in the caller alone
    monkeypatch.delattr(os, "fork")
    want = sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=1)
    assert sweep.sweep(sweep.SEGMENT_SIZE + 2) == want
    with pytest.raises(ValueError, match="os.fork"):
        sweep.sweep(sweep.SEGMENT_SIZE + 2, threads=2)


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
    assert Path(path).read_text() == "97 25 13\n"


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
    assert Path(path).read_text() == Path(cold_path).read_text()


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
