"""Prime sweep: which primes divide a term of the sequence.

For a good-reduction prime p the question reduces to whether the base
point has odd order in E(F_p); the bad primes are settled by the residue
cycles (3 divides a term, 5 never does).  The decision runs on numpy int64
lanes, one prime per lane, for a whole sweep segment at once, in two
stages.  First the 2-descent map on the cubic f whose roots are the x of
the 2-torsion points: a point of odd order lies in 2E(F_p) and is not
2-torsion, so x - e is a nonzero square for every root e of f in F_p.
The roots come from gcd(f, X^p - X).  If f has no root, #E(F_p) is odd
and so is the point's order.  If f has one root e1 and f'(e1) is a
non-residue, the 2-Sylow subgroup is Z/2 and the point has odd order iff
x - e1 is a nonzero square.  If f'(e1) is a square, or f has three roots,
4 | #E(F_p), and the order is even unless every x - e is a nonzero square,
which one power (x - X)^((p-1)/2) mod f tests for all three roots at
once.  That decides about 83% of E's primes, close to
1/3 + 1/4 + 1/8 + 1/8 = 5/6.  The rest go to a baby-step giant-step
search, which finds a positive multiple m of the point's order; the
order is odd exactly when the odd part of m already kills the point,
which an x-only Montgomery ladder tests.  On all of those lanes but
p = 2 and rare degenerate gcd steps the cubic proves 4 | #E(F_p), so the
search runs on 4P over a quarter of the Hasse interval, with half the
baby and giant steps.  The search uses projective coordinates, one batched
inversion per lane, and sorted keys to match baby and giant steps.  Lanes
hold primes up to LANE_PRIME_MAX = 2^31 - 1; larger primes raise
ValueError.  The same engine scans any rational curve/point pair.  The
sweep cuts its primes into contiguous ranges of equal width, at most
SEGMENT_SIZE, and deals them round-robin to `threads` processes: the
calling process is worker 0 and starts the others, each of which sends its
counts down its own pipe, and the caller takes them in range order.  The
counts are exact and independent of the worker count.

group_order counts #E(F_p) by an exhaustive character sum over every x in
F_p, for p up to EXHAUSTIVE_MAX.  It shares no code with the lanes, so the
tests and the benchmark probes check the lanes against it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Optional

import numpy as np

from . import curves
from .curves import Curve, Point
from .polyops import primes_in_range, primes_up_to

SEGMENT_SIZE = 1 << 16
EXHAUSTIVE_MAX = 1 << 22  # group_order's largest p: a few int64 arrays of length p

_BAD_DIVIDES = {3: True, 5: False}  # bad-reduction primes of E, settled by residue cycles


class AmbiguousOrderError(RuntimeError):
    """A lane's baby-step giant-step search found no multiple of its point's order."""


# ---------------------------------------------------------------------------
# the odd-order decision: the 2-division rule, then a baby-step giant-step
# search over int64 lanes
#
# A lane is a prime p, a curve a1..a4 and an affine point (x, y) on it, all
# reduced mod p; lanes may repeat a prime.  Points are projective triples
# (X, Y, Z) of lane arrays with O at Z = 0.  Residues stay below
# LANE_PRIME_MAX < 2^31, so the sum of two residue products fits int64.

LANE_PRIME_MAX = (1 << 31) - 1
LANE_POINT_BUDGET = 1 << 16  # baby and giant points stored per batch: a few MB per worker


def _check_lane_bound(p: int) -> None:
    if p > LANE_PRIME_MAX:
        raise ValueError(f"primes above {LANE_PRIME_MAX} exceed the int64 lane bound")


def _finish(u, v, X1, Y1, Z2, w, sx, c):
    """The sum of (X1 : Y1 : Z1) and a point with Z-coordinate Z2 whose
    chord or tangent has slope u/v, given w = Z1*Z2 and sx = X1*Z2 + X2*Z1.

    It is (vA : v^2 Z2 (u X1 - v Y1) - A(u + a1 v) - a3 v^3 w : v^3 w) with
    A = w(u^2 + a1 uv - a2 v^2) - v^2 sx, the affine law cleared of v^3 w.
    """
    p, a1, a2, a3, _ = c
    v2 = v * v % p
    a1v = a1 * v % p
    A = (w * ((u * (u + a1v) - a2 * v2) % p) - v2 * sx) % p
    Z3 = v2 * v % p * w % p
    Y3 = (v2 * Z2 % p * ((u * X1 - v * Y1) % p) - A * (u + a1v)) % p
    return v * A % p, (Y3 - a3 * Z3) % p, Z3


def _double(P, c):
    """2P on every lane; the tangent at a 2-torsion point gives v = 0, so O."""
    p, a1, a2, a3, a4 = c
    X, Y, Z = P
    XZ, ZZ = X * Z % p, Z * Z % p
    u = (3 * (X * X % p) + 2 * (a2 * XZ % p) + a4 * ZZ - a1 * (Y * Z % p)) % p
    v = (2 * Y + a1 * X + a3 * Z) % p * Z % p
    X3, Y3, Z3 = _finish(u, v, X, Y, Z, ZZ, 2 * XZ % p, c)
    return X3, np.where(Z == 0, 1, Y3), Z3  # O doubles to O, not to (0 : 0 : 0)


def _add(P, Q, c):
    """P + Q on every lane.  The chord gives O for P = -Q; it gives
    (0 : 0 : 0) exactly when an input is O or P = Q, and those lanes are
    fixed up."""
    p = c[0]
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    u = (Y2 * Z1 - Y1 * Z2) % p
    v = (X2 * Z1 - X1 * Z2) % p
    R = _finish(u, v, X1, Y1, Z2, Z1 * Z2 % p, (X1 * Z2 + X2 * Z1) % p, c)
    fix = np.flatnonzero(R[2] == 0)
    fix = fix[R[1][fix] == 0]
    if fix.size:
        Pf, Qf = [tuple(a[fix] for a in pt) for pt in (P, Q)]
        out = [np.where(Pf[2] == 0, q, a) for a, q in zip(Pf, Qf)]
        same = np.flatnonzero((Pf[2] != 0) & (Qf[2] != 0))
        if same.size:
            for o, d in zip(out, _double(tuple(a[same] for a in Pf), tuple(a[fix[same]] for a in c))):
                o[same] = d
        for r, o in zip(R, out):
            r[fix] = o
    return R


def _mul(k, P, c):
    """k*P on every lane, for lane scalars k >= 0 (right-to-left binary)."""
    acc = (np.zeros_like(k), np.ones_like(k), np.zeros_like(k))
    while True:
        bit = (k & 1) == 1
        if bit.any():
            acc = tuple(np.where(bit, s, a) for s, a in zip(_add(acc, P, c), acc))
        k = k >> 1
        if not k.any():
            return acc
        P = _double(P, c)


def _pow(z, e, p):
    """z^e mod p on every lane, for lane exponents e >= 0 (right-to-left
    binary); z may stack several rows of lanes.  z^(p-2) is the inverse of
    z != 0 (Fermat) and z^((p-1)/2) its Legendre symbol (Euler)."""
    r = np.ones_like(z)
    while e.any():
        r = np.where(e & 1 == 1, r * z % p, r)
        z = z * z % p
        e = e >> 1
    return r


def _normalize(pts, p):
    """Overwrite X and Y of rows of points pts = (X, Y, Z), one row per step
    along each lane, by x = X/Z and y = Y/Z, with one inverse per lane
    (Montgomery's trick down the rows).  Rows at O keep Z = 0 and get junk
    x and y."""
    X, Y, Z = pts
    buf = np.empty_like(Z)
    acc = np.ones_like(p)
    for i, z in enumerate(Z):
        buf[i] = acc = acc * (z + (z == 0)) % p
    inv = _pow(acc, p - 2, p)
    for i in range(len(Z) - 1, 0, -1):
        buf[i] = inv * buf[i - 1] % p
        inv = inv * (Z[i] + (Z[i] == 0)) % p
    buf[0] = inv
    for row in (X, Y):
        row *= buf
        row %= p


def _shape(W_max: int) -> tuple[int, int]:
    """Baby and giant counts (s - 1, n) covering intervals [lo, lo + W] for
    every W <= W_max: the giant windows [c_i - s + 1, c_i + s - 1] tile it."""
    s = max(2, math.isqrt(W_max // 2) + 1)
    return s - 1, -(-(W_max + 1) // (2 * s - 1))


def _bsgs(p, x, y, a1, a2, a3, a4, d):
    """One batch of _annihilating_multiples, for a cofactor d of #E(F_p) on
    every lane: the search runs on Q = d(x, y) over the interval
    [lo, hi] = [ceil((p + 1 - T)/d), floor((p + 1 + T)/d)], T = isqrt(4p),
    which holds #E(F_p)/d.  Babies are j*Q for 1 <= j < s, and giants sit
    at the centres c_i = lo + (s - 1) + i(2s - 1).

    A baby at O gives M = j, a giant at O gives M = c_i, and a giant with the
    x of baby j is +-j*Q, with y picking the sign, so M = c_i -+ j.  Every M
    is at least lo > 0, or j >= 1, and the lane returns d*M, which kills
    (x, y).  Babies plus giants fall by sqrt(d) with the interval.
    """
    c = (p, a1, a2, a3, a4)
    width = len(p)
    T = np.array([math.isqrt(4 * q) for q in p.tolist()], np.int64)
    lo = -(-(p + 1 - T) // d)
    n_baby, n_giant = _shape(int(((p + 1 + T) // d - lo).max()))
    stride = 2 * n_baby + 1
    Q = (x, y, np.ones_like(x))
    for _ in range(d.bit_length() - 1):
        Q = _double(Q, c)

    baby = np.empty((3, n_baby, width), np.int64)
    baby[:, 0] = Q
    if n_baby > 1:
        baby[:, 1] = _double(Q, c)
    for j in range(2, n_baby):
        baby[:, j] = _add(baby[:, j - 1], Q, c)
    step = _add(_double(baby[:, -1], c), Q, c)  # (2s - 1) Q
    centre = lo + n_baby
    giant = np.empty((3, n_giant, width), np.int64)
    giant[:, 0] = _mul(centre, Q, c)
    for i in range(1, n_giant):
        giant[:, i] = _add(giant[:, i - 1], step, c)

    # match on keys lane * key_width + x; a baby at O gets key -1
    offset = np.arange(width, dtype=np.int64) * (int(p.max()) + 1)
    _normalize(baby, p)
    baby[0] += offset
    baby[0][baby[2] == 0] = -1
    order = np.argsort(baby[0], axis=None)
    sorted_keys = baby[0].ravel()[order]
    _normalize(giant, p)
    giant_keys = (giant[0] + offset).ravel()
    pos = np.minimum(np.searchsorted(sorted_keys, giant_keys), sorted_keys.size - 1)
    found = np.flatnonzero((sorted_keys[pos] == giant_keys) & (giant[2] != 0).ravel())

    M = np.zeros(width, np.int64)
    b = order[pos[found]]
    i, lane = np.divmod(found, width)
    sign = np.where(baby[1].ravel()[b] == giant[1].ravel()[found], -1, 1)
    M[lane] = centre[lane] + i * stride + sign * (b // width + 1)
    i, lane = np.divmod(np.flatnonzero(giant[2] == 0), width)
    M[lane] = centre[lane] + i * stride
    j, lane = np.divmod(np.flatnonzero(baby[2] == 0), width)
    M[lane] = j + 1
    if not M.all():
        raise AmbiguousOrderError("no annihilator found on some lane")  # not reachable for prime p
    return d * M


def _annihilating_multiples(p, x, y, a1, a2, a3, a4, d):
    """One M > 0 per lane with M*(x, y) = O, for a cofactor d of #E(F_p) on
    every lane, searched in batches of lanes that store at most
    LANE_POINT_BUDGET baby and giant points."""
    n_baby, n_giant = _shape(2 * math.isqrt(4 * int(p.max())) // d)
    width = max(1, LANE_POINT_BUDGET // (n_baby + n_giant))
    lanes = (p, x, y, a1, a2, a3, a4)
    return np.concatenate([_bsgs(*(a[lo:lo + width] for a in lanes), d) for lo in range(0, len(p), width)])


# the per-lane cases of _two_sylow: four settle the lane, and two send it to
# the BSGS with the cofactor 4 or 1
NO_ROOT, Z2, CYCLIC_EVEN, SPLIT_EVEN, BSGS_4, BSGS_1 = range(6)
_BSGS_COFACTOR = {BSGS_4: 4, BSGS_1: 1}


def _cubic_pow(e, c):
    """X^e in F_p[X]/(f) on every lane, for the monic cubic
    f = X^3 + c2 X^2 + c1 X + c0 with c = (p, c0, c1, c2) and lane exponents
    e >= 0, as the coefficients (r0, r1, r2) of 1, X, X^2.  Left to right:
    square, then times X where e has the bit."""
    p, c0, c1, c2 = c
    r0, r1, r2 = np.ones_like(p), np.zeros_like(p), np.zeros_like(p)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        s4, s3 = r2 * r2 % p, 2 * (r1 * r2 % p)
        s2 = (r1 * r1 + 2 * (r0 * r2 % p)) % p
        s3 = (s3 - c2 * s4) % p  # X^4 = X * X^3, X^3 = -(c2 X^2 + c1 X + c0)
        s2 = (s2 - c1 * s4 - c2 * s3) % p
        s1 = (2 * (r0 * r1 % p) - c0 * s4 % p - c1 * s3) % p
        r0, r1, r2 = (r0 * r0 - c0 * s3) % p, s1, s2
        on = (e >> bit) & 1 == 1
        xr = (-c0 * r2 % p, (r0 - c1 * r2) % p, (r1 - c2 * r2) % p)  # X r
        r0, r1, r2 = (np.where(on, t, r) for t, r in zip(xr, (r0, r1, r2)))
    return r0, r1, r2


def _two_sylow(p, x, y, a1, a2, a3, a4):
    """What the 2-division cubic shows on each lane, as two arrays: the case
    code, and on the lanes it settles (NO_ROOT, Z2, CYCLIC_EVEN, SPLIT_EVEN)
    whether (x, y) has odd order.  BSGS_4 marks lanes where it proves
    4 | #E(F_p) but not the parity of the order, and BSGS_1 the lanes it
    learns nothing on.

    The x of the 2-torsion points are the roots of the monic f with
    4f(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 = (2y + a1 x + a3)^2, so f's
    constant term comes from the point and a6 is never needed.  The roots
    in F_p are those of gcd(f, h), h = X^p - X mod f; as the roots sum to
    -c2, there are 0, 1 or 3 of them, and 3 iff h = 0.

    The rule is the 2-descent map (Miret, Moreno, Rio and Valls, Math.
    Comp. 74, 2005; Knapp, Elliptic Curves, Thm 4.2): for each root e,
    Q -> x(Q) - e is a homomorphism E(F_p) -> F_p^*/F_p^*2 (sending
    (e, .) to f'(e)) that kills 2E(F_p), and with one root it is
    injective on E(F_p)/2E(F_p).  A point of odd order lies in 2E(F_p),
    since 2 is invertible on its cyclic group, and is not 2-torsion, so
    every x - e is a nonzero square.  Where one is not, the order is even.
      No root: #E(F_p) is odd, and so is the order (NO_ROOT).
      One root e1 = -l0/l1, with f'(e1) a non-residue: T = (e1, .) is not
        in 2E(F_p), so the 2-Sylow subgroup is Z/2 and the point has odd
        order iff it lies in 2E(F_p), iff x - e1 is a nonzero square (Z2).
      One root, f'(e1) a square: T is in 2E(F_p) and the 2-Sylow subgroup
        is cyclic of order at least 4.  If x - e1 is not a nonzero square,
        the order is even (CYCLIC_EVEN); otherwise BSGS_4.
      Three roots: E[2] lies in E(F_p), so 4 | #E(F_p).  By CRT,
        F_p[X]/(f) = F_p^3 through X -> (e1, e2, e3), so
        u = (x - X)^((p-1)/2) mod f is 1 iff every x - e_i is a nonzero
        square.  Y = x - X is a root of the monic
        g(Y) = -f(x - Y) = Y^3 - (3x + c2) Y^2 + (3x^2 + 2 c2 x + c1) Y - w^2/4,
        and X -> x - Y maps F_p[X]/(f) onto F_p[Y]/(g) fixing 1, so u = 1
        iff Y^((p-1)/2) mod g = 1.  If u != 1 the order is even
        (SPLIT_EVEN); otherwise BSGS_4.
    p = 2 and the rare lanes where the gcd steps below degenerate (h2 = 0
    with h != 0, or l1 = 0) are BSGS_1.
    """
    inv2 = (p + 1) >> 1
    inv4 = inv2 * inv2 % p
    c2 = (a1 * a1 + 4 * a2) % p * inv4 % p
    c1 = (a1 * a3 + 2 * a4) % p * inv2 % p
    w = (2 * y + a1 * x + a3) % p
    fx = w * w % p * inv4 % p  # f(x) = w^2/4 at the point
    c0 = (fx - ((x + c2) * x % p + c1) % p * x) % p

    # gcd(f, h): two pseudo-remainder steps leave l1 X + l0, whose root is a
    # root of h exactly when z = l1^2 h(-l0/l1) vanishes
    h0, h1, h2 = _cubic_pow(p, (p, c0, c1, c2))
    h1 = (h1 - 1) % p
    g2, g1, g0 = (h2 * c2 - h1) % p, (h2 * c1 - h0) % p, h2 * c0 % p
    l1, l0 = (h2 * g1 - g2 * h1) % p, (h2 * g0 - g2 * h0) % p
    z = ((h2 * (l0 * l0 % p) - h1 * (l0 * l1 % p)) % p + h0 * (l1 * l1 % p)) % p
    ok = (p != 2) & (h2 != 0) & (l1 != 0)
    case = np.where(ok & (z != 0), NO_ROOT, BSGS_1)
    odd = case == NO_ROOT

    # one root e1 = -l0/l1: chi of l1^2 f'(e1), of x l1 + l0 and of l1
    one = np.flatnonzero(ok & (z == 0))
    if one.size:
        q, m0, m1 = p[one], l0[one], l1[one]
        fprime = (3 * (m0 * m0 % q) - 2 * (c2[one] * (m0 * m1 % q) % q) + c1[one] * (m1 * m1 % q)) % q
        chi = _pow(np.stack([fprime, (x[one] * m1 + m0) % q, m1]), (q - 1) >> 1, q)
        square = chi[1] * chi[2] % q == 1  # x - e1 is a nonzero square
        cyclic = chi[0] == 1
        case[one] = np.where(cyclic, np.where(square, BSGS_4, CYCLIC_EVEN), Z2)
        odd[one] = ~cyclic & square

    three = np.flatnonzero((h0 == 0) & (h1 == 0) & (h2 == 0))  # never at p = 2, where h = X^2 - X
    if three.size:
        q, xt, ct = p[three], x[three], c2[three]
        g1 = ((3 * xt + 2 * ct) % q * xt + c1[three]) % q
        u0, u1, u2 = _cubic_pow((q - 1) >> 1, (q, -fx[three] % q, g1, -(3 * xt + ct) % q))
        case[three] = np.where((u0 == 1) & (u1 == 0) & (u2 == 0), BSGS_4, SPLIT_EVEN)
    return case, odd


def _order_is_odd(p, x, y, a1, a2, a3, a4):
    """Whether (x, y) has odd order on each lane: _two_sylow settles most
    lanes, and _odd_by_bsgs the rest, with the cofactor their case gives."""
    lanes = (p, x, y, a1, a2, a3, a4)
    case, out = _two_sylow(*lanes)
    for code, d in _BSGS_COFACTOR.items():
        rest = np.flatnonzero(case == code)
        if rest.size:
            out[rest] = _odd_by_bsgs(*(a[rest] for a in lanes), d)
    return out


def _odd_by_bsgs(p, x, y, a1, a2, a3, a4, d):
    """Whether (x, y) has odd order on each lane, by its annihilator M, for
    a cofactor d of #E(F_p) on every lane.

    Its order divides M, so it is odd iff the odd part of M kills the
    point; an odd M settles the lane at once, and _kills tests the rest.
    """
    M = _annihilating_multiples(p, x, y, a1, a2, a3, a4, d)
    odd_part = M // (M & -M)
    even = np.flatnonzero(odd_part != M)
    out = np.ones(len(p), bool)
    if even.size:
        out[even] = _kills(odd_part[even], *(a[even] for a in (p, x, y, a1, a2, a3, a4)))
    return out


def _kills(k, p, x, y, a1, a2, a3, a4):
    """Whether k*(x, y) = O on each lane, for lane scalars k >= 1, by
    Montgomery's x-only ladder (Math. Comp. 48, 1987).

    Y = 2y + a1 x + a3 keeps x and turns the curve into
    Y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, where Q and -Q share x.  The ladder
    keeps R0 = nP and R1 = (n + 1)P as (X : Z), O at Z = 0, so R1 - R0 = P
    and every sum needs only x(P):
      sum:    Z' = (X0 Z1 - X1 Z0)^2 and X' = N(R0, R1) - x(P) Z', where
              N = (X0 Z1 + X1 Z0)(2 X0 X1 + b4 Z0 Z1) + Z0 Z1 (b2 X0 X1 + b6 Z0 Z1),
              since x(R0 + R1) + x(R0 - R1) = N/Z' and R0 - R1 = -P;
      double: Z' = N(R, R) and X' = X^4 - b4 X^2 Z^2 - 2 b6 X Z^3 - b8 Z^4.
    The additive form holds at x(P) = 0, where the product form
    x(R0 + R1) x(R0 - R1) does not, and the formulas are identities over Z,
    so p = 2 needs no other path.  The b_i come from a1..a4 and the point,
    whose a6 = y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x.  Every term stays
    below 2^63 for p <= LANE_PRIME_MAX.
    """
    a6 = (y * ((y + a1 * x + a3) % p) - x * (((x + a2) % p * x + a4) % p)) % p
    b2, b4 = (a1 * a1 + 4 * a2) % p, (a1 * a3 + 2 * a4) % p
    b6 = (a3 * a3 + 4 * a6) % p
    b8 = ((b2 * a6 - a1 * a3 % p * a4) + (a2 * (a3 * a3 % p) - a4 * a4)) % p
    tb6 = 2 * b6 % p

    def n_form(s, xx, zz):
        return (s * ((2 * xx + b4 * zz) % p) + zz * ((b2 * xx + b6 * zz) % p)) % p

    X0, Z0, X1, Z1 = np.ones_like(x), np.zeros_like(x), x, np.ones_like(x)
    for bit in range(int(k.max()).bit_length() - 1, -1, -1):
        on = (k >> bit) & 1 == 1
        A, B = X0 * Z1 % p, X1 * Z0 % p
        Zs = (A - B) * (A - B) % p
        Xs = (n_form((A + B) % p, X0 * X1 % p, Z0 * Z1 % p) - x * Zs) % p
        X, Z = np.where(on, X1, X0), np.where(on, Z1, Z0)  # R1 doubles where the bit is set
        XX, ZZ, XZ = X * X % p, Z * Z % p, X * Z % p
        Zd = n_form(2 * XZ % p, XX, ZZ)
        Xd = ((XX - b4 * ZZ) % p * XX - (tb6 * XZ + b8 * ZZ) % p * ZZ) % p
        X0, Z0, X1, Z1 = np.where(on, Xs, Xd), np.where(on, Zs, Zd), np.where(on, Xd, Xs), np.where(on, Zd, Zs)
    return Z0 == 0


def _lane_residues(v: int, q):
    """The integer v, of any size, mod each lane prime."""
    if -(1 << 63) <= v < 1 << 63:
        return v % q
    return (v % q.astype(object)).astype(np.int64)


def _prepare(c: Curve, pt: Point) -> tuple[tuple, int]:
    """The rational pair (c, pt) as (numerator, denominator) pairs of
    x, y, a1, a2, a3, a4, and an integer divisible exactly by the primes at
    which c has no good reduction (a coefficient denominator or the
    discriminant vanishes).  A singular curve raises SingularCurveError."""
    if c.p is not None:
        raise ValueError("the sweep expects a curve over the rationals")
    if pt is None or not c.contains(pt):
        raise ValueError("the swept point must be an affine point on the curve")
    disc = c.discriminant()
    if disc == 0:
        raise curves.SingularCurveError("the swept curve is singular: every prime has bad reduction")
    values = (Fraction(pt[0]), Fraction(pt[1]), c.a1, c.a2, c.a3, c.a4)
    bad = math.prod(v.denominator for v in (c.a1, c.a2, c.a3, c.a4, c.a6))
    return tuple((v.numerator, v.denominator) for v in values), bad * disc.numerator


def _decide(ps, parts: tuple, bad: int, overrides: dict):
    """Whether the prepared point has odd order mod each prime of ps, as a
    bool array: overrides first, then False at bad primes, then True where
    the point reduces to O, and the lanes decide the rest."""
    ps = np.asarray(ps, np.int64)
    out = np.zeros(len(ps), bool)
    todo = np.ones(len(ps), bool)
    for p, hit in overrides.items():
        at = ps == p
        out[at], todo[at] = hit, False
    todo &= _lane_residues(bad, ps) != 0
    at_o = todo & (_lane_residues(parts[0][1], ps) == 0)
    out[at_o] = True
    lanes = np.flatnonzero(todo & ~at_o)
    if lanes.size:
        q = ps[lanes]
        values = []
        for n, d in parts:
            r = _lane_residues(n, q)
            values.append(r if d == 1 else r * _pow(_lane_residues(d, q), q - 2, q) % q)
        out[lanes] = _order_is_odd(q, *values)
    return out


_ECHO_PAIR = _prepare(curves.CURVE_E, curves.POINT_P)


def divides_some_term(p: int) -> bool:
    """Whether the prime p divides some sequence term.

    Bad-reduction primes are hard-wired from the residue cycles; every other
    prime goes through the odd-order criterion for P mod p.  Any other
    integer raises ValueError.
    """
    _check_lane_bound(p)
    if p < 2 or not all(p % q for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not a prime")
    return bool(_decide([p], *_ECHO_PAIR, _BAD_DIVIDES)[0])


# ---------------------------------------------------------------------------
# full group orders: the oracle the tests check the lanes against


def group_order(c: Curve) -> int:
    """#E(F_p) for a non-singular curve over a prime field p <= EXHAUSTIVE_MAX.

    p = 2 enumerates the four affine pairs.  Otherwise completing the square
    gives (2y + a1 x + a3)^2 = g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6, so each x
    has 1 + chi(g(x)) points over it: #E = 1 + #{g = 0} + 2 #{g a nonzero
    square}, counted over every x in F_p at once.
    """
    p = c.p
    if p is None:
        raise ValueError("group_order needs a curve over F_p")
    if p > EXHAUSTIVE_MAX:
        raise ValueError(f"group_order counts points exhaustively, so p must be <= {EXHAUSTIVE_MAX}")
    if c.is_singular():
        raise curves.SingularCurveError(f"singular reduction mod {p}")
    if p == 2:
        return 1 + sum(c.contains((x, y)) for x in range(2) for y in range(2))
    b2, b4, b6, _ = c.b_invariants()
    x = np.arange(p, dtype=np.int64)
    g = (((4 * x + b2) * x + 2 * b4) % p * x + b6) % p  # every term below 5p^2 < 2^47
    is_square = np.zeros(p, bool)
    is_square[x[: (p + 1) // 2] ** 2 % p] = True
    return 1 + int(np.count_nonzero(g == 0)) + 2 * int(np.count_nonzero(is_square[g] & (g != 0)))


# ---------------------------------------------------------------------------
# sweep records, checkpoints, the multi-process driver


def ratio_str(num: int, den: int) -> str:
    """num/den rendered to 9 decimal places, ties to even."""
    with localcontext() as ctx:
        ctx.prec = 50
        return str((Decimal(num) / Decimal(den)).quantize(Decimal("0.000000001"), ROUND_HALF_EVEN))


@dataclass(frozen=True)
class SweepRecord:
    x: int
    pi_prime: int
    pi: int

    @property
    def ratio(self) -> str:
        return ratio_str(self.pi_prime, self.pi)


@dataclass(frozen=True)
class Checkpoint:
    """Sweep progress: the line ``last_prime pi pi_prime``, then one line
    ``x pi_prime pi`` per row emitted so far."""

    last_prime: int
    pi_so_far: int
    pi_prime_so_far: int
    rows: tuple[SweepRecord, ...] = ()

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{self.last_prime} {self.pi_so_far} {self.pi_prime_so_far}\n")
            for r in self.rows:
                fh.write(f"{r.x} {r.pi_prime} {r.pi}\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        with open(path) as fh:
            lines = [line.split() for line in fh]
        if not lines or any(len(parts) != 3 for parts in lines):
            raise ValueError(f"malformed checkpoint {path!r}: expected lines of three integers")
        head, *rows = [[int(v) for v in parts] for parts in lines]
        return cls(*head, tuple(SweepRecord(*r) for r in rows))


def _sweep_chunk(args):
    """Count primes and odd-order hits in [lo, hi), split at the given cuts."""
    lo, hi, cuts, parts, bad, overrides = args
    ps = primes_in_range(lo, hi, primes_up_to(math.isqrt(hi) + 1))
    hits = np.concatenate(([0], np.cumsum(_decide(ps, parts, bad, overrides))))
    cuts = list(cuts) + [hi]
    return [(cut, n, int(hits[n])) for cut, n in zip(cuts, np.searchsorted(ps, cuts, side="right").tolist())]


def _serve(conn, tasks):
    """A sweep child: run tasks in order and send each result down conn,
    or the exception that stopped it with its formatted traceback."""
    try:
        for task in tasks:
            conn.send(_sweep_chunk(task))
    except Exception as exc:
        conn.send((exc, traceback.format_exc()))
    finally:
        conn.close()


def _run_sweep(
    x_max: int,
    threads: Optional[int],
    checkpoint_path: Optional[str],
    pair: tuple[tuple, int],
    overrides: dict,
) -> list[SweepRecord]:
    if x_max < 10:
        raise ValueError("x_max must be >= 10")
    _check_lane_bound(x_max)
    if threads is None:
        threads = os.cpu_count() or 1
    elif threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    boundaries = []
    b = 10
    while b <= x_max:
        boundaries.append(b)
        b *= 10
    if boundaries[-1] != x_max:
        boundaries.append(x_max)

    start, pi, prime_hits = 2, 0, 0
    records: list[SweepRecord] = []
    if checkpoint_path and os.path.exists(checkpoint_path):
        ck = Checkpoint.load(checkpoint_path)
        if ck.last_prime >= x_max:
            raise ValueError(
                f"checkpoint {checkpoint_path!r} already covers primes to {ck.last_prime} >= {x_max}"
            )
        start, pi, prime_hits = ck.last_prime + 1, ck.pi_so_far, ck.pi_prime_so_far
        records = [r for r in ck.rows if r.x in boundaries]

    # tasks of equal width, at most SEGMENT_SIZE, whatever the thread count
    width = x_max + 1 - start
    n_tasks = -(-width // SEGMENT_SIZE)
    cuts = [start + i * width // n_tasks for i in range(n_tasks + 1)]
    tasks = [
        (lo, hi, [b for b in boundaries if lo <= b < hi], *pair, overrides) for lo, hi in zip(cuts, cuts[1:])
    ]

    # the caller is worker 0 and child k runs tasks k, k + w, k + 2w, ...;
    # the caller takes the results in task order, so the records and the
    # checkpoint do not depend on the worker count
    workers = min(threads, len(tasks))
    pipes, children = [], []
    try:
        for k in range(1, workers):
            recv, send = multiprocessing.Pipe(duplex=False)
            pipes.append(recv)
            child = multiprocessing.Process(target=_serve, args=(send, tasks[k::workers]))
            child.start()
            children.append(child)
            send.close()
        for i, task in enumerate(tasks):
            lo, hi = task[:2]
            k = i % workers
            if k == 0:
                results = _sweep_chunk(task)
            else:
                try:
                    results = pipes[k - 1].recv()
                except EOFError:
                    raise RuntimeError(f"sweep worker {k} exited before counting [{lo}, {hi})") from None
                if isinstance(results, tuple):
                    exc, trace = results
                    raise exc from RuntimeError(f"in sweep worker {k}:\n{trace}")
            for cut, dpi, dhits in results[:-1]:
                records.append(SweepRecord(cut, prime_hits + dhits, pi + dpi))
            pi += results[-1][1]
            prime_hits += results[-1][2]
            if checkpoint_path:
                Checkpoint(hi - 1, pi, prime_hits, tuple(records)).save(checkpoint_path)
    finally:
        for child in children:
            child.terminate()
            child.join()
        for pipe in pipes:
            pipe.close()
    return records


def sweep(
    x_max: int, threads: Optional[int] = None, checkpoint_path: Optional[str] = None
) -> list[SweepRecord]:
    """Sweep all primes <= x_max for sequence divisibility.

    Returns one record per decade boundary plus x_max, each carrying the
    exact counts pi_prime (primes dividing some term) and pi.  This is the
    odd-order scan of (E, P) with the bad primes 3 and 5 settled by the
    residue cycles.
    """
    return _run_sweep(x_max, threads, checkpoint_path, _ECHO_PAIR, _BAD_DIVIDES)


def density_scan(
    c: Curve, pt: Point, x_max: int, threads: Optional[int] = None
) -> list[SweepRecord]:
    """Odd-order density sweep for an arbitrary rational curve/point pair.

    Counts primes of good reduction at which pt reduces to a point of odd
    order; primes where the pair does not reduce are skipped (they still
    count toward pi).
    """
    return _run_sweep(x_max, threads, None, _prepare(c, pt), {})
