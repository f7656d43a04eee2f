"""Prime sweep: which primes divide a term of the sequence.

For a good-reduction prime p the question reduces to whether the base
point has odd order in E(F_p).  The bad primes are settled by the residue
cycles (3 divides a term, 5 never does), and p = 2 by the exact group law:
#E(F_2) <= 5, so the point has odd order iff 15 kills it.  Those answers
belong to the prepared (curve, point) pair.  Every other prime is odd and
goes to numpy uint64 lanes, one prime per lane, for a whole sweep segment
at once.  A lane holds the point's x and the b2, b4, b6 of the 2-division
cubic 4f(X) = 4X^3 + b2 X^2 + 2 b4 X + b6, the roots of f being the x of
the 2-torsion points.  _prepare scales each pair once, exactly, to an
integral model by curves.TateMap(0, 0, 0, 1/m), m the lcm of the
denominators of x and a1..a6, so the lanes read residues of the ints
x' = m^2 x and b_i' = m^i b_i and invert nothing.  No lane prime divides
m, since such a prime divides a coefficient denominator (bad reduction)
or that of x (the point reduces to O), and both are settled first; so
every lane keeps an isomorphic model, and x' - e' = m^2 (x - e) moves no
case.  First the 2-descent map on f: a point of odd order
lies in 2E(F_p) and is not 2-torsion, so x - e is a nonzero square for
every root e of f in F_p.  One power u = Y^((p-1)/2) mod g(Y) = -f(x - Y),
whose roots are the x - e, shows both the roots, through
gcd(g, Y u^2 - Y), and which x - e are squares.  If f has no root,
#E(F_p) is odd and so is the point's order.  If f has one root e1 and
f'(e1) is a non-residue, the 2-Sylow subgroup is Z/2 and the point has
odd order iff x - e1 is a nonzero square.  If f'(e1) is a square, or f
has three roots, 4 | #E(F_p), and the order is even unless every x - e is
a nonzero square.  That decides about 83% of E's primes, close to
1/3 + 1/4 + 1/8 + 1/8 = 5/6.  On the rest the cubic proves 4 | #E(F_p),
and a baby-step giant-step search on 4P over a quarter of the Hasse
interval, with its giants at multiples of its stride, finds two numbers
c - j and c + j, four times one of which is a multiple of the point's
order; the order is odd exactly when the odd part of one of them
already kills the point, which a Montgomery ladder tests.  The search
and the ladder share one x-only group law on (X : Z); the search adds
one batched inversion per lane and sorted keys to match baby and giant
steps.  Lanes hold primes up to LANE_PRIME_MAX = 2^31 - 1, the bound of
the lane rule stated below; larger primes raise ValueError.  The same
engine scans any rational curve/point pair.
The sweep cuts its primes into contiguous ranges of equal width, at most
SEGMENT_SIZE, and deals them round-robin to `threads` processes: the
calling process is worker 0 and starts the others with os.fork, each of
which pickles its counts down its own os.pipe, and the caller takes them
in range order.  The counts are exact and independent of the worker
count.

group_order counts #E(F_p) by an exhaustive character sum over every x in
F_p, for p up to EXHAUSTIVE_MAX.  It shares no code with the lanes, so the
tests and the benchmark probes check the lanes against it.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import curves, seq
from .curves import Curve, Point
from .polyops import primes_in_range, primes_up_to

SEGMENT_SIZE = 1 << 16
EXHAUSTIVE_MAX = 1 << 22  # group_order's largest p: a few int64 arrays of length p


class AmbiguousOrderError(RuntimeError):
    """A lane's baby-step giant-step search found no multiple of its point's order."""


# ---------------------------------------------------------------------------
# the odd-order decision: the 2-division rule, then a baby-step giant-step
# search over uint64 lanes
#
# A lane is an odd prime p, the x of an affine point, and the b2, b4, b6 of
# 4f(X) = 4X^3 + b2 X^2 + 2 b4 X + b6, all reduced mod p; lanes may repeat a
# prime.  Residues are uint64 and reduced only where needed, by one rule:
# every lane sum is at most four products a b with 0 <= a, b <= p, so it is
# below 4p^2 < 2^64 for p <= LANE_PRIME_MAX = 2^31 - 1.  No term is
# negative: a residue r is subtracted as p - r, and one product t as
# p^2 - t.  Lane scalars (exponents, multiples of a point, the search's
# interval) only index bits and rows, and may be int64.
#
# The search and the odd-part test share one x-only law (Montgomery, Math.
# Comp. 48, 1987; Brier and Joye, PKC 2002).  Y = 2y + a1 x + a3 keeps x and
# turns the curve into Y^2 = 4f(x), where R and -R share x, so a point is a
# pair (X : Z) of lane arrays with O at Z = 0, and b8 = (b2 b6 - b4^2)/4:
#   sum:    x(R + S) + x(R - S) = N(R, S)/Z'', where
#           Z'' = (X_R Z_S - X_S Z_R)^2 and
#           N = (X_R Z_S + X_S Z_R)(2 X_R X_S + b4 Z_R Z_S) + Z_R Z_S (b2 X_R X_S + b6 Z_R Z_S);
#   double: 2R = (X^4 - b4 X^2 Z^2 - 2 b6 X Z^3 - b8 Z^4 : N(R, R)).
# The additive form holds at x = 0, where the product form
# x(R + S) x(R - S) does not.

LANE_PRIME_MAX = (1 << 31) - 1


def _check_lane_bound(p: int) -> None:
    if p > LANE_PRIME_MAX:
        raise ValueError(f"primes above {LANE_PRIME_MAX} exceed the uint64 lane bound (4p^2 must stay below 2^64)")


def _law(p, b2, b4, b6):
    """The x-only law's constants (p, b2, b4, b6, b8) on every lane."""
    inv2 = (p + 1) >> 1
    return p, b2, b4, b6, (b2 * b6 + p * p - b4 * b4) % p * (inv2 * inv2 % p) % p


def _n_form(s, xx, zz, b):
    """N(R, S), below 3p^2 and not reduced, from s = X_R Z_S + X_S Z_R < 2p,
    xx = X_R X_S and zz = Z_R Z_S."""
    p, b2, b4, b6, _ = b
    return s * ((2 * xx + b4 * zz) % p) + zz * ((b2 * xx + b6 * zz) % p)


def _xadd(R, S, D, b):
    """x(R + S) = (Zd N - Xd Z'' : Zd Z'') from R, S and D = (Xd : Zd) = R - S,
    where Zd = None stands for Zd = 1; exact unless D = O (an input at O
    gives the other, R = -S gives O)."""
    p = b[0]
    (X0, Z0), (X1, Z1), (Xd, Zd) = R, S, D
    A, B = X0 * Z1 % p, X1 * Z0 % p
    Zs = (A + p - B) ** 2 % p
    N = _n_form(A + B, X0 * X1 % p, Z0 * Z1 % p, b)
    if Zd is None:
        return (N + (p - Xd) * Zs) % p, Zs
    return (Zd * (N % p) + (p - Xd) * Zs) % p, Zd * Zs % p


def _xdbl(R, b):
    """x(2R), always exact: a 2-torsion point doubles to Z = 0."""
    p, _, b4, b6, b8 = b
    X, Z = R
    XX, ZZ, XZ = X * X % p, Z * Z % p, X * Z % p
    A, B = (XX + (p - b4) * ZZ) % p, (2 * (b6 * XZ) + b8 * ZZ) % p
    return (A * XX + (p - B) * ZZ) % p, _n_form(2 * XZ, XX, ZZ, b) % p


def _ladder(k, B, b):
    """(R0, R1) = (kB, (k + 1)B) on every lane, for lane scalars
    1 <= k < 2^63 and a base B = (X : Z) != O, Z = None standing for
    Z = 1; k may stack several rows of scalars over the same lanes.
    Montgomery's ladder keeps R1 - R0 = B, so every sum is exact; it swaps
    R0 and R1 where the bit differs from the last, and then doubles R0.
    On a lane whose B is O the outputs are junk."""
    X, Z = B
    X0, Z0 = np.ones_like(k, np.uint64), np.zeros_like(k, np.uint64)
    X1, Z1 = X, np.ones_like(X) if Z is None else Z
    last = False
    for bit in range(int(k.max()).bit_length() - 1, -1, -1):
        on = (k >> bit) & 1 == 1
        swap = on != last
        X0, X1, Z0, Z1 = np.where(swap, X1, X0), np.where(swap, X0, X1), np.where(swap, Z1, Z0), np.where(swap, Z0, Z1)
        (X1, Z1), (X0, Z0), last = _xadd((X0, Z0), (X1, Z1), B, b), _xdbl((X0, Z0), b), on
    return (np.where(last, X1, X0), np.where(last, Z1, Z0)), (np.where(last, X0, X1), np.where(last, Z0, Z1))


def _pow(z, e, p):
    """z^e mod p on every lane, for lane exponents e >= 0 (right-to-left
    binary).  z^(p-2) is the inverse of z != 0 (Fermat) and z^((p-1)/2)
    its Legendre symbol (Euler)."""
    r = np.ones_like(z)
    while e.any():
        r = np.where(e & 1 == 1, r * z % p, r)
        z = z * z % p
        e = e >> 1
    return r


def _normalize(rows, p):
    """Overwrite the X of each row (X, Z) of lane points by x = X/Z, with
    one inverse per lane (Montgomery's trick: down the rows X takes the
    product of the Z before it, and back up the inverse of the product
    through its own Z), in place.  Rows at O keep Z = 0 and get a junk x."""
    acc = np.ones_like(p)
    for x, z in rows:
        x *= acc
        x %= p
        acc = acc * (z + (z == 0)) % p
    inv = _pow(acc, p - 2, p)
    for x, z in reversed(rows):
        x *= inv
        x %= p
        inv = inv * (z + (z == 0)) % p


def _isqrt_4p(q):
    """isqrt(4q) on int64 lanes q <= LANE_PRIME_MAX: the floor of the float64
    square root is exact, as 4q < 2^33 is, and its root is correctly rounded."""
    return np.sqrt(4 * q).astype(np.int64)


def _bsgs(p, x, b2, b4, b6):
    """Two rows M0, M1 of positive int64 lane scalars, one of which kills
    Q = 4P for the point P with x(P) = x, on lanes where 4 | #E(F_p); so
    the order of P divides 4 M0 or 4 M1.  The search runs on Q over the
    quarter interval [lo, hi] = [ceil((p + 1 - T)/4), floor((p + 1 + T)/4)],
    T = isqrt(4p), which holds #E(F_p)/4.  Babies are j*Q for 1 <= j < s,
    and giants sit at the multiples c = m(2s - 1) of the stride, for
    m0 <= m < m0 + n_giant with m0 = max(1, (lo + s - 1) // (2s - 1)) per
    lane, so that the windows [c - s + 1, c + s - 1] tile every lane's
    interval up to hi, and the babies cover what lies below the first
    window.  Q comes from two xDBL, the babies from (j + 1)Q = jQ + Q with
    the difference (j - 1)Q, the step S = (2s - 1)Q = sQ + (s - 1)Q from one
    more baby and one xADD, the first two giants from one ladder
    (m0 S, (m0 + 1)S), and each later giant from the one before plus S,
    with the difference the giant two before.  One batched inversion per
    lane gives every baby and giant its x.

    A baby at O gives M = j, S at O gives M = 2s - 1, and a giant at O
    gives M = c, in both rows.  A giant with the x of baby j is
    cQ = +-jQ, so c - j kills Q for one sign and c + j for the other; the
    rows hold both, and c - j >= s > 0.  An xADD is exact until its
    difference is O, and the ladder until its base is, so the rows after a
    lane's first O may be junk: a lane takes M from its first baby at O,
    else from S at O, else from its first giant at O, else from any match.
    Every row stays below 2^30 for p <= LANE_PRIME_MAX.  All lanes are
    searched at once: at the lane bound a sweep chunk has about 500 of
    them with about 300 points each, two uint64 rows a point, about 2.4 MB.
    """
    b = _law(p, b2, b4, b6)
    width = len(p)
    q = p.astype(np.int64)  # the interval and the rows are lane scalars
    T = _isqrt_4p(q)
    lo, hi = -(-(q + 1 - T) // 4), (q + 1 + T) // 4
    s = max(2, math.isqrt(int((hi - lo).max()) // 2) + 1)
    stride = 2 * s - 1
    m0 = np.maximum(1, (lo + s - 1) // stride)
    n_giant = max(1, int((-(-(hi - s + 1) // stride) - m0).max()) + 1)
    Q = _xdbl(_xdbl((x, np.ones_like(x)), b), b)

    baby = np.empty((2, s, width), np.uint64)  # jQ for 1 <= j <= s; sQ only makes S
    baby[:, 0] = Q
    baby[:, 1] = _xdbl(Q, b)
    for j in range(2, s):
        baby[:, j] = _xadd(baby[:, j - 1], Q, baby[:, j - 2], b)
    S = _xadd(baby[:, s - 1], baby[:, s - 2], Q, b)
    baby = baby[:, : s - 1]
    giant = np.empty((2, n_giant, width), np.uint64)
    R0, R1 = _ladder(m0, S, b)
    giant[:, 0] = R0
    if n_giant > 1:
        giant[:, 1] = R1
    for i in range(2, n_giant):
        giant[:, i] = _xadd(giant[:, i - 1], S, giant[:, i - 2], b)
    _normalize([*zip(*baby), *zip(*giant)], p)

    # match on keys lane * key_width + x; a baby at O gets a key past every giant's
    key_width = int(p.max()) + 1
    offset = np.arange(width, dtype=np.uint64) * key_width
    keys = baby[0] + offset
    keys[baby[1] == 0] = width * key_width
    order = np.argsort(keys, axis=None)
    sorted_keys = keys.ravel()[order]
    giant_keys = (giant[0] + offset).ravel()
    pos = np.minimum(np.searchsorted(sorted_keys, giant_keys), sorted_keys.size - 1)
    found = np.flatnonzero((sorted_keys[pos] == giant_keys) & (giant[1] != 0).ravel())

    M = np.zeros((2, width), np.int64)
    i, lane = np.divmod(found, width)
    j = order[pos[found]] // width + 1
    c = (m0[lane] + i) * stride
    M[:, lane] = c - j, c + j
    at_o = giant[1] == 0
    M = np.where(at_o.any(axis=0), (m0 + at_o.argmax(axis=0)) * stride, M)
    M = np.where(S[1] == 0, stride, M)
    at_o = baby[1] == 0
    M = np.where(at_o.any(axis=0), at_o.argmax(axis=0) + 1, M)
    if not M.all():
        raise AmbiguousOrderError("no annihilator found on some lane")  # not reachable for prime p
    return M


# the per-lane cases of _two_sylow: four settle the lane, and BSGS_4 sends it
# to the search on 4P
NO_ROOT, Z2, CYCLIC_EVEN, SPLIT_EVEN, BSGS_4 = range(5)


def _cubic_step(r, on, c):
    """r^2, times Y on the lanes where on, in F_p[Y]/(g) for the monic cubic
    g = Y^3 + g2 Y^2 + g1 Y + g0 with c = (p, g0, g1, g2), 0 <= g_i <= p, r
    given and returned as the coefficients (r0, r1, r2) of 1, Y, Y^2.  With
    n_i = p - g_i, Y^3 = n2 Y^2 + n1 Y + n0 folds the square's c4 Y^4 and
    c3 Y^3 into (t0, t1, t2), and Y (t0, t1, t2) = (n0 t2, t0 + n1 t2, t1 + n2 t2)."""
    p, g0, g1, g2 = c
    n0, n1, n2 = p - g0, p - g1, p - g2
    r0, r1, r2 = r
    c4 = r2 * r2 % p
    c3 = (2 * (r1 * r2) + n2 * c4) % p  # c3 + n2 c4: Y^4 = n2 Y^3 + n1 Y^2 + n0 Y
    t2 = ((r1 * r1 + 2 * (r0 * r2)) % p + n1 * c4 + n2 * c3) % p
    t1 = (2 * (r0 * r1) + n0 * c4 + n1 * c3) % p
    t0 = r0 * r0 + n0 * c3
    return np.where(on, n0 * t2, t0) % p, np.where(on, t0 + n1 * t2, t1) % p, np.where(on, t1 + n2 * t2, t2) % p


def _cubic_pow(e, c):
    """Y^e in F_p[Y]/(g) on every lane, for lane exponents e >= 0 and g, c
    as in _cubic_step; left to right, one step per bit of e."""
    p = c[0]
    r = np.ones_like(p), np.zeros_like(p), np.zeros_like(p)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        r = _cubic_step(r, (e >> bit) & 1 == 1, c)
    return r


def _two_sylow(p, x, b2, b4, b6):
    """What the 2-division cubic shows on each lane, as two arrays: the case
    code, and on the lanes it settles (NO_ROOT, Z2, CYCLIC_EVEN, SPLIT_EVEN)
    whether the point P with x(P) = x has odd order.  BSGS_4 marks lanes
    where it proves 4 | #E(F_p) but not the parity of the order.  Every lane
    gets one of these five cases.

    The x of the 2-torsion points are the roots e of the monic
    f = X^3 + c2 X^2 + c1 X + c0 = (4X^3 + b2 X^2 + 2 b4 X + b6)/4, and the
    x - e those of the monic g(Y) = -f(x - Y) =
    Y^3 - (3x + c2) Y^2 + (3x^2 + 2 c2 x + c1) Y - f(x).  All is read off
    one power u = Y^((p-1)/2) mod g, which a root y of g in F_p maps to
    y^((p-1)/2): 1 iff y is a nonzero square.  The roots of g in F_p are
    those of gcd(g, h), h = Y u^2 - Y = Y^p - Y mod g; as the roots sum to
    -g2, there are 0, 1 or 3 of them, and 3 iff h = 0.  Otherwise take
    l = l1 Y + l0 in the ideal (g, h): h itself if h2 = 0, else the
    remainder of two pseudo-remainder steps, h2^2 g = (h2 Y + a2) h + l.
    A root of g in F_p is a root of l, so g has a root iff l1 != 0 and
    z = l1^3 g(-l0/l1) = 0.  If l1 = 0 then l0 != 0 and g has no root: with
    h2 = 0, h = l0 is a nonzero constant; with h2 != 0, l = 0 would make h
    divide h2^2 g, so g would have the two roots of h in F_p and with them
    the third, forcing h = 0.  Then z = -l0^3 != 0, so z != 0 marks exactly
    the lanes with no root.

    The rule is the 2-descent map (Miret, Moreno, Rio and Valls, Math.
    Comp. 74, 2005; Knapp, Elliptic Curves, Thm 4.2): for each root e,
    Q -> x(Q) - e is a homomorphism E(F_p) -> F_p^*/F_p^*2 (sending
    (e, .) to f'(e)) that kills 2E(F_p), and with one root it is
    injective on E(F_p)/2E(F_p).  A point of odd order lies in 2E(F_p),
    since 2 is invertible on its cyclic group, and is not 2-torsion, so
    every x - e is a nonzero square.  Where one is not, the order is even.
      No root: #E(F_p) is odd, and so is the order (NO_ROOT).
      One root e1, y1 = x - e1 = -l0/l1: x - e1 is a nonzero square iff
        l1^2 u(y1) = l1^2, and f'(e1) = g'(y1).  If f'(e1) is a non-residue,
        T = (e1, .) is not in 2E(F_p), so the 2-Sylow subgroup is Z/2 and
        the point has odd order iff it lies in 2E(F_p), iff x - e1 is a
        nonzero square (Z2).  Otherwise T is in 2E(F_p), the 2-Sylow
        subgroup is cyclic of order at least 4, and the order is even if
        x - e1 is not a nonzero square (CYCLIC_EVEN); otherwise BSGS_4.
      Three roots: E[2] lies in E(F_p), so 4 | #E(F_p), and by CRT
        F_p[Y]/(g) = F_p^3, so u = 1 iff every x - e_i is a nonzero square.
        If u != 1 the order is even (SPLIT_EVEN); otherwise BSGS_4.
    """
    inv2 = (p + 1) >> 1
    inv4 = inv2 * inv2 % p
    c2, c1, c0 = b2 * inv4 % p, b4 * inv2 % p, b6 * inv4 % p
    f = (((x + c2) * x % p + c1) * x + c0) % p
    g = p, p - f, ((3 * x + 2 * c2) % p * x + c1) % p, (4 * p - 3 * x - c2) % p
    u0, u1, u2 = u = _cubic_pow((p - 1) >> 1, g)

    # gcd(g, h) through l = l1 Y + l0: no root where z = l1^3 g(-l0/l1) != 0
    _, g0, g1, g2 = g
    h0, h1, h2 = _cubic_step(u, True, g)  # Y u^2 = Y^p
    h1 = (h1 + p - 1) % p
    a2, a1, a0 = (h2 * g2 + p - h1) % p, (h2 * g1 + p - h0) % p, h2 * g0 % p
    l1 = np.where(h2 == 0, h1, (h2 * a1 + (p - a2) * h1) % p)
    l0 = np.where(h2 == 0, h0, (h2 * a0 + (p - a2) * h0) % p)
    ll, lm, mm = l1 * l1 % p, l1 * l0 % p, l0 * l0 % p
    z = (ll * l1 % p * g0 + (p - l0) * ((ll * g1 + (p - lm) * g2 + mm) % p)) % p  # l = 0 on the three-root lanes

    # every x - e is a nonzero square: u(y1) = 1 with one root, u = 1 with three
    squares = np.where(l1 == 0, (u0 == 1) & (u1 == 0) & (u2 == 0), (u0 * ll + (p - u1) * lm + u2 * mm) % p == ll)
    one = np.flatnonzero((z == 0) & (l1 != 0))
    z2 = np.zeros(len(p), bool)  # one root e1, f'(e1) = g'(y1) a non-residue
    q = p[one]
    z2[one] = _pow(((3 * mm + g1 * ll) % p + 2 * (p - g2) * lm)[one] % q, (q - 1) >> 1, q) != 1
    even = np.where(l1 == 0, SPLIT_EVEN, CYCLIC_EVEN)
    case = np.where(z != 0, NO_ROOT, np.where(z2, Z2, np.where(squares, BSGS_4, even)))
    return case, (z != 0) | (z2 & squares)


def _order_is_odd(p, x, b2, b4, b6):
    """Whether the point P with x(P) = x has odd order on each lane.
    _two_sylow settles most lanes.  On its BSGS_4 lanes the order divides
    4 M0 or 4 M1, the rows of _bsgs, so it is odd iff the odd part of M0
    or of M1 kills P, which one _kills call on both rows tests on all of
    those lanes."""
    case, out = _two_sylow(p, x, b2, b4, b6)
    search = np.flatnonzero(case == BSGS_4)
    if search.size:
        lanes = tuple(a[search] for a in (p, x, b2, b4, b6))
        M = _bsgs(*lanes)
        out[search] = _kills(M // (M & -M), *lanes).any(axis=0)
    return out


def _kills(k, p, x, b2, b4, b6):
    """Whether kP = O on each lane, for the point P with x(P) = x and lane
    scalars 1 <= k < 2^63: whether the ladder's R0 = k(x : 1) has Z = 0.
    k may stack several rows of scalars, and the answer has one row each."""
    return _ladder(k, (x, None), _law(p, b2, b4, b6))[0][1] == 0


def _lane_residues(v: int, q):
    """The integer v, of any size and sign, mod each lane prime: Horner's
    rule over 30-bit limbs, most significant first, the top one signed, so
    each step (r << 30) + limb stays below 2^61 + 2^30 < 2^63."""
    limbs = []
    while not -(1 << 30) <= v < 1 << 30:
        limbs.append(v & (1 << 30) - 1)
        v >>= 30
    r = v % q
    for limb in reversed(limbs):
        r = ((r << 30) + limb) % q
    return r


def _prepare(c: Curve, pt: Point) -> tuple[tuple[int, int, int, int, int], int, dict]:
    """The rational pair (c, pt) as the ints (den x_P, x', b2', b4', b6'),
    an integer divisible exactly by the primes at which c has no good
    reduction (a coefficient denominator or the discriminant vanishes), and
    the pair's decided primes {p: odd order}.  x' = m^2 x_P and
    b_i' = m^i b_i are the integral model's, from TateMap(0, 0, 0, 1/m) with
    m the lcm of the denominators of x_P and a1..a6 (the module docstring
    says why no lane prime divides m).  The decided primes hold p = 2 where
    2 is good and pt is affine mod 2: #E(F_2) <= 5, so 60 = lcm(1..5) kills
    E(F_2), and pt has odd order iff 15 pt = O there.  A singular curve
    raises SingularCurveError."""
    if c.p is not None:
        raise ValueError("the sweep expects a curve over the rationals")
    if pt is None or not c.contains(pt):
        raise ValueError("the swept point must be an affine point on the curve")
    disc = c.discriminant()
    if disc == 0:
        raise curves.SingularCurveError("the swept curve is singular: every prime has bad reduction")
    x = Fraction(pt[0])
    coefficients = (c.a1, c.a2, c.a3, c.a4, c.a6)
    bad = math.prod(v.denominator for v in coefficients) * disc.numerator
    decided = {}
    if bad % 2 and x.denominator % 2:
        decided[2] = curves.scalar_mul(15, pt, Curve(*coefficients, p=2)) is None
    m = math.lcm(x.denominator, *(v.denominator for v in coefficients))
    tm = curves.TateMap(0, 0, 0, Fraction(1, m))
    model = (tm.apply(pt)[0], *tm.curve(c).b_invariants()[:3])
    assert all(v.denominator == 1 for v in model)
    return (x.denominator, *(v.numerator for v in model)), bad, decided


def _decide(ps, model: tuple, bad: int, decided: dict):
    """Whether the point of a prepared pair has odd order mod each prime of
    ps, as a bool array: the pair's decided primes first, then False at bad
    primes, then True where p divides den x_P, so that the point reduces
    to O, and the uint64 lanes decide the rest, which are odd primes, from
    x', b2', b4', b6' mod p."""
    ps = np.asarray(ps, np.int64)
    out = np.zeros(len(ps), bool)
    todo = np.ones(len(ps), bool)
    for p, hit in decided.items():
        at = ps == p
        out[at], todo[at] = hit, False
    todo &= _lane_residues(bad, ps) != 0
    den, *ints = model
    at_o = todo & (_lane_residues(den, ps) == 0)
    out[at_o] = True
    lanes = np.flatnonzero(todo & ~at_o)
    q = ps[lanes]
    # non-negative int64 reads unchanged as uint64, so the lanes take views
    values = [v.view(np.uint64) for v in (q, *(_lane_residues(v, q) for v in ints))]
    for i in range(0, lanes.size, SEGMENT_SIZE):  # bounds the search's memory on a wide call
        out[lanes[i : i + SEGMENT_SIZE]] = _order_is_odd(*(v[i : i + SEGMENT_SIZE] for v in values))
    return out


_ECHO_PAIR = _prepare(curves.CURVE_E, curves.POINT_P)
_ECHO_PAIR[2].update({q: seq.residue_cycle(q).contains_zero for q in (3, 5)})  # E's bad primes


def divides_some_term(p: int) -> bool:
    """Whether the prime p divides some sequence term.

    Bad-reduction primes are read off the residue cycles; every other
    prime goes through the odd-order criterion for P mod p.  Any other
    integer raises ValueError.
    """
    _check_lane_bound(p)
    if p < 2 or not all(p % q for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not a prime")
    return bool(_decide([p], *_ECHO_PAIR)[0])


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
    """num/den >= 0 rendered to 9 decimal places, rounded exactly, ties to even."""
    whole, frac = divmod(round(Fraction(num, den) * 10**9), 10**9)
    return f"{whole}.{frac:09d}"


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
    lo, hi, cuts, pair = args
    ps = primes_in_range(lo, hi, primes_up_to(math.isqrt(hi) + 1))
    hits = np.concatenate(([0], np.cumsum(_decide(ps, *pair))))
    cuts = list(cuts) + [hi]
    return [(cut, n, int(hits[n])) for cut, n in zip(cuts, np.searchsorted(ps, cuts, side="right").tolist())]


def _serve(fd, tasks):
    """A sweep child: run tasks in order and pickle each result to the pipe
    fd, or the exception that stopped it with its formatted traceback."""
    with open(fd, "wb") as out:
        try:
            for task in tasks:
                out.write(pickle.dumps(_sweep_chunk(task)))
                out.flush()
        except Exception as exc:
            out.write(pickle.dumps((exc, traceback.format_exc())))


def _run_sweep(
    x_max: int,
    threads: Optional[int],
    checkpoint_path: Optional[str],
    pair: tuple[tuple, int, dict],
) -> list[SweepRecord]:
    if x_max < 10:
        raise ValueError("x_max must be >= 10")
    _check_lane_bound(x_max)
    forks = hasattr(os, "fork")
    if threads is None:
        # the CPUs this process may run on, where the platform can say
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        threads = cpus if forks else 1
    elif threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    elif threads > 1 and not forks:
        raise ValueError(f"threads={threads} needs os.fork, which this platform lacks")
    boundaries = [10**e for e in range(1, len(str(x_max))) if 10**e < x_max] + [x_max]

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
    tasks = [(lo, hi, [b for b in boundaries if lo <= b < hi], pair) for lo, hi in zip(cuts, cuts[1:])]

    # the caller is worker 0 and child k runs tasks k, k + w, k + 2w, ...;
    # the caller takes the results in task order, so the records and the
    # checkpoint do not depend on the worker count
    workers = min(threads, len(tasks))
    pipes, children = [], []
    try:
        for k in range(1, workers):
            recv, send = os.pipe()
            pipes.append(open(recv, "rb"))
            try:
                pid = os.fork()
                if pid == 0:  # the child leaves only here, never into the caller's stack
                    try:
                        _serve(send, tasks[k::workers])
                    finally:
                        os._exit(0)
                children.append(pid)
            finally:
                os.close(send)
        for i, task in enumerate(tasks):
            lo, hi = task[:2]
            k = i % workers
            if k == 0:
                results = _sweep_chunk(task)
            else:
                try:
                    results = pickle.load(pipes[k - 1])
                except (EOFError, pickle.UnpicklingError):
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
        for pipe in pipes:
            pipe.close()
        for pid in children:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
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
    return _run_sweep(x_max, threads, checkpoint_path, _ECHO_PAIR)


def density_scan(
    c: Curve, pt: Point, x_max: int, threads: Optional[int] = None
) -> list[SweepRecord]:
    """Odd-order density sweep for an arbitrary rational curve/point pair.

    Counts primes of good reduction at which pt reduces to a point of odd
    order; primes where the pair does not reduce are skipped (they still
    count toward pi).
    """
    return _run_sweep(x_max, threads, None, _prepare(c, pt))
