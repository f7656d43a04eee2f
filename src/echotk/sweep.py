"""Prime sweep: which primes divide a term of the sequence.

For a good-reduction prime p the question reduces to whether the base
point has odd order in E(F_p); the bad primes are settled by the residue
cycles (3 divides a term, 5 never does).  A baby-step giant-step search
over the Hasse interval finds a positive multiple m of the point's order,
and the order is odd exactly when the odd part of m already kills the
point; #E(F_p) itself is never needed.  The search runs on numpy int64
lanes, one prime per lane, for a whole sweep segment at once: projective
coordinates, one batched inversion per lane, and sorted keys to match
baby and giant steps.  Lanes hold primes up to LANE_PRIME_MAX = 2^31 - 1;
larger primes raise ValueError.  The same engine scans any rational
curve/point pair.  The sweep is parallel over contiguous prime ranges and
its counts are exact and independent of the worker count.

group_order counts #E(F_p) by an exhaustive character sum over every x in
F_p, for p up to EXHAUSTIVE_MAX.  It shares no code with the lanes, so the
tests and the benchmark probes check the lanes against it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
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
# the odd-order decision: one baby-step giant-step search over int64 lanes
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


def _inverse(z, p):
    """z^(p-2) mod p on every lane: the inverse of z != 0 (Fermat)."""
    e, r = p - 2, np.ones_like(z)
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
    inv = _inverse(acc, p)
    for i in range(len(Z) - 1, 0, -1):
        buf[i] = inv * buf[i - 1] % p
        inv = inv * (Z[i] + (Z[i] == 0)) % p
    buf[0] = inv
    for row in (X, Y):
        row *= buf
        row %= p


def _shape(T_max: int) -> tuple[int, int]:
    """Baby and giant counts (s - 1, n) covering Hasse intervals of radius
    up to T_max: the giant windows [c_i - s + 1, c_i + s - 1] tile it."""
    s = math.isqrt(T_max) + 1
    return s - 1, 1 + max(0, -(-(2 * T_max - 2 * s + 2) // (2 * s - 1)))


def _bsgs(p, x, y, a1, a2, a3, a4):
    """One batch of _annihilating_multiples: babies j*P for 1 <= j < s, and
    giants at the centres c_i = p + 1 - T + (s - 1) + i(2s - 1), T = isqrt(4p).

    A baby at O gives M = j, a giant at O gives M = c_i, and a giant with the
    x of baby j is +-j*P, with y picking the sign, so M = c_i -+ j.  Every M
    is at least p + 1 - T > 0, or j >= 1.
    """
    c = (p, a1, a2, a3, a4)
    width = len(p)
    T = np.array([math.isqrt(4 * q) for q in p.tolist()], np.int64)
    n_baby, n_giant = _shape(int(T.max()))
    stride = 2 * n_baby + 1
    P = (x, y, np.ones_like(x))

    baby = np.empty((3, n_baby, width), np.int64)
    baby[:, 0] = P
    if n_baby > 1:
        baby[:, 1] = _double(P, c)
    for j in range(2, n_baby):
        baby[:, j] = _add(baby[:, j - 1], P, c)
    step = _add(_double(baby[:, -1], c), P, c)  # (2s - 1) P
    centre = p + 1 - T + n_baby
    giant = np.empty((3, n_giant, width), np.int64)
    giant[:, 0] = _mul(centre, P, c)
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
    return M


def _annihilating_multiples(p, x, y, a1, a2, a3, a4):
    """One M > 0 per lane with M*(x, y) = O, searched in batches of lanes
    that store at most LANE_POINT_BUDGET baby and giant points."""
    n_baby, n_giant = _shape(math.isqrt(4 * int(p.max())))
    width = max(1, LANE_POINT_BUDGET // (n_baby + n_giant))
    lanes = (p, x, y, a1, a2, a3, a4)
    return np.concatenate([_bsgs(*(a[lo:lo + width] for a in lanes)) for lo in range(0, len(p), width)])


def _order_is_odd(p, x, y, a1, a2, a3, a4):
    """Whether (x, y) has odd order on each lane.

    Its order divides the annihilator M, so it is odd iff the odd part of M
    kills the point; an odd M settles the lane at once.
    """
    M = _annihilating_multiples(p, x, y, a1, a2, a3, a4)
    odd_part = M // (M & -M)
    even = np.flatnonzero(odd_part != M)
    out = np.ones(len(p), bool)
    if even.size:
        c = tuple(a[even] for a in (p, a1, a2, a3, a4))
        out[even] = _mul(odd_part[even], (x[even], y[even], np.ones_like(even)), c)[2] == 0
    return out


def _lane_residues(v: int, q):
    """The integer v, of any size, mod each lane prime."""
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


def _decide(ps: list[int], parts: tuple, bad: int, overrides: dict):
    """Whether the prepared point has odd order mod each prime of ps, as a
    bool array; False at bad primes unless overrides settles them."""
    out = np.zeros(len(ps), bool)
    lanes = []
    for i, p in enumerate(ps):
        if p in overrides:
            out[i] = overrides[p]
        elif bad % p == 0:
            continue
        elif parts[0][1] % p == 0:
            out[i] = True  # the point reduces to O
        else:
            lanes.append(i)
    if lanes:
        q = np.array([ps[i] for i in lanes], np.int64)
        values = []
        for n, d in parts:
            r = _lane_residues(n, q)
            values.append(r if d == 1 else r * _inverse(_lane_residues(d, q), q) % q)
        out[lanes] = _order_is_odd(q, *values)
    return out


_ECHO_PAIR = _prepare(curves.CURVE_E, curves.POINT_P)


def divides_some_term(p: int) -> bool:
    """Whether the prime p divides some sequence term.

    Bad-reduction primes are hard-wired from the residue cycles; every other
    prime goes through the odd-order criterion for P mod p.
    """
    _check_lane_bound(p)
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
# sweep records, checkpoints, parallel driver


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
    ps = list(primes_in_range(lo, hi, primes_up_to(math.isqrt(hi) + 1)))
    hits = np.concatenate(([0], np.cumsum(_decide(ps, parts, bad, overrides))))
    cuts = list(cuts) + [hi]
    return [(cut, n, int(hits[n])) for cut, n in zip(cuts, np.searchsorted(ps, cuts, side="right").tolist())]


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

    tasks = []
    for lo in range(start, x_max + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, x_max + 1)
        tasks.append((lo, hi, [b for b in boundaries if lo <= b < hi], *pair, overrides))

    def consume(task, results):
        nonlocal pi, prime_hits
        hi = task[1]
        for cut, dpi, dhits in results[:-1]:
            records.append(SweepRecord(cut, prime_hits + dhits, pi + dpi))
        pi += results[-1][1]
        prime_hits += results[-1][2]
        if checkpoint_path:
            Checkpoint(hi - 1, pi, prime_hits, tuple(records)).save(checkpoint_path)

    # a fork-started pool forks every worker at the first submit, so never ask for idle ones
    workers = min(threads, len(tasks))
    if workers <= 1:
        for task in tasks:
            consume(task, _sweep_chunk(task))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for task, results in zip(tasks, pool.map(_sweep_chunk, tasks, chunksize=1)):
                consume(task, results)
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
