"""Prime sweep: which primes divide a term of the sequence.

For a good-reduction prime p the question reduces to whether the base
point has odd order in E(F_p); the bad primes are settled by the residue
cycles (3 divides a term, 5 never does).  One baby-step giant-step search
over the Hasse interval finds a positive multiple m of the point's order,
and the order is odd exactly when the odd part of m already kills the
point; #E(F_p) itself is never needed.  The same engine scans any rational
curve/point pair.  The sweep is parallel over contiguous prime ranges and
its counts are exact and independent of the worker count.  Full group
orders (group_order) remain as an oracle for the tests.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Optional

from . import curves
from .curves import Curve, Point, _fp_add, _fp_mul, _fp_neg
from .polyops import factorize, primes_in_range, primes_up_to

SEGMENT_SIZE = 1 << 16
EXHAUSTIVE_LIMIT = 100          # below this, group_order counts points by character sum
MAX_ORDER_SAMPLES = 12
EXHAUSTIVE_FALLBACK_CAP = 10_000_000

_BAD_DIVIDES = {3: True, 5: False}  # bad-reduction primes of E, settled by residue cycles


class AmbiguousOrderError(RuntimeError):
    """Group order not pinned down and the modulus is too large to enumerate."""


def default_threads() -> int:
    env = os.environ.get("ECHO_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# the odd-order decision


def _annihilator(pt, a1, a2, a3, a4, p) -> int:
    """Some positive M in the Hasse interval [p+1-2sqrt(p), p+1+2sqrt(p)] with M*pt = O.

    Every match is an exact point equality, so the M returned kills pt;
    M <= 0 matches occur only for tiny p and are skipped.
    """
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
        j = baby.get(_fp_neg(giant, a1, a3, p))  # (lo + i*s + j) * pt = O
        if j is not None and lo + i * s + j > 0:
            return lo + i * s + j
        j = baby.get(giant)  # (lo + i*s - j) * pt = O
        if j is not None and lo + i * s - j > 0:
            return lo + i * s - j
        giant = _fp_add(giant, s_pt, a1, a2, a3, a4, p)
    raise AmbiguousOrderError(f"no annihilator found mod {p}")  # not reachable for prime p


def _odd_order(pt, a1, a2, a3, a4, p) -> bool:
    """Whether the affine point pt of E(F_p) has odd order.

    ord(pt) divides the annihilator m, so it is odd iff it divides the odd
    part of m.
    """
    m = _annihilator(pt, a1, a2, a3, a4, p)
    return _fp_mul(m >> ((m & -m).bit_length() - 1), pt, a1, a2, a3, a4, p) is None


def _prepare(c: Curve, pt: Point) -> tuple[tuple, int]:
    """The rational pair (c, pt) as (numerator, denominator) pairs of
    x, y, a1, a2, a3, a4, and an integer divisible exactly by the primes at
    which c has no good reduction (a coefficient denominator or the
    discriminant vanishes)."""
    if c.p is not None:
        raise ValueError("the sweep expects a curve over the rationals")
    if pt is None or not c.contains(pt):
        raise ValueError("the swept point must be an affine point on the curve")
    values = (Fraction(pt[0]), Fraction(pt[1]), c.a1, c.a2, c.a3, c.a4)
    bad = math.prod(v.denominator for v in (c.a1, c.a2, c.a3, c.a4, c.a6))
    return tuple((v.numerator, v.denominator) for v in values), bad * c.discriminant().numerator


def _hit(p: int, parts: tuple, bad: int, overrides: dict) -> bool:
    """Whether the prepared point has odd order mod p; False at bad primes
    unless overrides settles p."""
    if p in overrides:
        return overrides[p]
    if bad % p == 0:
        return False
    if parts[0][1] % p == 0:
        return True  # the point reduces to O
    x, y, a1, a2, a3, a4 = (n * pow(d, -1, p) % p for n, d in parts)
    return _odd_order((x, y), a1, a2, a3, a4, p)


_ECHO_PAIR = _prepare(curves.CURVE_E, curves.POINT_P)


def has_odd_order(pt: Point, c: Curve) -> bool:
    """True iff pt has odd order in E(F_p) for the non-singular curve c over F_p."""
    if c.p is None:
        raise ValueError("has_odd_order needs a curve over F_p")
    if c.is_singular():
        raise curves.SingularCurveError(f"singular reduction mod {c.p}")
    pt = curves._fp_point(pt, c)
    return pt is None or _odd_order(pt, c.a1, c.a2, c.a3, c.a4, c.p)


def divides_some_term(p: int) -> bool:
    """Whether the prime p divides some sequence term.

    Bad-reduction primes are hard-wired from the residue cycles; every other
    prime goes through the odd-order criterion for P mod p.
    """
    return _hit(p, *_ECHO_PAIR, _BAD_DIVIDES)


# ---------------------------------------------------------------------------
# full group orders: the oracle the tests check point counting against


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks; a must be a quadratic residue mod odd prime p."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _quartic_rhs_coeffs(a1, a2, a3, a4, a6, p):
    # completing the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2 = (a1 * a1 + 4 * a2) % p
    b4 = (2 * a4 + a1 * a3) % p
    b6 = (a3 * a3 + 4 * a6) % p
    return b2, b4, b6


def _count_exhaustive(a1, a2, a3, a4, a6, p) -> int:
    if p == 2:
        n = 1
        for x in range(2):
            for y in range(2):
                if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    n += 1
        return n
    b2, b4, b6 = _quartic_rhs_coeffs(a1, a2, a3, a4, a6, p)
    # precompute the squares table once; membership gives the character
    squares = bytearray(p)
    for z in range((p + 1) // 2):
        squares[z * z % p] = 1
    n = p + 1
    for x in range(p):
        g = (4 * x * x * x + b2 * x * x + 2 * b4 * x + b6) % p
        if g == 0:
            continue
        n += 1 if squares[g] else -1
    return n


def _random_point(a1, a2, a3, a4, a6, p, rng) -> tuple[int, int]:
    b2, b4, b6 = _quartic_rhs_coeffs(a1, a2, a3, a4, a6, p)
    inv2 = pow(2, -1, p)
    while True:
        x = rng.randrange(p)
        g = (4 * x * x * x + b2 * x * x + 2 * b4 * x + b6) % p
        if _legendre(g, p) >= 0:
            z = _sqrt_mod(g, p)
            return (x, (z - a1 * x - a3) * inv2 % p)


def _order_from_multiple(pt, multiple, a1, a2, a3, a4, p) -> int:
    d = multiple
    for q, e in factorize(multiple).items():
        for _ in range(e):
            if _fp_mul(d // q, pt, a1, a2, a3, a4, p) is None:
                d //= q
            else:
                break
    return d


def _group_order_fp(a1, a2, a3, a4, a6, p) -> int:
    if p < EXHAUSTIVE_LIMIT:
        return _count_exhaustive(a1, a2, a3, a4, a6, p)
    T = math.isqrt(4 * p)
    lo, hi = p + 1 - T, p + 1 + T
    rng = random.Random(p)
    lcm = 1
    for _ in range(MAX_ORDER_SAMPLES):
        pt = _random_point(a1, a2, a3, a4, a6, p, rng)
        m = _annihilator(pt, a1, a2, a3, a4, p)
        d = _order_from_multiple(pt, m, a1, a2, a3, a4, p)
        lcm = lcm * d // math.gcd(lcm, d)
        first = ((lo + lcm - 1) // lcm) * lcm
        if first > hi:  # impossible: the true order is a multiple of lcm in range
            raise AmbiguousOrderError(f"no multiple of {lcm} in Hasse interval mod {p}")
        if first + lcm > hi:
            return first
    if p > EXHAUSTIVE_FALLBACK_CAP:
        raise AmbiguousOrderError(f"order ambiguous mod {p} after {MAX_ORDER_SAMPLES} samples")
    return _count_exhaustive(a1, a2, a3, a4, a6, p)


def group_order(c: Curve) -> int:
    """#E(F_p) for a non-singular curve over a prime field."""
    if c.p is None:
        raise ValueError("group_order needs a curve over F_p")
    if c.is_singular():
        raise curves.SingularCurveError(f"singular reduction mod {c.p}")
    return _group_order_fp(c.a1, c.a2, c.a3, c.a4, c.a6, c.p)


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
    base = primes_up_to(math.isqrt(hi) + 1)
    out = []
    pi = prime_hits = 0
    cut_iter = list(cuts) + [hi]
    idx = 0
    for p in primes_in_range(lo, hi, base):
        while p > cut_iter[idx]:
            out.append((cut_iter[idx], pi, prime_hits))
            idx += 1
        pi += 1
        prime_hits += _hit(p, parts, bad, overrides)
    while idx < len(cut_iter):
        out.append((cut_iter[idx], pi, prime_hits))
        idx += 1
    return out


def _run_sweep(
    x_max: int,
    threads: Optional[int],
    checkpoint_path: Optional[str],
    pair: tuple[tuple, int],
    overrides: dict,
) -> list[SweepRecord]:
    if x_max < 10:
        raise ValueError("x_max must be >= 10")
    if threads is None:
        threads = default_threads()
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

    if threads == 1:
        for task in tasks:
            consume(task, _sweep_chunk(task))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
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
