"""Exact polynomial and integer helpers: prime sieves, rational roots,
quartic discriminants, and degree-4 irreducibility over the rationals.

Polynomials are coefficient sequences in ascending order.  Rational roots
come from exact integer root isolation on a monic integer transform, with
no factoring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np


def primes_up_to(bound: int) -> list[int]:
    """Eratosthenes sieve, inclusive."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, bound + 1, i)))
    return [i for i, fl in enumerate(sieve) if fl]


def primes_in_range(lo: int, hi: int, base: Sequence[int]) -> np.ndarray:
    """Primes in [lo, hi), ascending, as an int64 array, via a segmented
    sieve over the given base primes."""
    lo = max(lo, 2)
    if lo >= hi:
        return np.zeros(0, np.int64)
    seg = bytearray([1]) * (hi - lo)
    for q in base:
        if q * q >= hi:
            break
        start = max(q * q, ((lo + q - 1) // q) * q)
        seg[start - lo :: q] = bytearray(len(range(start, hi, q)))
    return np.flatnonzero(np.frombuffer(seg, dtype=np.uint8)).astype(np.int64) + lo


def poly_eval(coeffs: Sequence, x):
    """Horner evaluation; exact for int and Fraction inputs alike."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _integer_coeffs(coeffs: Sequence) -> list[int]:
    fr = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in fr)) if fr else 1
    ints = [int(c * scale) for c in fr]
    content = math.gcd(*(abs(c) for c in ints if c != 0))
    return [c // content for c in ints]


def _brackets(g: Sequence[int], cuts: Sequence[int]) -> list[int]:
    """Integer bisection in each gap lo < hi of the sorted cuts with
    hi - lo > 1 and g(lo) * g(hi) < 0.  g is monotone on every such gap, and
    the m returned for it has g's one root there in (m, m + 1]."""
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo > 1 and poly_eval(g, lo) * poly_eval(g, hi) < 0:
            neg = poly_eval(g, lo) < 0
            while hi - lo > 1:
                mid = (lo + hi) // 2
                v = poly_eval(g, mid)
                if v != 0 and (v < 0) == neg:
                    lo = mid
                else:
                    hi = mid
            out.append(lo)
    return out


def _cuts(g: Sequence[int]) -> list[int]:
    """Sorted integers C such that every real root of g lies strictly between
    min C and max C, and g is strictly monotone on [c, c'] for consecutive
    cuts c < c' with c' - c > 1.

    C holds +-B for a Cauchy bound B, all of cuts(g'), and the endpoints m,
    m + 1 around the sign change of g' in each long gap of cuts(g').  Induction:
    g' is monotone on such a gap, so it has at most one root there, and
    splitting the gap at that root leaves g' of one sign on each side;
    outside cuts(g') g' has no root at all.  The brackets alone are not
    enough: two critical points of g in one unit interval (m, m + 1) leave
    g' of one sign at every integer, and g is not monotone across them.
    g' is not monotone on (m, m + 1) then, so m and m + 1 are in cuts(g').
    """
    if len(g) == 1:
        return []  # nonzero constant
    bound = 1 + -(-max(abs(c) for c in g[:-1]) // abs(g[-1]))
    deriv = [i * c for i, c in enumerate(g)][1:]
    inner = _cuts(deriv)
    out = set(inner) | {-bound, bound}
    for m in _brackets(deriv, inner):
        out.update((m, m + 1))
    return sorted(out)


def rational_roots(coeffs: Sequence) -> list[Fraction]:
    """All rational roots of the polynomial, sorted, by exact integer root isolation.

    After x^m is stripped and denominators and content are cleared,
    F = sum a_i x^i has integer coefficients with a_0, a_n nonzero, and
    G(y) = a_n^(n-1) F(y / a_n) is monic with integer coefficients.  A
    rational root of F is y / a_n for a rational root y of G, and rational
    roots of a monic integer polynomial are integers.  _cuts(G) splits the
    line into gaps on which G is strictly monotone, so G has an integer
    root either at a cut or at the end of an integer bisection in a gap
    where G changes sign.  That is O(n^2 log B) exact integer evaluations
    for a Cauchy bound B, with no factoring.
    """
    fr = [Fraction(c) for c in coeffs]
    while fr and fr[-1] == 0:
        fr.pop()
    if not fr:
        raise ValueError("zero polynomial")
    shift = 0
    while fr[shift] == 0:
        shift += 1
    roots = [Fraction(0)] if shift else []
    ints = _integer_coeffs(fr[shift:])
    n, lead = len(ints) - 1, ints[-1]
    g = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    cuts = _cuts(g)
    ys = [c for c in cuts if poly_eval(g, c) == 0]
    ys += [m + 1 for m in _brackets(g, cuts) if poly_eval(g, m + 1) == 0]
    return sorted(roots + [Fraction(y, lead) for y in ys])


def quartic_discriminant(coeffs: Sequence) -> Fraction:
    """Discriminant of a*x^4 + b*x^3 + c*x^2 + d*x + e (ascending input),
    as (4 I^3 - J^2) / 27 for the invariants I and J of the quartic."""
    e, d, c, b, a = (Fraction(x) for x in coeffs)
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
    return (4 * i**3 - j * j) / 27


def is_rational_square(q) -> bool:
    """Exact: a rational is a square iff its reduced parts are both squares."""
    q = Fraction(q)
    if q < 0:
        return False
    for part in (q.numerator, q.denominator):
        r = math.isqrt(part)
        if r * r != part:
            return False
    return True


def _depress_quartic(coeffs: Sequence[Fraction]):
    e, d, c, b, a = coeffs
    b, c, d, e = b / a, c / a, d / a, e / a
    p = c - 3 * b**2 / 8
    q = d - b * c / 2 + b**3 / 8
    r = e - b * d / 4 + b**2 * c / 16 - 3 * b**4 / 256
    return p, q, r


def is_quartic_irreducible(coeffs: Sequence) -> bool:
    """Irreducibility over Q of a degree-4 polynomial.

    No rational root rules out linear factors.  The depressed form
    y^4 + p y^2 + q y + r splits as (y^2 + w y + m)(y^2 - w y + n) over Q
    iff its resolvent cubic z^3 + 2p z^2 + (p^2 - 4r) z - q^2, whose roots
    are the z = w^2, has a rational root z that is a nonzero square (m and
    n then follow linearly), or z = 0 with p^2 - 4r a square (w = 0, and m,
    n are the roots of X^2 - p X + r).
    """
    fr = [Fraction(c) for c in coeffs]
    if len(fr) != 5 or fr[4] == 0:
        raise ValueError("expected a degree-4 polynomial")
    if rational_roots(fr):
        return False
    p, q, r = _depress_quartic(fr)
    resolvent = [-(q**2), p**2 - 4 * r, 2 * p, Fraction(1)]
    return not any(is_rational_square(z or p**2 - 4 * r) for z in rational_roots(resolvent))
