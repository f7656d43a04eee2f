"""Exact elliptic-curve arithmetic in long Weierstrass form.

Curves live either over the rationals (coefficients are Fractions) or over
a prime field F_p (coefficients are ints mod p).  One chord-tangent law
serves both fields: ``Curve._norm`` maps a value into the curve's field,
a rational n/d going to n * d^-1 mod p, and ``Curve._div`` divides there.
The prime sweep runs its own numpy lanes, and the tests check them against
this law.  Points are affine ``(x, y)`` pairs, with ``None`` standing for
the point at infinity.  The module also houses the bridge from the ECHO
sequence to odd multiples of the base point P = (4, 7) on
E: y^2 + y = x^3 - 3x + 4, and the normal-form reduction that moves an
arbitrary curve/point pair to y^2 + axy + by = x^3 + bx^2 with the point
at the origin.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import seq

FieldElem = Union[int, Fraction]
Point = Optional[tuple]  # (x, y) affine, or None for the point at infinity


class SingularCurveError(ValueError):
    """Operation needs a non-singular curve."""


class NonIntegralModelError(ValueError):
    """A coefficient or coordinate has a denominator divisible by p: no residue mod p."""


def _residue(v, p: int) -> int:
    """The rational v = n/d as n * d^-1 mod p."""
    v = Fraction(v)
    n, d, p = int(v.numerator), int(v.denominator), operator.index(p)  # numpy integers become ints
    if d % p == 0:
        raise NonIntegralModelError(f"{v} has a denominator divisible by {p}")
    return n * pow(d, -1, p) % p


@dataclass(frozen=True)
class Curve:
    """y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6 over Q (p=None) or F_p."""

    a1: FieldElem
    a2: FieldElem
    a3: FieldElem
    a4: FieldElem
    a6: FieldElem
    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            object.__setattr__(self, "p", operator.index(self.p))  # a numpy prime becomes an int
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, self._norm(getattr(self, name)))

    # the two field operations; nothing else here looks at p
    def _norm(self, v) -> FieldElem:
        p = self.p
        if p is None:
            return Fraction(v)
        return v % p if isinstance(v, int) else _residue(v, p)

    def _div(self, num: FieldElem, den: FieldElem) -> FieldElem:
        return num / den if self.p is None else num * pow(den, -1, self.p) % self.p

    # standard quantities b2, b4, b6, b8, c4, and the discriminant
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return tuple(self._norm(v) for v in (b2, b4, b6, b8))

    def discriminant(self) -> FieldElem:
        b2, b4, b6, b8 = self.b_invariants()
        return self._norm(-b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6)

    def c4(self) -> FieldElem:
        b2, b4, _, _ = self.b_invariants()
        return self._norm(b2 * b2 - 24 * b4)

    def j_invariant(self) -> FieldElem:
        disc = self.discriminant()
        if disc == 0:
            raise SingularCurveError("j-invariant of a singular curve")
        return self._div(self.c4() ** 3, disc)

    def is_singular(self) -> bool:
        return self.discriminant() == 0

    def contains(self, pt: Point) -> bool:
        if pt is None:
            return True
        x, y = _point(pt, self)
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x**3 + self.a2 * x * x + self.a4 * x + self.a6
        return self._norm(lhs - rhs) == 0


# The curve and point the sequence is tied to.
CURVE_E = Curve(0, 0, 1, -3, 4)
POINT_P: Point = (Fraction(4), Fraction(7))


def _point(pt: Point, c: Curve) -> Point:
    return None if pt is None else (c._norm(pt[0]), c._norm(pt[1]))


def negate(pt: Point, c: Curve) -> Point:
    if pt is None:
        return None
    x, y = _point(pt, c)
    return (x, c._norm(-y - c.a1 * x - c.a3))


def _add(pt1: Point, pt2: Point, c: Curve) -> Point:
    # the chord-tangent law on points already in the curve's field
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    (x1, y1), (x2, y2) = pt1, pt2
    a1, a2, a3 = c.a1, c.a2, c.a3
    if x1 == x2:
        # pt2 is pt1 or -pt1, so this is the tangent's slope denominator or 0
        den = c._norm(y1 + y2 + a1 * x1 + a3)
        if den == 0:
            return None
        lam = c._div(3 * x1 * x1 + 2 * a2 * x1 + c.a4 - a1 * y1, den)
    else:
        lam = c._div(y2 - y1, x2 - x1)
    x3 = c._norm(lam * lam + a1 * lam - a2 - x1 - x2)
    return (x3, c._norm(lam * (x1 - x3) - y1 - a1 * x3 - a3))


def add(pt1: Point, pt2: Point, c: Curve) -> Point:
    """Chord-tangent sum; the third intersection reflected by y -> -y-a1*x-a3."""
    return _add(_point(pt1, c), _point(pt2, c), c)


def scalar_mul(n: int, pt: Point, c: Curve) -> Point:
    """n*pt by double-and-add; n may be zero or negative."""
    run = negate(pt, c) if n < 0 else _point(pt, c)
    n = abs(n)
    acc: Point = None
    while n:
        if n & 1:
            acc = _add(acc, run, c)
        run = _add(run, run, c)
        n >>= 1
    return acc


def reduce_mod_p(c: Curve, p: int) -> tuple[Curve, bool]:
    """Reduce a rational curve mod p; good = (discriminant nonzero mod p)."""
    if c.p is not None:
        raise ValueError("curve is already over a prime field")
    cp = Curve(c.a1, c.a2, c.a3, c.a4, c.a6, p=p)
    return cp, cp.discriminant() != 0


def reduce_point_mod_p(pt: Point, p: int) -> Point:
    """Reduce an affine rational point mod p; a denominator divisible by p
    means the point reduces to the point at infinity."""
    try:
        return None if pt is None else tuple(_residue(v, p) for v in pt)
    except NonIntegralModelError:
        return None


@dataclass(frozen=True)
class OddMultiple:
    """Coordinates of (2n+1)*P on E as x = x_num/b_n^2, y = y_num/b_n^3."""

    n: int
    x_num: int
    y_num: int
    denom_base: int

    def as_point(self) -> Point:
        b = self.denom_base
        return (Fraction(self.x_num, b * b), Fraction(self.y_num, b**3))


def odd_multiple_coords(n: int) -> OddMultiple:
    """Closed-form coordinates of (2n+1)*P from sequence terms.

    x-numerator: 2*b_n^2 - b_{n-3}*b_{n+3}; the y-numerator carries the
    factor c_n c_{n+1}^2 (c_n = seq.coefficient(n)).  Both fractions arrive
    already reduced because consecutive terms are coprime.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    b = seq.term
    bn = b(n)
    g = 2 * bn * bn - b(n - 3) * b(n + 3)
    factor = seq.coefficient(n) * seq.coefficient(n + 1) ** 2
    f = bn**3 + factor * b(n - 1) ** 2 * b(n + 2)
    return OddMultiple(n, g, f, bn)


class TateNormalFormError(ValueError):
    """The marked point is too small (p, 2p or 3p is the identity)."""


@dataclass(frozen=True)
class TateMap:
    """The change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    ``curve`` gives the model in (x', y') of a curve in (x, y), and ``apply``
    maps points of the old model to the new one (Silverman, The Arithmetic
    of Elliptic Curves, Table 3.1).
    """

    r: Fraction
    s: Fraction
    t: Fraction
    u: Fraction

    def curve(self, c: Curve) -> Curve:
        r, s, t, u = self.r, self.s, self.t, self.u
        a1, a2, a3, a4, a6 = c.a1, c.a2, c.a3, c.a4, c.a6
        return Curve(
            (a1 + 2 * s) / u,
            (a2 - s * a1 + 3 * r - s * s) / u**2,
            (a3 + r * a1 + 2 * t) / u**3,
            (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
            (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
        )

    def apply(self, pt: Point) -> Point:
        if pt is None:
            return None
        x, y = Fraction(pt[0]), Fraction(pt[1])
        xs = x - self.r
        ys = y - self.s * xs - self.t
        u2 = self.u * self.u
        return (xs / u2, ys / (u2 * self.u))


def tate_normal_form(c: Curve, pt: Point) -> tuple[Fraction, Fraction, TateMap]:
    """Move (c, pt) to y^2 + a*xy + b*y = x^3 + b*x^2 with pt at (0, 0).

    Translate the point to the origin, shear away the linear x-term, then
    scale by u = a3/a2 to equalize a2 and a3.  A divisor vanishes exactly
    when pt has small order: a3 = 0 (a vertical tangent at the origin) means
    2*pt = O, and a2 = 0 after the shear (the origin a flex) means 3*pt = O.
    A singular curve raises SingularCurveError.
    """
    if c.is_singular():
        raise SingularCurveError("normal form needs a non-singular curve")
    if c.p is not None:
        raise ValueError("normal form is computed over the rationals")
    if pt is None or not c.contains(pt):
        raise ValueError("marked point must be an affine point on the curve")
    r, t = Fraction(pt[0]), Fraction(pt[1])
    c1 = TateMap(r, 0, t, 1).curve(c)
    if c1.a3 == 0:
        raise TateNormalFormError("a3 vanished after translation (2*pt = infinity)")
    s = c1.a4 / c1.a3
    c2 = TateMap(r, s, t, 1).curve(c)
    if c2.a2 == 0:
        raise TateNormalFormError("a2 vanished after shearing (3*pt = infinity)")
    tmap = TateMap(r, s, t, c2.a3 / c2.a2)
    c3 = tmap.curve(c)
    assert c3.a4 == 0 and c3.a6 == 0 and c3.a2 == c3.a3
    return c3.a1, c3.a2, tmap


def curve_from_pair(a, b) -> Curve:
    """The normal-form curve y^2 + a*xy + b*y = x^3 + b*x^2 with marked (0,0)."""
    return Curve(Fraction(a), Fraction(b), Fraction(b), 0, 0)


def random_rational_points(count: int, rng) -> list[Point]:
    """Sample points n*P on E for group-law checks (n small, nonzero)."""
    return [scalar_mul(rng.randrange(1, 40), POINT_P, CURVE_E) for _ in range(count)]
