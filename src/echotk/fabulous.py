"""The quartic certificate machinery for the curve family
y^2 + a*xy + b*y = x^3 + b*x^2 with marked point (0, 0).

A rational root of the monic quartic attached to (a, b) certifies that the
level-4 division-point action lands inside (a conjugate of) the index-4
subgroup; the four square-class tests, the 2-torsion test, the j-equation
test and the irreducibility of the halving quartic certify that the action
is as large as that subgroup.  A genus-0 parametrization produces pairs
(a(t), b(t)) on which the quartic has the designated root -96*b^2.

The quartic and the bad-locus polynomial are transcribed constants; the
discriminant identity disc(f) = -b^15 * disc(E_{a,b}) * g(a, b) and the
parametrized-root identity guard the transcription in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from . import curves, polyops, sweep
from .curves import Curve, SingularCurveError


@dataclass(frozen=True)
class FabulousQuartic:
    """Monic quartic x^4 + c3 x^3 + c2 x^2 + c1 x + c0 attached to (a, b)."""

    c3: Fraction
    c2: Fraction
    c1: Fraction
    c0: Fraction

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficient order, degree 0 first."""
        return (self.c0, self.c1, self.c2, self.c3, Fraction(1))

    def rational_roots(self) -> list[Fraction]:
        return polyops.rational_roots(self.coeffs)

    def discriminant(self) -> Fraction:
        return polyops.quartic_discriminant(self.coeffs)


def fabulous_poly(a, b) -> FabulousQuartic:
    a, b = Fraction(a), Fraction(b)
    c3 = -768 * b**2
    c2 = -2048 * (
        a**4 * b**3 - a**3 * b**3 + 8 * a**2 * b**4 - 36 * a * b**4 + 16 * b**5 - 81 * b**4
    )
    c1 = 1048576 * (
        a**4 * b**5 - a**3 * b**5 + 8 * a**2 * b**6 - 36 * a * b**6 + 16 * b**7
    )
    c0 = 262144 * (
        -(a**10) * b**5
        + a**9 * b**5
        - 16 * a**8 * b**6
        + 72 * a**7 * b**6
        - 96 * a**6 * b**7
        - 55 * a**6 * b**6
        + 512 * a**5 * b**7
        - 256 * a**4 * b**8
        - 1724 * a**4 * b**7
        + 896 * a**3 * b**8
        + 1272 * a**3 * b**7
        - 256 * a**2 * b**9
        - 3984 * a**2 * b**8
        - 256 * a * b**9
        + 18144 * a * b**8
        - 8256 * b**9
        - 8748 * b**8
    )
    return FabulousQuartic(c3, c2, c1, c0)


def bad_locus_g(a, b) -> Fraction:
    """Genus-0 locus where the quartic acquires repeated roots."""
    a, b = Fraction(a), Fraction(b)
    return (
        a**9
        + 16 * a**7 * b
        - 46 * a**6 * b
        + 96 * a**5 * b**2
        - 360 * a**4 * b**2
        + 256 * a**3 * b**3
        + 512 * a**3 * b**2
        - 672 * a**2 * b**3
        + 256 * a * b**4
        + 128 * b**4
    )


def discriminant_identity_check(a, b) -> bool:
    """Transcription guard: disc(f_{a,b}) = 2^62 * b^6 * disc(E_{a,b})^3 * g(a,b)^2.

    The identity was established symbolically from the transcribed
    coefficients and pins every coefficient of the quartic; in particular
    the vanishing locus of disc(f) is exactly {b = 0} u {singular} u
    {g = 0}, which is what the distinct-roots argument needs.
    """
    a, b = Fraction(a), Fraction(b)
    f = fabulous_poly(a, b)
    disc_curve = curves.curve_from_pair(a, b).discriminant()
    return f.discriminant() == 2**62 * b**6 * disc_curve**3 * bad_locus_g(a, b) ** 2


EXCLUDED_PARAMETERS = (Fraction(25), Fraction(-35))


class ExcludedParameterError(ValueError):
    """Parameter value forces b = 0, a singular curve."""


def parametrize(t) -> tuple[Fraction, Fraction]:
    """The point (a(t), b(t)) of the root locus f(-96 b^2, a, b) = 0.

    Both quadratic factors of the common denominator have no rational
    zeros (discriminants 304 and -288 are not squares), so every rational
    t outside the two excluded values is admissible.
    """
    t = Fraction(t)
    if t in EXCLUDED_PARAMETERS:
        raise ExcludedParameterError(f"t = {t} forces b = 0")
    q1 = t * t - 29 * t + 676
    q2 = t * t - 10 * t - 279
    q3 = t * t + 10 * t + 97
    p1 = (t - 25) * (t + 35) * q1 * q2**2 * q3
    p2 = (t - 25) * (t + 35) ** 2 * q1**3
    p3 = q2**4 * q3
    return p1 / p3, p2 / p3


def halving_quartic(c: Curve) -> tuple:
    """Monic quartic whose roots are the x-coordinates halving the origin.

    x(2Q) = (x^4 - b4 x^2 - 2 b6 x - b8) / (4x^3 + b2 x^2 + 2 b4 x + b6),
    so x(2Q) = 0 is the vanishing of the numerator.  Ascending order.
    """
    _, b4, b6, b8 = c.b_invariants()
    return (-b8, -2 * b6, -b4, Fraction(0), Fraction(1))


def two_torsion_cubic(c: Curve) -> tuple:
    """4x^3 + b2 x^2 + 2 b4 x + b6, vanishing on 2-torsion x-coordinates."""
    b2, b4, b6, _ = c.b_invariants()
    return (b6, 2 * b4, b2, Fraction(4))


@dataclass(frozen=True)
class KineticCertificate:
    delta_nonsquare: bool
    two_delta_nonsquare: bool
    neg_delta_nonsquare: bool
    neg_two_delta_nonsquare: bool
    no_rational_2_torsion: bool
    j_equation_no_root: bool
    halving_poly_irreducible: bool

    @property
    def all_true(self) -> bool:
        return all(self.as_dict().values())

    def as_dict(self) -> dict:
        return asdict(self)


def certify_kinetic_conditions(a, b) -> KineticCertificate:
    """Exact checks that the pair (E_{a,b}, (0,0)) has the largest image
    compatible with a rational quartic root: the matrix action is full
    (square classes of the discriminant, no rational 2-torsion, no rational
    point on j = -4t^3(t+8)) and the origin is not twice a rational point.
    """
    c = curves.curve_from_pair(a, b)
    disc = c.discriminant()
    if disc == 0:
        raise SingularCurveError(f"(a, b) = ({a}, {b}) gives a singular curve")
    j = c.j_invariant()
    # j = -4t^3(t+8)  <=>  4t^4 + 32t^3 + j = 0
    j_poly = (j, Fraction(0), Fraction(0), Fraction(32), Fraction(4))
    return KineticCertificate(
        delta_nonsquare=not polyops.is_rational_square(disc),
        two_delta_nonsquare=not polyops.is_rational_square(2 * disc),
        neg_delta_nonsquare=not polyops.is_rational_square(-disc),
        neg_two_delta_nonsquare=not polyops.is_rational_square(-2 * disc),
        no_rational_2_torsion=not polyops.rational_roots(two_torsion_cubic(c)),
        j_equation_no_root=not polyops.rational_roots(j_poly),
        halving_poly_irreducible=polyops.is_quartic_irreducible(halving_quartic(c)),
    )


@dataclass(frozen=True)
class FamilyReport:
    t: Optional[Fraction]
    a: Fraction
    b: Fraction
    fabulous_roots: tuple
    certificate: KineticCertificate
    sweep_x: Optional[int] = None
    odd_order_primes: Optional[int] = None
    primes: Optional[int] = None

    @property
    def empirical_density(self) -> Optional[float]:
        if not self.primes:
            return None
        return self.odd_order_primes / self.primes

    def as_json_dict(self) -> dict:
        out = {
            "t": None if self.t is None else str(self.t),
            "a": str(self.a),
            "b": str(self.b),
            "fabulous_roots": [str(r) for r in self.fabulous_roots],
            "certificate": self.certificate.as_dict(),
            "certificate_all_true": self.certificate.all_true,
        }
        if self.sweep_x is not None:
            out["sweep_x"] = self.sweep_x
            out["odd_order_primes"] = self.odd_order_primes
            out["primes"] = self.primes
            out["empirical_density"] = self.empirical_density
        return out


def report_for_pair(
    a,
    b,
    t: Optional[Fraction] = None,
    sweep_x: Optional[int] = None,
    threads: Optional[int] = None,
) -> FamilyReport:
    a, b = Fraction(a), Fraction(b)
    cert = certify_kinetic_conditions(a, b)
    roots = tuple(fabulous_poly(a, b).rational_roots())
    odd = pi = None
    if sweep_x is not None:
        c = curves.curve_from_pair(a, b)
        recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), sweep_x, threads=threads)
        odd, pi = recs[-1].pi_prime, recs[-1].pi
    return FamilyReport(t, a, b, roots, cert, sweep_x, odd, pi)


def family_report(
    t, sweep_x: Optional[int] = None, threads: Optional[int] = None
) -> FamilyReport:
    """Certificate bundle for the parametrized pair at t, with an optional
    empirical odd-order sweep of the origin on the resulting curve."""
    t = Fraction(t)
    a, b = parametrize(t)
    return report_for_pair(a, b, t=t, sweep_x=sweep_x, threads=threads)


def find_control_pair(search_bound: int = 6) -> tuple[Fraction, Fraction]:
    """Smallest integer pair (a, b) whose certificate is all-true while the
    attached quartic has no rational root (a full-image control)."""
    for height in range(1, search_bound + 1):
        for a in range(-height, height + 1):
            for b in range(-height, height + 1):
                if b == 0 or max(abs(a), abs(b)) != height:
                    continue
                c = curves.curve_from_pair(a, b)
                if c.discriminant() == 0:
                    continue
                cert = certify_kinetic_conditions(a, b)
                if not cert.all_true:
                    continue
                if not fabulous_poly(a, b).rational_roots():
                    return Fraction(a), Fraction(b)
    raise RuntimeError(f"no control pair within height {search_bound}")
