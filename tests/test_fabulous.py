import math
import random
from fractions import Fraction

import pytest

from echotk import curves, fabulous, polyops
from echotk.curves import CURVE_E, POINT_P


def _random_good_pairs(count, seed, den_bound=4):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, den_bound))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, den_bound))
        if b == 0 or curves.curve_from_pair(a, b).discriminant() == 0:
            continue
        out.append((a, b))
    return out


def test_coefficient_spot_values():
    assert fabulous.fabulous_poly(1, 1).c3 == -768
    assert fabulous.fabulous_poly(0, 0).coeffs == (0, 0, 0, 0, 1)
    # frozen full coefficient vectors, independently recomputed from the
    # coset-sum construction at 120-digit precision
    assert [int(c) for c in fabulous.fabulous_poly(1, 1).coeffs] == [
        -721158144, -12582912, 190464, -768, 1,
    ]
    assert [int(c) for c in fabulous.fabulous_poly(2, 1).coeffs] == [
        -313524224, -16777216, 198656, -768, 1,
    ]
    assert [int(c) for c in fabulous.fabulous_poly(1, -1).coeffs] == [
        3894673408, -46137344, 256000, -768, 1,
    ]


def test_coefficient_structure():
    # the middle coefficients repackage the curve discriminant
    for a, b in _random_good_pairs(6, 2):
        f = fabulous.fabulous_poly(a, b)
        disc = curves.curve_from_pair(a, b).discriminant()
        assert f.c2 == 2048 * (disc + 108 * b**4)
        assert f.c1 == -(2**20) * b**2 * (disc + 27 * b**4)


def test_parametrize_designated_root():
    values = [1, 2, 3, 5, 7, 11, 12, 100, -1, -2, -9, -17, -100,
              Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3), Fraction(22, 7),
              Fraction(25, 3), Fraction(-35, 2), Fraction(1, 10)]
    assert len(values) == 20
    for t in values:
        a, b = fabulous.parametrize(t)
        assert polyops.poly_eval(fabulous.fabulous_poly(a, b).coeffs, -96 * b * b) == 0, t


def test_parametrize_excluded_values():
    with pytest.raises(fabulous.ExcludedParameterError):
        fabulous.parametrize(25)
    with pytest.raises(fabulous.ExcludedParameterError):
        fabulous.parametrize(-35)


def test_parametrize_t1_explicit():
    assert fabulous.parametrize(1) == (Fraction(-27, 4), Fraction(-729, 64))


def test_parametrized_pairs_avoid_degeneracies():
    for t in (1, 2, 3):
        a, b = fabulous.parametrize(t)
        assert fabulous.bad_locus_g(a, b) != 0
        assert curves.curve_from_pair(a, b).discriminant() != 0


def test_bad_locus_examples():
    assert fabulous.bad_locus_g(0, 0) == 0
    assert fabulous.bad_locus_g(1, 0) == 1


def test_rational_roots_of_quartic():
    assert fabulous.fabulous_poly(0, 0).rational_roots() == [0]
    a, b = fabulous.parametrize(1)
    roots = fabulous.fabulous_poly(a, b).rational_roots()
    assert -96 * b * b in roots


def test_certificate_of_base_pair():
    a, b, _ = curves.tate_normal_form(CURVE_E, POINT_P)
    assert (a, b) == (Fraction(6, 5), Fraction(3, 25))
    cert = fabulous.certify_kinetic_conditions(a, b)
    assert cert.all_true
    assert fabulous.fabulous_poly(a, b).rational_roots() == [Fraction(9504, 3125)]


def test_certificate_negative_controls():
    # discriminant a rational square
    cert_sq = fabulous.certify_kinetic_conditions(1, -5)
    assert not cert_sq.delta_nonsquare
    # rational 2-torsion
    cert_tor = fabulous.certify_kinetic_conditions(-8, -6)
    assert not cert_tor.no_rational_2_torsion


def test_certificate_halving_negative_control():
    # mark 2P: the point P maps to a rational halving point of the origin,
    # so the halving quartic acquires a rational root
    two_p = curves.scalar_mul(2, POINT_P, CURVE_E)
    a, b, tmap = curves.tate_normal_form(CURVE_E, two_p)
    cert = fabulous.certify_kinetic_conditions(a, b)
    assert not cert.halving_poly_irreducible
    half = tmap.apply(POINT_P)
    quartic = fabulous.halving_quartic(curves.curve_from_pair(a, b))
    assert polyops.poly_eval(quartic, half[0]) == 0


def test_certificate_singular_error():
    with pytest.raises(curves.SingularCurveError):
        fabulous.certify_kinetic_conditions(1, 0)


def test_certificate_weight_rescaling_invariance():
    rng = random.Random(9)
    base = (Fraction(6, 5), Fraction(3, 25))
    cert0 = fabulous.certify_kinetic_conditions(*base)
    for _ in range(5):
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        cert = fabulous.certify_kinetic_conditions(base[0] * s, base[1] * s * s)
        assert cert == cert0, s


def test_control_pair_search():
    pair = fabulous.find_control_pair()
    assert pair == (Fraction(-1), Fraction(-1))
    cert = fabulous.certify_kinetic_conditions(*pair)
    assert cert.all_true
    assert fabulous.fabulous_poly(*pair).rational_roots() == []


def test_family_report_without_sweep():
    report = fabulous.family_report(1)
    assert report.certificate.all_true
    assert report.a == Fraction(-27, 4)
    assert -96 * report.b**2 in report.fabulous_roots
    assert report.empirical_density is None
    payload = report.as_json_dict()
    assert payload["certificate_all_true"] is True
    assert payload["a"] == "-27/4"


def test_family_members_beyond_t1_carry_the_designated_root():
    for t in (2, 3, -3, 7, Fraction(1, 2)):
        report = fabulous.family_report(t)
        assert -96 * report.b**2 in report.fabulous_roots, t


def test_family_member_t2_certificate():
    # -Delta is a rational square at t = 2, so that one flag is False
    report = fabulous.family_report(2)
    assert report.certificate.as_dict() == {
        "delta_nonsquare": True,
        "two_delta_nonsquare": True,
        "neg_delta_nonsquare": False,
        "neg_two_delta_nonsquare": True,
        "no_rational_2_torsion": True,
        "j_equation_no_root": True,
        "halving_poly_irreducible": True,
    }
    neg_disc = -curves.curve_from_pair(report.a, report.b).discriminant()
    assert neg_disc > 0
    for part in (neg_disc.numerator, neg_disc.denominator):
        assert math.isqrt(part) ** 2 == part


def test_t_minus_11_rational_half_normal_form():
    # (0, 0) on E_{-11} is 2R for a rational R; the normal form of (E_{-11}, R)
    # moves R to (0, 0) and the old origin to twice the new one
    e11 = curves.curve_from_pair(*fabulous.parametrize(-11))
    origin = (Fraction(0), Fraction(0))
    half = (Fraction(25947, 8), Fraction(23326353, 32))
    assert e11.contains(half)
    assert curves.scalar_mul(2, half, e11) == origin
    a, b, tmap = curves.tate_normal_form(e11, half)
    assert (a, b) == (0, Fraction(27, 2))
    target = curves.curve_from_pair(a, b)
    assert tmap.apply(half) == origin
    assert tmap.apply(origin) == curves.scalar_mul(2, origin, target)
    assert fabulous.certify_kinetic_conditions(a, b).as_dict() == {
        "delta_nonsquare": True,
        "two_delta_nonsquare": True,
        "neg_delta_nonsquare": True,
        "neg_two_delta_nonsquare": True,
        "no_rational_2_torsion": True,
        "j_equation_no_root": False,
        "halving_poly_irreducible": True,
    }


def test_family_report_excluded_t():
    with pytest.raises(fabulous.ExcludedParameterError):
        fabulous.family_report(25)


def test_family_report_with_small_sweep():
    report = fabulous.family_report(1, sweep_x=2000, threads=1)
    assert report.primes == 303  # pi(2000)
    assert 0.3 < report.empirical_density < 0.7
