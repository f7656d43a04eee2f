import random
from fractions import Fraction

import pytest

from echotk import curves
from echotk.curves import CURVE_E, POINT_P


def test_small_multiples_of_p():
    assert curves.add(POINT_P, POINT_P, CURVE_E) == (1, 1)
    assert curves.scalar_mul(3, POINT_P, CURVE_E) == (-1, 2)
    assert curves.scalar_mul(5, POINT_P, CURVE_E) == (Fraction(1, 4), Fraction(-19, 8))


def test_identity_and_inverse():
    assert curves.add(POINT_P, None, CURVE_E) == POINT_P
    assert curves.negate(POINT_P, CURVE_E) == (4, -8)
    assert curves.add(POINT_P, curves.negate(POINT_P, CURVE_E), CURVE_E) is None
    assert curves.scalar_mul(0, POINT_P, CURVE_E) is None


def test_discriminant_values():
    assert CURVE_E.discriminant() == -6075  # -3^5 * 5^2
    assert curves.Curve(0, 0, 0, 0, 0).discriminant() == 0  # y^2 = x^3
    assert curves.curve_from_pair(3, 0).discriminant() == 0
    with pytest.raises(curves.SingularCurveError):
        curves.Curve(0, 0, 0, 0, 0).j_invariant()


def test_group_law_sanity_over_q():
    rng = random.Random(7)
    pts = curves.random_rational_points(102, rng)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        assert curves.add(a, b, CURVE_E) == curves.add(b, a, CURVE_E)
        lhs = curves.add(curves.add(a, b, CURVE_E), c, CURVE_E)
        rhs = curves.add(a, curves.add(b, c, CURVE_E), CURVE_E)
        assert lhs == rhs
        assert curves.add(a, curves.negate(a, CURVE_E), CURVE_E) is None


def test_group_law_sanity_over_fp():
    p = 1009
    cp, good = curves.reduce_mod_p(CURVE_E, p)
    assert good
    rng = random.Random(11)
    base = curves.reduce_point_mod_p(POINT_P, p)
    pts = [curves.scalar_mul(rng.randrange(1, 400), base, cp) for _ in range(102)]
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        assert curves.add(a, b, cp) == curves.add(b, a, cp)
        assert curves.add(curves.add(a, b, cp), c, cp) == curves.add(a, curves.add(b, c, cp), cp)
    for pt in pts[:20]:
        assert cp.contains(pt)


def test_reduce_mod_p_good_and_bad():
    _, good3 = curves.reduce_mod_p(CURVE_E, 3)
    _, good5 = curves.reduce_mod_p(CURVE_E, 5)
    _, good7 = curves.reduce_mod_p(CURVE_E, 7)
    assert (good3, good5, good7) == (False, False, True)


def test_reduce_mod_p_denominator_error():
    c = curves.Curve(0, 0, 1, Fraction(1, 5), 0)
    with pytest.raises(curves.NonIntegralModelError):
        curves.reduce_mod_p(c, 5)


def test_composite_modulus_inversion_error():
    c = curves.Curve(0, 0, 1, -3, 4, p=15)
    # chord with x2 - x1 = 3, a zero divisor mod 15
    with pytest.raises(ValueError, match="not invertible"):
        curves.add((4, 7), (7, 1), c)


def test_odd_multiple_examples():
    om0 = curves.odd_multiple_coords(0)
    assert (om0.x_num, om0.y_num, om0.denom_base) == (4, 7, 1)
    om2 = curves.odd_multiple_coords(2)
    assert om2.as_point() == (Fraction(1, 4), Fraction(-19, 8))
    om10 = curves.odd_multiple_coords(10)
    assert om10.as_point() == curves.scalar_mul(21, POINT_P, CURVE_E)


def test_tate_normal_form_of_base_pair():
    a, b, tmap = curves.tate_normal_form(CURVE_E, POINT_P)
    assert (a, b) == (Fraction(6, 5), Fraction(3, 25))
    target = curves.curve_from_pair(a, b)
    assert tmap.apply(POINT_P) == (0, 0)
    for k in range(1, 9):
        img = tmap.apply(curves.scalar_mul(k, POINT_P, CURVE_E))
        assert target.contains(img), k
    assert target.j_invariant() == CURVE_E.j_invariant()


def _tate_pairs():
    """(E, P), (E, 2P) and 20 seeded random (curve, point) pairs, a6 solved so
    that the point lies on the curve; singular curves and points of order 2
    or 3 are skipped."""
    pairs = [(CURVE_E, POINT_P), (CURVE_E, curves.scalar_mul(2, POINT_P, CURVE_E))]
    rng = random.Random(29)
    while len(pairs) < 22:
        a1, a2, a3, a4, x, y = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6))
        a6 = y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x
        c, pt = curves.Curve(a1, a2, a3, a4, a6), (x, y)
        if not c.is_singular() and curves.scalar_mul(2, pt, c) and curves.scalar_mul(3, pt, c):
            pairs.append((c, pt))
    return pairs


def test_tate_map_moves_coefficients_points_and_the_group_law():
    for c, pt in _tate_pairs():
        a, b, tmap = curves.tate_normal_form(c, pt)
        target = curves.curve_from_pair(a, b)
        assert tmap.curve(c) == target, (c, pt)
        assert tmap.apply(pt) == (0, 0)
        points = [curves.scalar_mul(n, pt, c) for n in (1, 2, 3, -1)]
        for q in points:
            assert target.contains(tmap.apply(q)), (c, pt, q)
        for q in points:
            for r in points:
                moved = curves.add(tmap.apply(q), tmap.apply(r), target)
                assert tmap.apply(curves.add(q, r, c)) == moved, (c, pt, q, r)


def test_tate_normal_form_idempotent():
    a, b, _ = curves.tate_normal_form(CURVE_E, POINT_P)
    c = curves.curve_from_pair(a, b)
    a2, b2, _ = curves.tate_normal_form(c, (Fraction(0), Fraction(0)))
    assert (a2, b2) == (a, b)


def test_tate_normal_form_rejects_small_points():
    two_torsion_curve = curves.Curve(0, 0, 0, -1, 0)  # y^2 = x^3 - x
    with pytest.raises(curves.TateNormalFormError):
        curves.tate_normal_form(two_torsion_curve, (Fraction(1), Fraction(0)))
    three_torsion_curve = curves.Curve(0, 0, 1, 0, 0)  # y^2 + y = x^3, (0,0) of order 3
    with pytest.raises(curves.TateNormalFormError):
        curves.tate_normal_form(three_torsion_curve, (Fraction(0), Fraction(0)))


def test_tate_output_shape():
    a, b, _ = curves.tate_normal_form(CURVE_E, POINT_P)
    c = curves.curve_from_pair(a, b)
    assert c.a2 == c.a3 == b and c.a4 == 0 and c.a6 == 0


def test_fp_group_law_commutes_with_reduction():
    # reduction mod a good prime is a homomorphism: reduce(n*P over Q) must
    # equal n*reduce(P) computed by the F_p group law, which also takes n*P
    # itself, with its b_n^2 and b_n^3 denominators, and reduces it first
    for p in (7, 97, 101, 1009):
        cp, _ = curves.reduce_mod_p(CURVE_E, p)
        base = curves.reduce_point_mod_p(POINT_P, p)
        acc_q = None
        acc_p = None
        for n in range(1, 26):
            acc_q = curves.add(acc_q, POINT_P, CURVE_E)
            acc_p = curves.add(acc_p, base, cp)
            want = curves.reduce_point_mod_p(acc_q, p)
            assert acc_p == want, (p, n)
            assert curves.scalar_mul(n, base, cp) == want, (p, n)
            if want is None:
                continue
            assert cp.contains(acc_q), (p, n)
            twice = curves.reduce_point_mod_p(curves.add(acc_q, acc_q, CURVE_E), p)
            assert curves.add(acc_q, acc_q, cp) == twice, (p, n)
            assert curves.scalar_mul(-2, acc_q, cp) == curves.negate(twice, cp), (p, n)
    assert curves.Curve(Fraction(1, 2), 0, 1, -3, 4, p=7).a1 == 4
    # P has order #E(F_7) = 11 mod 7, so 7 divides the denominators of 11P
    cp7, _ = curves.reduce_mod_p(CURVE_E, 7)
    p11 = curves.scalar_mul(11, POINT_P, CURVE_E)
    assert curves.reduce_point_mod_p(p11, 7) is None
    for call in (
        lambda: curves.Curve(0, 0, 1, Fraction(-3, 7), 4, p=7),
        lambda: cp7.contains(p11),
        lambda: curves.add(p11, POINT_P, cp7),
        lambda: curves.scalar_mul(2, p11, cp7),
    ):
        with pytest.raises(curves.NonIntegralModelError):
            call()


def test_tate_normal_form_rejects_infinity_and_off_curve():
    with pytest.raises(ValueError):
        curves.tate_normal_form(CURVE_E, None)
    with pytest.raises(ValueError):
        curves.tate_normal_form(CURVE_E, (Fraction(1), Fraction(0)))  # not on E


@pytest.mark.parametrize("call, message", [
    (lambda: curves.odd_multiple_coords(-1), "n must be >= 0"),
    (lambda: curves.tate_normal_form(curves.reduce_mod_p(CURVE_E, 101)[0], (4, 7)), "over the rationals"),
    (lambda: curves.reduce_mod_p(curves.reduce_mod_p(CURVE_E, 101)[0], 103), "already over a prime field"),
], ids=["negative_odd_multiple", "normal_form_over_fp", "reduce_an_fp_curve"])
def test_curves_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
