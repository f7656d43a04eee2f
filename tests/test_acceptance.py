"""Acceptance gate: one test per criterion and one per row of the invariant
table that `verify` runs (`cli.INVARIANTS`), each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to watch the lines appear.
The sweep to 1e6 and the empirical density scans dominate the runtime
(about 13 s on two cores).
"""

import random
from fractions import Fraction

import pytest

from echotk import aglgroup, cli, curves, density, fabulous, polyops, sweep

TARGET_HK = Fraction(179, 336)
TARGET_FULL = Fraction(11, 21)


@pytest.mark.parametrize(
    "suite, label, check", cli.INVARIANTS, ids=[f"{suite}: {label}" for suite, label, _ in cli.INVARIANTS]
)
def test_invariant(suite, label, check):
    assert check()
    print(f"[PASS] {suite}: {label}")


@pytest.fixture(scope="module")
def sweep_1e6():
    return sweep.sweep(1_000_000)


def test_criterion_1_sweep_table(sweep_1e6):
    got = [(r.x, r.pi_prime, r.pi) for r in sweep_1e6]
    assert got == [
        (10, 3, 4),
        (100, 13, 25),
        (1000, 91, 168),
        (10_000, 636, 1229),
        (100_000, 5118, 9592),
        (1_000_000, 41856, 78498),
    ]
    assert [r.ratio for r in sweep_1e6] == [
        "0.750000000",
        "0.520000000",
        "0.541666667",
        "0.517493897",
        "0.533569641",
        "0.533211037",
    ]
    print("[PASS] criterion 1: prime-sweep table to 1e6 reproduced exactly")


def test_criterion_2_analytic_density():
    # the totals 179/336 and 11/21 are rows of the invariant table
    rep = density.analytic_density("hk")
    assert rep.per_case == {
        "det_odd": Fraction(1, 3),
        "det_2_mod_4": Fraction(1, 8),
        "det_0_odd_entry": Fraction(1, 24),
        "halved_invertible": Fraction(1, 32),
        "identity": Fraction(1, 672),
    }
    assert rep.case_counts == {
        "det_odd": 32,
        "det_2_mod_4": 12,
        "det_0_odd_entry": 12,
        "halved_invertible": 3,
        "identity": 1,
    }
    print("[PASS] criterion 2: exact per-case data of the analytic density 179/336")


def test_criterion_3_brute_analytic_equivalence():
    reports = {}
    per_class = {}
    for k in range(2, 6):
        reports[k], per_class[k] = density.brute_report(k, "hk")
    vals = [reports[k].total for k in range(2, 6)]
    assert all(x >= y for x, y in zip(vals, vals[1:])), vals
    assert abs(vals[-1] - TARGET_HK) < abs(vals[0] - TARGET_HK)
    checked = 0
    for k in range(2, 6):
        for m, frac in per_class[k].items():
            if density.resolved_at_level_2(m):
                assert frac == density.mu_case(m), (k, m)
                checked += 1
    assert checked == 4 * 56  # 32 + 24 resolved classes per level
    print(
        "[PASS] criterion 3: brute densities "
        + " >= ".join(str(v) for v in vals)
        + " -> 179/336; resolved classes match the closed forms exactly"
    )


@pytest.fixture(scope="module")
def classes2():
    return aglgroup.classify_kinetic(2)


@pytest.fixture(scope="module")
def classes3():
    return aglgroup.classify_kinetic(3)


def test_criterion_4_classification(classes2, classes3):
    # the class orders, H_3 as the level-3 representative and the coset
    # decomposition are rows of the invariant table
    assert classes2[1].representative.codes == aglgroup.h2().codes
    assert [c.members_found for c in classes2] == [1, 4]
    assert [c.members_found for c in classes3] == [1, 1]
    # the level-3 proper class reduces into the level-2 proper class
    h3 = classes3[1].representative.code_array
    assert set(aglgroup._repack(h3, 3, 2).tolist()) == aglgroup.h2().codes
    print(
        "[PASS] criterion 4: kinetic classification is {full, H_k} at levels 2 and 3, "
        "with H_3 reducing to H_2"
    )


def test_criterion_6_family_pipeline():
    t_values = [1, 2, 3, 5, 7, 11, 12, 100, -1, -2, -9, -17, -100,
                Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3), Fraction(22, 7),
                Fraction(25, 3), Fraction(-35, 2), Fraction(1, 10)]
    assert len(t_values) == 20
    for t in t_values:
        a, b = fabulous.parametrize(t)
        assert polyops.poly_eval(fabulous.fabulous_poly(a, b).coeffs, -96 * b * b) == 0, t
    # the base pair's normal form and certificate are rows of the invariant table
    print("[PASS] criterion 6: family pipeline exact (20 parametrized roots)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the exact discriminant of the quartic is 2^62 * b^6 * disc(E)^3 * g^2; "
        "the coarser form -b^15 * disc(E) * g checked here matches it only in "
        "vanishing locus, so this equality cannot hold identically"
    ),
)
def test_criterion_6_literal_discriminant_statement():
    rng = random.Random(3)
    n = 0
    while n < 10:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if b == 0 or curves.curve_from_pair(a, b).discriminant() == 0:
            continue
        f = fabulous.fabulous_poly(a, b)
        disc_curve = curves.curve_from_pair(a, b).discriminant()
        assert f.discriminant() == -(b**15) * disc_curve * fabulous.bad_locus_g(a, b)
        n += 1


def test_criterion_7_empirical_densities():
    member = fabulous.family_report(1, sweep_x=1_000_000)
    assert member.certificate.all_true
    assert (member.odd_order_primes, member.primes) == (41933, 78498)
    dens_member = member.empirical_density
    assert abs(dens_member - float(TARGET_HK)) < 0.02, dens_member

    control_pair = fabulous.find_control_pair()
    control = fabulous.report_for_pair(*control_pair, sweep_x=1_000_000)
    assert control.certificate.all_true
    assert control.fabulous_roots == ()
    assert (control.odd_order_primes, control.primes) == (41048, 78498)
    dens_control = control.empirical_density
    assert abs(dens_control - float(TARGET_FULL)) < 0.02, dens_control
    assert abs(dens_member - float(TARGET_HK)) < abs(dens_member - float(TARGET_FULL))
    assert abs(dens_control - float(TARGET_FULL)) < abs(dens_control - float(TARGET_HK))
    print(
        f"[PASS] criterion 7: member density {dens_member:.6f} ~ 179/336, "
        f"control density {dens_control:.6f} ~ 11/21 at 1e6"
    )


extended = pytest.mark.skipif(
    not __import__("os").environ.get("ECHO_EXTENDED"),
    reason="extended check (these seven and two in test_sweep.py take about 18 s on two cores): set ECHO_EXTENDED=1 to enable",
)


@extended
def test_extended_sweep_to_1e7():
    recs = sweep.sweep(10_000_000)
    assert (recs[-1].x, recs[-1].pi_prime, recs[-1].pi) == (10_000_000, 354158, 664579)
    assert recs[-1].ratio == "0.532905794"
    print("[PASS] extended: pi'(1e7) = 354158 of pi(1e7) = 664579")


@extended
def test_extended_t2_member_scan_to_1e6():
    c = curves.curve_from_pair(*fabulous.parametrize(2))
    recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), 1_000_000)
    assert (recs[-1].x, recs[-1].pi_prime, recs[-1].pi) == (1_000_000, 34606, 78498)
    print("[PASS] extended: the t = 2 member's scan gives 34606 of 78498 at 1e6")


@extended
def test_extended_control_pair_scan_to_1e6():
    c = curves.curve_from_pair(Fraction(-1), Fraction(-1))
    recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), 1_000_000)
    assert (recs[-1].x, recs[-1].pi_prime, recs[-1].pi) == (1_000_000, 41048, 78498)
    print("[PASS] extended: the control pair (-1, -1) scan gives 41048 of 78498 at 1e6")


@extended
def test_extended_somos4_scan_to_1e6():
    c = curves.Curve(0, 0, 1, -1, 0)  # (0, 0) on y^2 + y = x^3 - x
    recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), 1_000_000)
    assert (recs[-1].x, recs[-1].pi_prime, recs[-1].pi) == (1_000_000, 41080, 78498)
    print("[PASS] extended: the Somos-4 pair's scan gives 41080 of 78498 at 1e6")


@extended
@pytest.mark.parametrize("t, hits", [(-23, 20760), (-5, 20838), (-11, 62773)])
def test_extended_split_rule_member_scans_to_1e6(t, hits):
    # t = -23 and -5 are the members whose lanes the split rule settles
    # most: three roots on about 3/8 of their primes, and about a quarter
    # left to the BSGS; on t = -11 the 2-descent map settles no lane where
    # 4 | #E(F_p), so about 5/12 of its primes reach the BSGS
    c = curves.curve_from_pair(*fabulous.parametrize(t))
    recs = sweep.density_scan(c, (Fraction(0), Fraction(0)), 1_000_000)
    assert (recs[-1].x, recs[-1].pi_prime, recs[-1].pi) == (1_000_000, hits, 78498)
    print(f"[PASS] extended: the t = {t} member's scan gives {hits} of 78498 at 1e6")
