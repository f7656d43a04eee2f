import pytest

from echotk import seq


def test_seed_and_early_terms():
    assert [seq.term(n) for n in range(7)] == [1, 1, 2, 1, -3, -7, -17]
    assert seq.term(2) == 2
    assert seq.term(6) == -17


def test_term_nine_matches_forward_recurrence():
    # (b8*b6 - 3*b7^2) / b5 computed by hand from the seed
    b5, b6, b7, b8 = -7, -17, 2, 101
    assert seq.term(9) == (b8 * b6 - 3 * b7 * b7) // b5 == 247


def test_negative_indices_via_backward_recurrence():
    assert seq.term(-1) == -1
    assert seq.term(-2) == -1
    assert seq.term(-3) == -2


def test_alternate_definition_examples():
    assert seq.term_alt(0) == 1
    assert seq.term_alt(7) == 2  # (-b1*b6 + 5*b3*b4)/b0 = (17 - 15)/1
    assert seq.term_alt(8) == 101  # (-b2*b7 + 5*b4*b5)/b1 = (-4 + 105)/1


def test_h_vanishes():
    assert seq.h_value(1) == 0
    assert seq.h_value(3) == 0
    assert seq.h_value(17) == 0


def test_d_values():
    assert seq.d_value(1) == -14  # b1*b6 - b3*b4 = -17 + 3
    assert seq.d_value(4) == -707  # b4*b9 - b6*b7 = -741 + 34
    assert seq.d_value(0) == -9  # b0*b5 - b2*b3 = -7 - 2


def test_d_ratio_values_and_placement():
    assert seq.d_ratio(2) == 1
    assert seq.d_ratio(0) == 3
    assert seq.d_ratio(6) == 3


def test_terms_far_from_the_cache_without_recursion():
    # a fresh cache fills one index at a time from its nearer end, upward
    # and downward; a recursive fill overflowed the stack by n = 520
    for row in (seq.PRIMARY, seq.APPENDIX):
        fresh = seq.EchoSequence(row)
        assert fresh.term(600) == -fresh.term(-601), row.seed


@pytest.mark.parametrize(
    "row, module_term",
    [(seq.PRIMARY, seq.term), (seq.APPENDIX, seq.term_alt), (seq.SOMOS4, None)],
    ids=["primary", "appendix", "somos4"],
)
def test_one_step_fills_both_ways(row, module_term):
    # down then up and up then down give the same terms, which are the
    # module's memo where the row has one
    down_up, up_down = seq.EchoSequence(row), seq.EchoSequence(row)
    down_up.term(-300)
    down_up.term(300)
    up_down.term(300)
    up_down.term(-300)
    got = [down_up.term(n) for n in range(-300, 301)]
    assert got == [up_down.term(n) for n in range(-300, 301)]
    if module_term is not None:
        assert got == [module_term(n) for n in range(-300, 301)]


def test_somos4_row():
    # Somos-4 from four ones, and its mirror s_{-n} = s_{n+3} below the seed
    s = seq.EchoSequence(seq.SOMOS4)
    assert [s.term(n) for n in range(12)] == [1, 1, 1, 1, 2, 3, 7, 23, 59, 314, 1529, 8209]
    assert all(s.term(-n) == s.term(n + 3) for n in range(1, 200))


def test_coefficient_placement():
    assert seq.coefficient(0) == seq.coefficient(-3) == 3
    assert seq.coefficient(1) == seq.coefficient(2) == seq.coefficient(-1) == 1


def test_residue_cycle_mod1():
    rc = seq.residue_cycle(1)
    assert rc.period == 1
    assert rc.pattern == (0,)


def test_residue_cycle_detection_failure():
    with pytest.raises(seq.CycleDetectionError):
        seq.residue_cycle(3, search_bound=4)


def test_residue_patterns_hold_along_the_sequence():
    rc3 = seq.residue_cycle(3)
    rc5 = seq.residue_cycle(5)
    for n in range(0, 301):
        assert seq.term(n) % 3 == rc3.pattern[n % 9]
        assert seq.term(n) % 5 != 0
        assert seq.term(n) % 5 == rc5.pattern[n % 24]


def test_coprimality_report():
    assert seq.coprimality_report(3)
    assert seq.coprimality_report(10)
    with pytest.raises(ValueError):
        seq.coprimality_report(2)


def test_inexact_division_guard():
    broken = seq.EchoSequence()
    broken._cache[5] = 999  # corrupt one term; the next division cannot be exact
    with pytest.raises(seq.InexactDivisionError):
        for n in range(6, 12):
            broken.term(n)


def test_cache_immutability_of_fresh_instances():
    a = seq.EchoSequence()
    b = seq.EchoSequence()
    a.term(40)
    assert b.term(40) == a.term(40)
    assert b.term(40) == seq.term(40)


def test_residue_cycle_composite_modulus():
    # mod 15 combines the mod-3 and mod-5 cycles: lcm(9, 24) = 72
    rc = seq.residue_cycle(15)
    assert rc.period == 72
    # 15 | b_n would need 5 | b_n, which never happens
    assert not rc.contains_zero
    assert any(r % 3 == 0 for r in rc.pattern)
