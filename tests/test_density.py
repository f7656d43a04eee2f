import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from echotk import aglgroup, density


def test_image_of_examples():
    assert density.image_of((0, 0, 0, 0), 2) == {(0, 0)}
    assert len(density.image_of((2, 0, 0, 1), 2)) == 8  # 16 * |2|_2
    assert len(density.image_of((1, 1, 1, 0), 2)) == 16  # invertible: a bijection


def test_colspace_examples():
    assert density.colspace_contains((0, 0), (3, 1, 2, 2), 2)
    assert not density.colspace_contains((1, 0), (2, 0, 0, 2), 2)


def test_colspace_matches_exhaustive_search():
    # every (v, A) at k = 1, 2, 3, then random pairs at k = 4, 5, 6
    for k in (1, 2, 3):
        mod = 1 << k
        for a in itertools.product(range(mod), repeat=4):
            img = density.image_of(a, k)
            for v in itertools.product(range(mod), repeat=2):
                assert density.colspace_contains(v, a, k) == (v in img), (v, a, k)
    rng = random.Random(42)
    for _ in range(3_000):
        k = rng.choice((4, 5, 6))
        mod = 1 << k
        a = tuple(rng.randrange(mod) for _ in range(4))
        v = (rng.randrange(mod), rng.randrange(mod))
        assert density.colspace_contains(v, a, k) == (v in density.image_of(a, k)), (v, a, k)


def _all_matrices(k: int) -> np.ndarray:
    return np.indices((1 << k,) * 4, dtype=np.int64).reshape(4, -1).T


def _images_np(mats: np.ndarray, k: int):
    """Each row's column space mod 2^k by enumeration: its sorted packed
    vectors and a mask marking the first copy of each."""
    mod = 1 << k
    xs = np.array([(x0, x1) for x0 in range(mod) for x1 in range(mod)], dtype=np.int64)
    y0 = (mats[:, 0, None] * xs[None, :, 0] + mats[:, 1, None] * xs[None, :, 1]) % mod
    y1 = (mats[:, 2, None] * xs[None, :, 0] + mats[:, 3, None] * xs[None, :, 1]) % mod
    packed = np.sort((y0 << k) | y1, axis=1)
    first = np.ones_like(packed, dtype=bool)
    first[:, 1:] = packed[:, 1:] != packed[:, :-1]
    return packed, first


def _image_sizes_np(mats: np.ndarray, k: int) -> np.ndarray:
    return np.concatenate(
        [_images_np(mats[lo : lo + 4096], k)[1].sum(axis=1) for lo in range(0, len(mats), 4096)]
    )


def _v2(x: np.ndarray, cap: int) -> np.ndarray:
    """min(v2(x), cap) elementwise, with v2(0) infinite."""
    return sum((x % (1 << i) == 0).astype(np.int64) for i in range(1, cap + 1))


def _log2_image_sizes(a: np.ndarray, k: int) -> np.ndarray:
    """log2 |im A| mod 2^k for each row A = (a00, a01, a10, a11) with entries in [0, 2^k).

    Over the 2-adic integers A has Smith form diag(2^e1 u1, 2^e2 u2) with
    units u1, u2, so |im A| = 2^(2k - min(k, e1) - min(k, e2)).  Here e1 is
    the least valuation of the entries and e1 + e2 is the valuation of the
    determinant of the integer lift.  The determinant mod 2^k does not
    carry it: diag(4, 4) at k = 3 has det 0 mod 8, yet e2 = 2.
    """
    e1 = _v2(np.bitwise_or.reduce(a, axis=1), k)
    e12 = _v2(a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2], 2 * k)
    return 2 * k - e1 - np.minimum(k, e12 - e1)


def test_image_size_det_relation_all_matrices_level2():
    # the closed form against enumeration on every matrix at k = 2 and 3
    sizes = {}
    for k in (2, 3):
        mats = _all_matrices(k)
        sizes[k] = _image_sizes_np(mats, k)
        assert (1 << _log2_image_sizes(mats, k) == sizes[k]).all(), k
    mats = _all_matrices(2)
    det = (mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2]) % 4
    for size, d in zip(sizes[2], det):
        if d % 2 == 1:
            assert size == 16
        elif d == 2:
            assert size == 8
        # ord_2(det) >= k: the relation does not apply
    # det = 0 mod 8, yet the integer lift has det 16 and the image 4 elements
    assert _log2_image_sizes(np.array([[4, 0, 0, 4]]), 3)[0] == 2


def test_image_size_det_relation_random_levels_3_4():
    rng = np.random.default_rng(7)
    for k in (3, 4):
        mod = 1 << k
        mats = rng.integers(0, mod, size=(100_000, 4), dtype=np.int64)
        sizes = _image_sizes_np(mats, k)
        assert (1 << _log2_image_sizes(mats, k) == sizes).all(), k
        det = (mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2]) % mod
        keep = det != 0
        # for determinants of valuation < k, |im| = 4^k |det|_2
        sizes, det = sizes[keep], det[keep]
        val = np.zeros(len(det), dtype=np.int64)
        d = det.copy()
        while (even := (d % 2 == 0) & (d != 0)).any():
            val[even] += 1
            d[even] //= 2
        assert (sizes == (1 << (2 * k)) >> val).all()


def _f(m) -> Fraction:
    """f_M = |im(M - I) ∩ V_M| / |im(M - I)| at level 2, from the H_k group table."""
    log, hits = density._group_table("hk")[1][tuple(x & 3 for x in m)]
    return Fraction(hits, 1 << log)


def test_f_fraction_values_and_case2():
    values = {}
    for m in density.gl2_mod4():
        f = _f(m)
        assert f in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)), m
        values[m] = f
    # the twelve contributing matrices with det(M - I) = 2 mod 4 all have f = 1/2
    case2 = [
        m
        for m in density.gl2_mod4()
        if density._det(density._m_minus_i(m, 4), 4) == 2 and values[m] != 0
    ]
    assert len(case2) == 12
    assert all(values[m] == Fraction(1, 2) for m in case2)


def test_f_fraction_identity_matrix():
    assert _f((1, 0, 0, 1)) == 1  # im = {0} inside V_I


@lru_cache(maxsize=None)
def _associated_vectors() -> dict:
    """V_M = {v : (v, M) in H_2} for every M in GL_2(Z/4), from H_2's elements."""
    table: dict = {m: set() for m in density.gl2_mod4()}
    for raw in aglgroup.h2().raw_elements():
        table[raw[2:]].add((raw[0], raw[1]))
    assert all(len(v) == 4 for v in table.values())
    return table


def _f_by_sets(m, k: int) -> Fraction:
    """f_M at level k by set enumeration, V_M being every lift of the mod-4 V_M."""
    mod = 1 << k
    base = _associated_vectors()[tuple(x & 3 for x in m)]
    v_set = {(v0, v1) for v0 in range(mod) for v1 in range(mod) if (v0 & 3, v1 & 3) in base}
    img = density.image_of(density._m_minus_i(m, mod), k)
    return Fraction(len(img & v_set), len(img))


def test_f_fraction_lift_stability():
    # the engine's table agrees with set enumeration, and every mod-8 lift
    # of every M in GL_2(Z/4) has the same f as M
    for m in density.gl2_mod4():
        f_base = _f(m)
        assert _f_by_sets(m, 2) == f_base, m
        for bits in range(16):
            lift = tuple(m[i] + 4 * ((bits >> i) & 1) for i in range(4))
            assert _f_by_sets(lift, 3) == f_base, (m, lift)


# each case by its capped Smith shape (min(e1, 2), min(e2, 2)) of M - I
_CASE_SHAPES = {
    (0, 0): density.CASE_DET_ODD,
    (0, 1): density.CASE_DET_2,
    (0, 2): density.CASE_DET_0_ODD,
    (1, 1): density.CASE_HALVED_INV,
    (1, 2): density.CASE_HALVED_SING,
    (2, 2): density.CASE_IDENTITY,
}


def test_case_label_depends_only_on_the_mod4_class():
    # every mod-8 lift of every M in GL_2(Z/4) is named by the capped Smith
    # shape of M - I at level 3: e1 the least entry valuation, and e1 + e2
    # read off the image size
    ms = density.gl2_mod4()
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
    lifts = (np.array(ms)[:, None, :] + 4 * bits[None]).reshape(-1, 4)
    a = (lifts - np.array([1, 0, 0, 1])) % 8
    e1 = _v2(np.bitwise_or.reduce(a, axis=1), 3)
    e2 = 6 - e1 - _log2_image_sizes(a, 3)
    for lift, s1, s2 in zip(lifts.tolist(), e1.tolist(), e2.tolist()):
        want = _CASE_SHAPES[min(s1, 2), min(s2, 2)]
        assert density.case_label(tuple(lift)) == want, lift
        assert density.case_label(tuple(x & 3 for x in lift)) == want, lift
    counts = Counter(density.case_label(m) for m in ms)
    assert [counts[c] for c in _CASE_SHAPES.values()] == [32, 24, 24, 6, 9, 1]


def test_coset_shift_bijection():
    # |im(M-I) n V_M| = |im(M-I) n V_00| whenever the first is nonempty
    vect = _associated_vectors()
    for k in (2, 3, 4):
        mod = 1 << k
        rng = random.Random(k)
        mats = list(map(tuple, aglgroup._gl_matrices(k).tolist())) if k < 4 else None
        if mats is None:
            mats = []
            while len(mats) < 2000:
                m = tuple(rng.randrange(16) for _ in range(4))
                if (m[0] * m[3] - m[1] * m[2]) % 2 == 1:
                    mats.append(m)
        for m in mats:
            base = vect[tuple(x & 3 for x in m)]
            v_m = {
                (v0, v1) for v0 in range(mod) for v1 in range(mod) if (v0 & 3, v1 & 3) in base
            }
            v_00 = {(v0, v1) for v0 in range(mod) for v1 in range(mod) if v0 % 2 == 0 and v1 % 2 == 0}
            img = density.image_of(density._m_minus_i(m, mod), k)
            got = len(img & v_m)
            if got:
                assert got == len(img & v_00), (m, k)


def test_mu_case_examples():
    # any matrix with det(M - I) odd
    m_case1 = next(
        m for m in density.gl2_mod4() if density._det(density._m_minus_i(m, 4), 4) % 2 == 1
    )
    assert density.mu_case(m_case1) == Fraction(1, 96)
    # a contributing matrix with det(M - I) = 0 mod 4 and an odd entry
    m_case3 = next(
        m
        for m in density.gl2_mod4()
        if density.case_label(m) == density.CASE_DET_0_ODD and _f(m) != 0
    )
    assert density.mu_case(m_case3) == Fraction(1, 96) * Fraction(1, 3)
    assert density.mu_case((1, 0, 0, 1)) == Fraction(1, 672)


def test_mu_case_rejects_non_invertible():
    with pytest.raises(ValueError):
        density.mu_case((2, 0, 0, 2))


def test_analytic_density_hk():
    rep = density.analytic_density("hk")
    assert rep.total == Fraction(179, 336)
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


def test_analytic_density_full():
    rep = density.analytic_density("full")
    assert rep.total == Fraction(11, 21)
    assert rep.per_case == {
        "det_odd": Fraction(1, 3),
        "det_2_mod_4": Fraction(1, 8),
        "det_0_odd_entry": Fraction(1, 24),
        "halved_invertible": Fraction(1, 64),
        "halved_nonzero_singular": Fraction(1, 128),
        "identity": Fraction(1, 2688),
    }
    assert rep.case_counts == {
        "det_odd": 32,
        "det_2_mod_4": 24,
        "det_0_odd_entry": 24,
        "halved_invertible": 6,
        "halved_nonzero_singular": 9,
        "identity": 1,
    }
    assert sum(rep.case_counts.values()) == 96  # every class contributes


# ---------------------------------------------------------------------------
# the case calculus: the limit of each class derived by hand, case by case,
# as an oracle independent of the Smith cells that the engine solves from


@lru_cache(maxsize=None)
def _nu_level1(n) -> Fraction:
    """Limit of E[|im N'| / 4^k] over lifts N' of the mod-2 matrix N."""
    if density._det(n, 2) == 1:
        return Fraction(1)
    if n != (0, 0, 0, 0):
        # half the lifts gain one valuation step at each level
        return Fraction(1, 4) / (1 - Fraction(1, 4))
    # the zero matrix references the average over all classes: solve a*x = b
    others = Fraction(0)
    for m in density._MOD2_MATRICES:
        if m != (0, 0, 0, 0):
            others += _nu_level1(m)
    a = 1 - Fraction(1, 64)
    b = Fraction(1, 64) * others
    return b / a


# Limit of E[|im A'| / 4^k] over lifts A' of A = M - I mod 4, per case of A.
# With det A = 0 mod 4 and an odd entry, the determinant valuation resolves
# at level i >= 2 with probability 2^(1-i) and leaves |im| a share 2^-i: a
# geometric series.  An even A is 2N, and N mod 2 carries the level-1 limit.
_NU = {
    density.CASE_DET_ODD: Fraction(1),
    density.CASE_DET_2: Fraction(1, 2),
    density.CASE_DET_0_ODD: Fraction(1, 2) * Fraction(1, 4) / (1 - Fraction(1, 4)),
    density.CASE_HALVED_INV: Fraction(1, 4) * _nu_level1((1, 0, 0, 1)),
    density.CASE_HALVED_SING: Fraction(1, 4) * _nu_level1((1, 0, 0, 0)),
    density.CASE_IDENTITY: Fraction(1, 4) * _nu_level1((0, 0, 0, 0)),
}


def test_case4_solve_value():
    # the self-referential level-1 class solves to 1/7; scaled into the
    # identity-matrix contribution it lands at 1/672
    assert _nu_level1((0, 0, 0, 0)) == Fraction(1, 7)


def test_mu_case_matches_the_case_calculus():
    # all 192 class values: 96 classes of GL_2(Z/4), in both groups
    for group in ("hk", "full"):
        order, table = density._group_table(group)
        for m in density.gl2_mod4():
            log4, hits4 = table[m]
            want = Fraction(16 * hits4, order << log4) * _NU[density.case_label(m)]
            assert density.mu_case(m, group) == want, (group, m)


def test_brute_level2_exact_value():
    # full enumeration of the 384 pairs: 213 of them hit the column space
    report, _ = density.brute_report(2, "hk")
    assert report.total == Fraction(213, 384) == Fraction(71, 128)
    assert report.s1_total == Fraction(176, 384)


def test_brute_full_group_level2():
    report, _ = density.brute_report(2, "full")
    assert report.total == Fraction(281, 512)
    d3 = density.brute_density(3, "full")
    assert abs(d3 - Fraction(11, 21)) < abs(Fraction(281, 512) - Fraction(11, 21))


def test_brute_decreases_toward_limit():
    vals = [density.brute_density(k) for k in (2, 3, 4)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert all(v > Fraction(179, 336) for v in vals)


def test_brute_s1_squeeze():
    # S1 (det != 0 restricted) climbs toward the same limit from below
    r2, _ = density.brute_report(2, "hk")
    r3, _ = density.brute_report(3, "hk")
    assert r2.s1_total <= r2.total
    assert r3.s1_total <= r3.total
    assert r2.s1_total < r3.s1_total < Fraction(179, 336)


def test_brute_matches_analytic_on_resolved_classes():
    for k in (2, 3):
        _, per_class = density.brute_report(k, "hk")
        for m, frac in per_class.items():
            if density.resolved_at_level_2(m):
                assert frac == density.mu_case(m), (k, m)


@lru_cache(maxsize=None)
def _h2_vector_table() -> np.ndarray:
    """vt[m4_key, v4_key] = whether (v, M) lies in H_2, from H_2's code array
    (a level-2 code is (v4_key << 8) | m4_key)."""
    members = np.zeros(1 << 12, dtype=bool)
    members[aglgroup.h2().code_array] = True
    return members.reshape(16, 256).T


def _brute_oracle(k: int, group: str):
    """Pair counts per mod-4 class of M, and the det(M - I) != 0 count, by
    enumerating im(M - I) for every M in GL_2(Z/2^k)."""
    mod = 1 << k
    mats = _all_matrices(k)
    mats = mats[(mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2]) % 2 == 1]
    vt = _h2_vector_table()
    counts: dict = {}
    s1 = 0
    for lo in range(0, len(mats), 2048):
        chunk = mats[lo : lo + 2048]
        a = (chunk - np.array([1, 0, 0, 1])) % mod
        packed, first = _images_np(a, k)
        if group == "hk":
            vkey = (((packed >> k) & 3) << 2) | (packed & 3)
            mkey = ((chunk & 3) << np.array([6, 4, 2, 0])).sum(axis=1)
            hits = first & vt[mkey[:, None], vkey]
        else:
            hits = first
        n = hits.sum(axis=1)
        det = (a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]) % mod
        s1 += int(n[det != 0].sum())
        for row, cnt in zip((chunk & 3).tolist(), n.tolist()):
            counts[tuple(row)] = counts.get(tuple(row), 0) + cnt
    return counts, s1


def test_brute_matches_enumeration_oracle():
    # every class, including the 40 per level whose limit is not yet resolved
    for k in (2, 3, 4):
        for group in ("hk", "full"):
            report, per_class = density.brute_report(k, group)
            counts, s1 = _brute_oracle(k, group)
            denom = aglgroup.AGL_ORDERS[k] // (4 if group == "hk" else 1)
            assert per_class == {m: Fraction(c, denom) for m, c in counts.items()}, (k, group)
            assert report.s1_total == Fraction(s1, denom), (k, group)
            assert report.total == Fraction(sum(counts.values()), denom), (k, group)


def _smith_oracle(k: int, group: str):
    """Per-mod-4-class fractions (ordered by class), total and s1_total, by
    enumerating GL_2(Z/2^k) with each image size from the 2-adic Smith form
    and each class's level-2 intersection with V_M by enumeration."""
    mod = 1 << k
    mats = aglgroup._gl_matrices(k)
    a = (mats - np.array([1, 0, 0, 1])) % mod
    log_im = _log2_image_sizes(a, k)
    mkey = ((mats & 3) << np.array([6, 4, 2, 0])).sum(axis=1)
    if group == "hk":
        # row key of _all_matrices(2) is the mod-4 key; a packed level-2 vector is its v4 key
        packed, first = _images_np((_all_matrices(2) - np.array([1, 0, 0, 1])) % 4, 2)
        hits4 = (first & _h2_vector_table()[np.arange(256)[:, None], packed]).sum(axis=1)
        hits = (hits4[mkey] << log_im) // first.sum(axis=1)[mkey]
    else:
        hits = 1 << log_im
    det = (a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]) % mod
    class_hits = np.zeros(256, dtype=np.int64)
    np.add.at(class_hits, mkey, hits)
    denom = aglgroup.AGL_ORDERS[k] // (4 if group == "hk" else 1)
    per_class = {
        tuple((key >> s) & 3 for s in (6, 4, 2, 0)): Fraction(int(class_hits[key]), denom)
        for key in np.unique(mkey).tolist()
    }
    return per_class, Fraction(int(hits.sum()), denom), Fraction(int(hits[det != 0].sum()), denom)


def test_brute_matches_smith_oracle_level5():
    for group in ("hk", "full"):
        report, per_class = density.brute_report(5, group)
        oracle, total, s1 = _smith_oracle(5, group)
        assert list(per_class.items()) == list(oracle.items()), group
        assert (report.total, report.s1_total) == (total, s1), group


# the (c, a, b) with D(k) = c + a 4^-k + b 64^-k, per group
_CLOSED_FORMS = {
    "hk": (Fraction(179, 336), Fraction(7, 20), Fraction(32, 105)),
    "full": (Fraction(11, 21), Fraction(2, 5), Fraction(8, 105)),
}


def test_brute_closed_forms():
    # the finite-level identities derived in the brute_report docstring,
    # and the (c, a, b) that brute_closed_form solves from three levels
    for group, (c, a, b) in _CLOSED_FORMS.items():
        assert density.brute_closed_form(group) == (c, a, b), group
        for k in range(2, density.BRUTE_MAX_LEVEL + 1):
            assert density.brute_density(k, group) == c + a / 4**k + b / 64**k, (group, k)


def test_every_class_lies_in_the_span_the_limit_is_solved_from():
    # each class's brute fraction is c + a 4^-k + b 64^-k with the (c, a, b)
    # solved from k = 2, 3, 4, at every further level, and c is mu_case
    for group in ("hk", "full"):
        per_level = {k: density.brute_report(k, group)[1] for k in range(2, 17)}
        for m in density.gl2_mod4():
            c, a, b = density._solve_span(*(per_level[k][m] for k in (2, 3, 4)))
            assert c == density.mu_case(m, group), (group, m)
            for k in range(5, 17):
                assert per_level[k][m] == c + a / 4**k + b / 64**k, (group, m, k)


def test_brute_level_bounds():
    with pytest.raises(ValueError):
        density.brute_density(density.BRUTE_MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        density.brute_density(1)


def test_f_fraction_exact_distribution():
    from collections import Counter

    dist = Counter(_f(m) for m in density.gl2_mod4())
    assert dist == {
        Fraction(0): 36,
        Fraction(1, 4): 32,
        Fraction(1, 2): 24,
        Fraction(1): 4,
    }


def test_smith_cells_are_cached_immutable_and_reused_by_the_limit():
    # the cells depend on no group: brute_report at k = 2, 3, 4 builds every
    # cell the analytic limit reads, and each is an immutable tuple of
    # (t, count) pairs, so sharing the cached value is safe
    density._smith_cells.cache_clear()
    density._class_fractions.cache_clear()
    density._class_limits.cache_clear()
    for k in (2, 3, 4):
        density.brute_report(k, "hk")
    built = density._smith_cells.cache_info().misses
    assert density.analytic_density("hk").total == Fraction(179, 336)
    assert density.analytic_density("full").total == Fraction(11, 21)
    assert density._smith_cells.cache_info().misses == built
    cells = density._smith_cells((1, 0, 0, 0), 2, 5)
    assert cells == ((2, 2048), (3, 1024), (4, 512), (5, 512))  # the 16^3 lifts of a det-0 class
    assert cells is density._smith_cells((1, 0, 0, 0), 2, 5)


def test_cached_tables_are_read_only():
    # every cached value is shared by all callers, so none can be written, and
    # the dict brute_report hands back is the caller's own copy; each write
    # puts back the value already there, so a write that succeeds changes nothing
    assert isinstance(density.gl2_mod4(), tuple)
    identity = (1, 0, 0, 1)
    labels = density._case_labels()
    with pytest.raises(TypeError):
        labels[identity] = labels[identity]
    assert labels == {m: density.case_label(m) for m in density.gl2_mod4()}
    for group, (c, a, b) in _CLOSED_FORMS.items():
        table = density._group_table(group)[1]
        with pytest.raises(TypeError):
            table[identity] = table[identity]
        shares, _ = density._class_fractions(3, group)
        limits = density._class_limits(group)
        for mapping in (shares, limits):
            with pytest.raises(TypeError):
                mapping[identity] = mapping[identity]
        mus = [density.mu_case(m, group) for m in density.gl2_mod4()]
        report, per_class = density.brute_report(3, group)
        assert report.total == c + a / 4**3 + b / 64**3
        kept = dict(per_class)
        for m in per_class:
            per_class[m] = Fraction(0)
        again, again_per_class = density.brute_report(3, group)
        assert again == report and again_per_class == kept, group
        assert [density.mu_case(m, group) for m in density.gl2_mod4()] == mus, group
        assert sum(mus, Fraction(0)) == c
        assert density.analytic_density(group).total == c


def test_reports_name_each_class_once(monkeypatch):
    # the per-case reports read every class's name from one table, so the
    # brute reports at k = 2, 3, 4 and the analytic report of both groups
    # name each of the 96 mod-4 classes once between them
    calls = Counter()
    case_label = density.case_label

    def counting(m):
        calls[m] += 1
        return case_label(m)

    monkeypatch.setattr(density, "case_label", counting)
    density._case_labels.cache_clear()
    try:
        reports = [density.brute_report(k, group)[0] for group in _CLOSED_FORMS for k in (2, 3, 4)]
        reports += [density.analytic_density(group) for group in _CLOSED_FORMS]
    finally:
        density._case_labels.cache_clear()
    assert calls == Counter(density.gl2_mod4())
    assert [sum(r.case_counts.values()) for r in reports] == [60] * 3 + [96] * 3 + [60, 96]
