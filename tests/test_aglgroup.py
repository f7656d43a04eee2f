import itertools
import random

import numpy as np
import pytest

from echotk import aglgroup as ag


def _reduced(codes, k, k_to):
    """Sorted codes of the image of a level-k code array under reduction mod 2^k_to."""
    return ag._distinct(ag._repack(codes, k, k_to), 1 << 6 * k_to)


def test_compose_identity_and_translations():
    e = (1, 2, 2, 1, 3, 0)
    assert ag._comp(ag.IDENTITY_RAW, e, 3) == e
    assert ag._comp(e, ag.IDENTITY_RAW, 3) == e
    assert ag._comp((1, 0, 1, 0, 0, 1), (0, 1, 1, 0, 0, 1), 3) == (1, 1, 1, 0, 0, 1)


def test_closure_level_mismatch():
    with pytest.raises(ag.LevelMismatchError):
        ag.closure([ag.AglElem(2, *ag.IDENTITY_RAW), ag.AglElem(3, *ag.IDENTITY_RAW)])


def test_inverses_random():
    rng = random.Random(0)
    pool = sorted(ag.full_agl(2).raw_elements())
    for _ in range(100):
        e = rng.choice(pool)
        assert ag._comp(e, ag._inv(e, 2), 3) == ag.IDENTITY_RAW
        assert ag._comp(ag._inv(e, 2), e, 3) == ag.IDENTITY_RAW


def test_pack_unpack_roundtrip():
    rng = random.Random(2)
    for k in (2, 3, 4):
        for _ in range(50):
            raw = tuple(rng.randrange(1 << k) for _ in range(6))
            assert ag.unpack(ag.pack(raw, k), k) == raw


def test_closure_examples():
    assert ag.h2().order == 384
    assert ag.full_agl(2).order == 1536
    assert ag.full_agl(1).order == 24
    assert ag.closure([ag.AglElem(2, *ag.IDENTITY_RAW)]).order == 1


def test_group_order_formulas():
    # |AGL| = 24 * 64^(k-1), |GL| = 6 * 16^(k-1), checked by closure
    for k in (1, 2, 3):
        full = ag.full_agl(k)
        assert full.order == 24 * 64 ** (k - 1)
        assert ag._matrix_image_size(full.code_array, k) == 6 * 16 ** (k - 1)


def test_is_kinetic():
    assert ag.is_kinetic(ag.h2())
    assert ag.is_kinetic(ag.full_agl(2))
    assert not ag.is_kinetic(ag.closure([ag.AglElem(2, *ag.IDENTITY_RAW)]))


def test_build_hk_orders_and_index():
    assert ag.build_hk(2).order == 384
    assert ag.build_hk(3).order == 24576
    assert ag.build_hk(4).order == 1572864
    for k in (2, 3, 4):
        assert ag.AGL_ORDERS[k] // ag.build_hk(k).order == 4


def test_build_hk_surjectivity():
    for k in (2, 3, 4):
        rep = ag.build_hk(k)
        assert ag._matrix_image_size(rep.code_array, k) == ag.GL_ORDERS[k]
        assert ag._mod2_image_size(rep.code_array, k) == 24


def test_build_hk_reduction_tower():
    for k in (3, 4):
        assert np.array_equal(_reduced(ag.build_hk(k).code_array, k, k - 1), ag.build_hk(k - 1).code_array)


def test_build_hk_generators_generate():
    # k = 4 is one closure over the 2^24 level-4 codes (ROADMAP item 2 has its memory)
    for k in (2, 3, 4):
        rep = ag.build_hk(k)
        assert np.array_equal(ag.closure(rep.generators).code_array, rep.code_array)


def test_hk_membership_predicate():
    # exhaustive over AGL_2(Z/8): the lifted H_3 is exactly the mod-4 preimage of H_2
    full = ag.full_agl(3).code_array
    members = full[np.isin(ag._repack(full, 3, 2), ag.h2().code_array)]
    assert np.array_equal(ag.build_hk(3).code_array, members)


def test_every_subgroup_is_a_sorted_read_only_code_array():
    reps = [ag.h2(), ag.closure(list(ag.H2_GENERATORS)), ag.closure([ag.AglElem(3, *ag.IDENTITY_RAW)])]
    reps += [ag.build_hk(k) for k in (2, 3, 4)] + [ag.full_agl(k) for k in (1, 2, 3)]
    reps += [c.representative for k in (2, 3) for c in ag.classify_kinetic(k)]
    for rep in reps:
        codes = rep.code_array
        assert codes.dtype == np.int64
        assert np.all(np.diff(codes) > 0), rep.level
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[0] = codes[0]
    # subgroups compare by identity, never by an elementwise array ==
    assert all(rep == rep and (rep == other) is (rep is other) for rep, other in zip(reps, reps[1:]))
    assert np.array_equal(ag.closure(list(ag.H2_GENERATORS)).code_array, ag.h2().code_array)


def test_build_hk_materialization_cap():
    with pytest.raises(ag.ResourceBudgetError, match="mod-4 preimage of h2"):
        ag.build_hk(5)


def test_classify_level2():
    classes = ag.classify_kinetic(2)
    assert len(classes) == 2
    assert classes[0].order == 1536
    assert classes[1].order == 384
    assert classes[1].representative.codes == ag.h2().codes
    assert all(ag.is_kinetic(c.representative) for c in classes)
    # the search lifts the whole level-1 group, so it meets all four conjugates of H_2
    assert [c.members_found for c in classes] == [1, 4]


def test_classify_rejects_other_levels():
    with pytest.raises(ValueError):
        ag.classify_kinetic(4)


def test_coset_structure():
    assert ag.coset_structure_check()
    # wrong order: the full group is not H_2
    assert not ag.coset_structure_check(h=ag.full_agl(2))


def test_coset_structure_rejects_random_order24_subgroups():
    # negative control: replace J by other 24-element matrix subgroups
    rng = random.Random(4)
    mats = sorted({raw[2:] for raw in ag.full_agl(2).raw_elements()})
    j = ag._matrix_closure(list(ag.J_GENERATORS), 2)
    tried = 0
    while tried < 5:
        g1, g2 = rng.choice(mats), rng.choice(mats)
        got = ag._matrix_closure([g1, g2], 2)
        if len(got) != 24 or got == j:
            continue
        tried += 1
        assert not ag.coset_structure_check(j_mats=got)


def test_kernel_generators_generate_the_kernel():
    got = ag._closure_codes([ag.pack(g.raw, 3) for g in ag._kernel_generators(3)], 3)
    assert got.size == 64
    assert all(ag._reduce_raw(ag.unpack(c, 3), 2) == (0, 0, 1, 0, 0, 1) for c in got.tolist())


def _closure_oracle(gens, k, max_size=None):
    """Tuple BFS: the orbit of the identity under right multiplication by gens and inverses.

    Returns None as soon as the orbit exceeds max_size.
    """
    mask = (1 << k) - 1
    step = []
    for g in gens:
        g = tuple(x & mask for x in g)
        step.append(g)
        step.append(ag._inv(g, k))
    ident = (0, 0, 1, 0, 0, 1)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in step:
                x = ag._comp(e, g, mask)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
                    if max_size is not None and len(seen) > max_size:
                        return None
        frontier = new
    return seen


def _engine_and_oracle(gens, k, max_size=None):
    want = _closure_oracle(gens, k, max_size=max_size)
    got = ag._closure_codes([ag.pack(g, k) for g in gens], k, max_size=max_size)
    if want is None or got is None:
        assert want is None and got is None, (gens, k, max_size)
        return None
    assert set(got.tolist()) == {ag.pack(e, k) for e in want}, (gens, k, max_size)
    assert list(got) == sorted(got)
    return want


def test_closure_engine_matches_oracle_on_random_generators():
    rng = random.Random(21)
    aborted = 0
    for k, trials in ((1, 30), (2, 30), (3, 12)):
        pool = sorted(ag.full_agl(k).raw_elements())
        for _ in range(trials):
            gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            # level 3 caps the size so the oracle stays cheap; most caps are hit
            cap = rng.choice([None, 50, 400]) if k < 3 else rng.choice([60, 3000])
            want = _engine_and_oracle(gens, k, max_size=cap)
            if want is None:
                aborted += 1
                continue
            # the cap is exclusive: one below the order aborts, the order itself does not
            assert _engine_and_oracle(gens, k, max_size=len(want) - 1) is None
            assert len(_engine_and_oracle(gens, k, max_size=len(want))) == len(want)
            # image sizes and reductions agree with the tuple definitions
            codes = np.array(sorted(ag.pack(e, k) for e in want), dtype=np.int64)
            assert ag._matrix_image_size(codes, k) == len({e[2:] for e in want})
            assert ag._mod2_image_size(codes, k) == len({ag._reduce_raw(e, 1) for e in want})
            for k_to in range(1, k + 1):
                want_codes = sorted({ag.pack(ag._reduce_raw(e, k_to), k_to) for e in want})
                assert _reduced(codes, k, k_to).tolist() == want_codes
    assert aborted > 10


def _all_subspaces_f2(n):
    """Every subspace of F_2^n, as a frozenset of vector codes, via RREFs."""
    from itertools import combinations, product

    out = set()
    for r in range(n + 1):
        for pivots in combinations(range(n), r):
            free_positions = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, n):
                    if c not in pivots:
                        free_positions.append((i, c))
            for bits in product((0, 1), repeat=len(free_positions)):
                rows = []
                for i, p in enumerate(pivots):
                    row = [0] * n
                    row[p] = 1
                    rows.append(row)
                for (i, c), bit in zip(free_positions, bits):
                    rows[i][c] = bit
                span = {0}
                for row in rows:
                    code = int("".join(map(str, row)), 2)
                    span |= {x ^ code for x in span}
                out.add(frozenset(span))
    return out


def test_stable_submodule_enumeration_is_complete():
    # cross-check the lattice search against a filter over ALL subspaces
    found = set(ag._stable_kernel_submodules())
    level1 = sorted(ag.full_agl(1).raw_elements())

    def act(t, code):
        v0, v1, m00, m01, m10, m11 = t
        u0, u1 = (code >> 5) & 1, (code >> 4) & 1
        a00, a01, a10, a11 = (code >> 3) & 1, (code >> 2) & 1, (code >> 1) & 1, code & 1
        i00, i01, i10, i11 = m11, m01, m10, m00
        t00 = (m00 * a00 + m01 * a10) & 1
        t01 = (m00 * a01 + m01 * a11) & 1
        t10 = (m10 * a00 + m11 * a10) & 1
        t11 = (m10 * a01 + m11 * a11) & 1
        b00 = (t00 * i00 + t01 * i10) & 1
        b01 = (t00 * i01 + t01 * i11) & 1
        b10 = (t10 * i00 + t11 * i10) & 1
        b11 = (t10 * i01 + t11 * i11) & 1
        w0 = (m00 * u0 + m01 * u1 + b00 * v0 + b01 * v1) & 1
        w1 = (m10 * u0 + m11 * u1 + b10 * v0 + b11 * v1) & 1
        return (w0 << 5) | (w1 << 4) | (b00 << 3) | (b01 << 2) | (b10 << 1) | b11

    stable = {
        sub
        for sub in _all_subspaces_f2(6)
        if all(act(t, x) in sub for t in level1 for x in sub)
    }
    assert found == stable
    assert sorted(len(s) for s in found) == [1, 4, 8, 16, 16, 32, 64]


def test_kernel_code_roundtrip():
    # code bits (u0 u1 a00 a01 a10 a11), u0 on top: kappa(c) = (2^(k-1) u, I + 2^(k-1) A)
    assert ag._kernel_elem(0b100001, 2) == (2, 0, 1, 0, 0, 3)
    assert ag._kernel_elem(0b010110, 3) == (0, 4, 1, 4, 4, 1)
    for k in (2, 3, 4):
        for c in range(64):
            e = ag._kernel_elem(c, k)
            assert ag._kernel_code(e, k) == c
            assert ag._reduce_raw(e, k - 1) == ag._reduce_raw(ag.IDENTITY_RAW, k - 1)
        # K is F_2^6: composing kernel elements adds their codes
        a, b = ag._kernel_elem(0b101100, k), ag._kernel_elem(0b011010, k)
        assert ag._kernel_code(ag._comp(a, b, (1 << k) - 1), k) == 0b101100 ^ 0b011010


def _conjugation_codes(t, k):
    mask = (1 << k) - 1
    t_inv = ag._inv(t, k)
    return tuple(
        ag._kernel_code(ag._comp(ag._comp(t, ag._kernel_elem(c, k), mask), t_inv, mask), k)
        for c in range(64)
    )


def test_kernel_action_is_conjugation_at_every_level():
    # the table reads t mod 2 only, so this checks that the action is the same at levels 2 and 3
    for t in ag.full_agl(2).raw_elements():
        assert ag._kernel_action(ag._reduce_raw(t, 1)) == _conjugation_codes(t, 2), t
    rng = random.Random(31)
    for t in rng.sample(sorted(ag.full_agl(3).raw_elements()), 150):
        assert ag._kernel_action(ag._reduce_raw(t, 1)) == _conjugation_codes(t, 3), t


def test_f2_elimination_matches_brute_force():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(1, 7)
        # bit n is the right-hand side; sparse rows make dependent and inconsistent systems common
        rows = [rng.getrandbits(n + 1) & rng.getrandbits(n + 1) for _ in range(rng.randint(0, 8))]
        span = {0}
        for row in rows:
            span |= {x ^ row for x in span}
        basis = ag._f2_echelon(rows)
        got = {0}
        for row in basis.values():
            got |= {x ^ row for x in got}
        assert got == span
        assert len(span) == 2 ** len(basis)
        assert all(row & -row == low for low, row in basis.items())
        want = [
            x for x in range(1 << n)
            if all(bin(row & x).count("1") % 2 == row >> n for row in rows)
        ]
        solutions = list(ag._f2_solutions(rows, n))
        assert sorted(solutions) == want, (n, rows)


def _lift_oracle(q):
    """Closure per lift: for each stable W, every subgroup <W, kappa(c_i) * q_i> that meets K in W.

    Lifts c_i run over a transversal of W in K.  The image of each candidate
    is q and it contains W, so it meets K in W exactly when its order is
    |q| * |W|; a closure capped there says which.
    """
    k = q.level + 1
    mask = (1 << k) - 1
    out = {}
    for w in ag._stable_kernel_submodules():
        reps = []
        covered = set()
        for c in range(64):
            if c not in covered:
                reps.append(c)
                covered |= {c ^ x for x in w}
        w_gens = [ag.pack(ag._kernel_elem(c, k), k) for c in sorted(w) if c]
        found = set()
        for lift in itertools.product(reps, repeat=len(q.generators)):
            gens = [
                ag.pack(ag._comp(ag._kernel_elem(c, k), g.raw, mask), k)
                for c, g in zip(lift, q.generators)
            ]
            got = ag._closure_codes(gens + w_gens, k, max_size=q.order * len(w))
            if got is None:
                continue
            in_kernel = got[ag._repack(got, k, k - 1) == ag.pack(ag.IDENTITY_RAW, k - 1)]
            assert {ag._kernel_code(ag.unpack(e, k), k) for e in in_kernel.tolist()} == w
            assert np.array_equal(_reduced(got, k, k - 1), q.code_array)
            found.add(got.tobytes())
        out[w] = found
    return out


def test_lift_solver_matches_closure_per_lift_oracle():
    # AGL_2(F_2) lifted to level 2 from a generating pair, and H_2 lifted to level 3
    agl1 = ag.closure([ag.AglElem(1, 0, 0, 0, 1, 1, 0), ag.AglElem(1, 0, 1, 1, 1, 0, 1)])
    assert agl1.codes == ag.full_agl(1).codes
    h2 = ag.closure(list(ag.H2_GENERATORS))
    for q in (agl1, h2):
        solved = {w: [] for w in ag._stable_kernel_submodules()}
        for w, got in ag._lifted_subgroups(q):
            solved[w].append(got.tobytes())
        want = _lift_oracle(q)
        for w, found in solved.items():
            # each subgroup once (c_i is reduced mod W), non-kinetic ones included
            repeats = len(found) - len(set(found))
            assert repeats == 0, (q.level, sorted(w))
            assert set(found) == want[w], (q.level, sorted(w))
        # H_2 over AGL_2(F_2), H_3 over H_2
        hk = np.array(sorted(ag.build_hk(q.level + 1).codes), dtype=np.int64)
        assert hk.tobytes() in set().union(*want.values())


def test_h2_is_maximal_spot_check():
    # adjoining anything outside immediately generates the whole group
    rng = random.Random(8)
    outside = sorted(set(ag.full_agl(2).raw_elements()) - set(ag.h2().raw_elements()))
    for g in rng.sample(outside, 40):
        grown = ag.closure(list(ag.H2_GENERATORS) + [ag.AglElem(2, *g)])
        assert grown.order == 1536
