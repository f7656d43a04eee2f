import dataclasses
import hashlib
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
    for k in range(1, 6):
        for _ in range(50):
            raw = tuple(rng.randrange(1 << k) for _ in range(6))
            assert ag.unpack(ag.pack(raw, k), k) == raw
        # an int32 array unpacks field by field as each of its codes does, and packs back
        codes = np.array([rng.randrange(1 << 6 * k) for _ in range(50)], dtype=np.int32)
        kept = codes.copy()
        fields = ag.unpack(codes, k)
        assert np.array_equal(codes, kept)
        assert all(f.dtype == np.int32 for f in fields)
        assert list(zip(*(f.tolist() for f in fields))) == [ag.unpack(c, k) for c in codes.tolist()]
        packed = ag.pack(fields, k)
        assert packed.dtype == np.int32 and np.array_equal(packed, codes)


def _right_tables_oracle(code, k):
    """(A*b, A*B) over every matrix code A, each product written out field by field over int64."""
    mask = (1 << k) - 1
    b0, b1, n00, n01, n10, n11 = ag.unpack(code, k)
    m = np.arange(1 << 4 * k, dtype=np.int64)
    a00, a01, a10, a11 = (m >> 3 * k) & mask, (m >> 2 * k) & mask, (m >> k) & mask, m & mask
    ab = (((a00 * b0 + a01 * b1) & mask) << k) | ((a10 * b0 + a11 * b1) & mask)
    prod = (
        (((a00 * n00 + a01 * n10) & mask) << 3 * k)
        | (((a00 * n01 + a01 * n11) & mask) << 2 * k)
        | (((a10 * n00 + a11 * n10) & mask) << k)
        | ((a10 * n01 + a11 * n11) & mask)
    )
    return np.stack([ab, prod]).astype(np.int32)


def _vector_sum_oracle(k):
    """Entry (a << 2k) | c: the vector a + c, added field by field and shifted above the matrix."""
    mask, half = (1 << k) - 1, 2 * k
    idx = np.arange(1 << 2 * half, dtype=np.int32)
    a, c = idx >> half, idx & ((1 << half) - 1)
    return (((((a >> k) + (c >> k)) & mask) << k) | ((a + c) & mask)) << 2 * half


def test_step_tables_match_the_field_by_field_formulas():
    # every code at levels 1 and 2, seeded samples at 3 and 4; the cache is bypassed so
    # the 4096 level-2 tables do not evict what other tests share
    rng = random.Random(43)
    samples = {1: range(64), 2: range(4096), 3: rng.sample(range(1 << 18), 40), 4: rng.sample(range(1 << 24), 6)}
    for k, codes in samples.items():
        for code in codes:
            got = ag._right_tables.__wrapped__(code, k)
            assert got.dtype == np.int32 and np.array_equal(got, _right_tables_oracle(code, k)), (k, code)
    for k in range(1, 5):
        got = ag._vector_sum_table(k)
        assert got.dtype == np.int32 and np.array_equal(got, _vector_sum_oracle(k)), k


def test_kernel_codes_are_the_identity_with_the_bits_at_half_the_modulus():
    for k in range(2, 6):
        for w in ag._stable_kernel_submodules():
            want = ag._repack(np.array(sorted(w), dtype=np.int32), 1, k) << k - 1 | ag.pack(ag.IDENTITY_RAW, k)
            got = ag._kernel_codes(w, k)
            assert got.dtype == np.int32 and np.array_equal(got, want), (k, sorted(w))


def test_closure_examples():
    assert ag.h2().order == 384
    assert ag.full_agl(2).order == 1536
    assert ag.full_agl(1).order == 24
    assert ag.closure([ag.AglElem(2, *ag.IDENTITY_RAW)]).order == 1


def _classic_full_generators(k):
    # unit translations, the two elementary transvections, and diag(u, 1)
    # for units u generating (Z/2^k)^*
    mask = (1 << k) - 1
    raws = [(1, 0, 1, 0, 0, 1), (0, 1, 1, 0, 0, 1), (0, 0, 1, 1, 0, 1), (0, 0, 1, 0, 1, 1)]
    raws += [(0, 0, mask, 0, 0, 1), (0, 0, 3 & mask, 0, 0, 1)]
    return [ag.AglElem(k, *raw) for raw in raws]


def test_group_order_formulas():
    # |AGL| = 24 * 64^(k-1) and |GL| = 6 * 16^(k-1) for the preimage of the
    # level-1 group, which is also the closure of the classic generators
    for k in (1, 2, 3):
        full = ag.full_agl(k)
        assert full.order == 24 * 64 ** (k - 1)
        assert ag._matrix_image_size(full.code_array, k) == 6 * 16 ** (k - 1)
        assert np.array_equal(ag.closure(_classic_full_generators(k)).code_array, full.code_array)


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
    # H_2's generators and the six kernel elements of level k -> 2 (translations
    # by 4 e_i and unipotent I + 4 E_rs) generate the preimage; k = 4 is one
    # closure over the 2^24 level-4 codes (ROADMAP item 2 has its memory)
    for k in (2, 3, 4):
        gens = [ag.AglElem(k, *g.raw) for g in ag.H2_GENERATORS]
        gens += [ag.AglElem(k, *ag._kernel_elem(1 << bit, 3)) for bit in range(6)]
        assert np.array_equal(ag.closure(gens).code_array, ag.build_hk(k).code_array)


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
        assert [f.name for f in dataclasses.fields(rep)] == ["level", "code_array"]
        codes = rep.code_array
        assert codes.dtype == np.int32
        assert np.all(np.diff(codes) > 0), rep.level
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[0] = codes[0]
    # int32 codes: H_4's 1572864 codes take 4 bytes each
    assert ag.build_hk(4).code_array.nbytes == 4 * 1572864
    # subgroups compare by identity, never by an elementwise array ==
    assert all(rep == rep and (rep == other) is (rep is other) for rep, other in zip(reps, reps[1:]))
    assert np.array_equal(ag.closure(list(ag.H2_GENERATORS)).code_array, ag.h2().code_array)


def test_build_hk_materialization_cap():
    with pytest.raises(ag.ResourceBudgetError, match="mod-4 preimage of h2"):
        ag.build_hk(5)


def test_closure_is_capped_at_level_5():
    # 36-bit codes would wrap in int32, and the seen array would take 64 GB
    with pytest.raises(ag.ResourceBudgetError, match="capped at level 5"):
        ag.closure([ag.AglElem(6, *ag.IDENTITY_RAW)])
    # a batch's keys carry the group above the code: two level-5 groups fill int32, three overflow
    one = ([ag.pack(ag.IDENTITY_RAW, 5)], [], None)
    with pytest.raises(ag.ResourceBudgetError, match="more than 2\\^31 keys"):
        ag._closure_codes([one] * 3, 5)


def test_classify_level2():
    classes = ag.classify_kinetic(2)
    assert len(classes) == 2
    assert classes[0].order == 1536
    assert classes[1].order == 384
    assert classes[1].representative.codes == ag.h2().codes
    assert all(ag.is_kinetic(c.representative) for c in classes)
    # the search lifts the whole level-1 group, so it meets all four conjugates of H_2
    assert [c.members_found for c in classes] == [1, 4]
    # that lift solves for 3 generators read off the level-1 codes, 18 unknown bits
    assert len(ag._recover_generators(ag.full_agl(1))) == 3
    for c in classes:
        assert np.array_equal(ag.closure(c.generators).code_array, c.representative.code_array)


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
    got = ag._generated([ag.pack(ag._kernel_elem(1 << bit, 3), 3) for bit in range(6)], 3)
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
    [got] = ag._closure_codes([([ag.pack(ag.IDENTITY_RAW, k)], [ag.pack(g, k) for g in gens], max_size)], k)
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


def test_batch_closure_matches_the_oracle_group_by_group():
    # one mixed batch per level: random sets of one to three generators, each once
    # under a cap that is hit or not, and, when not, once exactly at its order and
    # once just below it; at levels 2 and 3 some groups start from a stable W instead
    # of the identity.  Only the groups over their own cap come back None
    rng = random.Random(33)
    submodules = ag._stable_kernel_submodules()
    for k in (1, 2, 3):
        pool = sorted(ag.full_agl(k).raw_elements())
        cap = 400 if k < 3 else 3000
        batch, wants = [], []
        for trial in range(10):
            gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            base, w_elems = [ag.pack(ag.IDENTITY_RAW, k)], []
            if k > 1 and trial % 2:
                w = rng.choice(submodules)
                base = ag._kernel_codes(w, k)
                w_elems = [ag._kernel_elem(c, k) for c in sorted(w)]
            want = _closure_oracle(gens + w_elems, k, max_size=cap)
            want = None if want is None else {ag.pack(e, k) for e in want}
            codes = [ag.pack(g, k) for g in gens]
            batch.append((base, codes, cap))
            wants.append(want)
            if want is not None:
                batch += [(base, codes, len(want)), (base, codes, len(want) - 1)]
                wants += [want, None]
        got = ag._closure_codes(batch, k)
        assert len(got) == len(batch)
        assert [g is None for g in got] == [w is None for w in wants], k
        assert 0 < wants.count(None) < len(wants)
        for g, want in zip(got, wants):
            if want is not None:
                assert g.dtype == np.int32 and np.all(np.diff(g) > 0)
                assert set(g.tolist()) == want, k


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


def test_lift_relations_read_the_action_once_per_level1_image(monkeypatch):
    # H_2's three generators lifted to level 3: the BFS visits all 384 elements of H_2,
    # but an element's action on K depends only on its level-1 image, of which there are 24
    looked_up = []
    action = ag._kernel_action

    def spy(t):
        looked_up.append(t)
        return action(t)

    monkeypatch.setattr(ag, "_kernel_action", spy)
    lifts = [ag.unpack(g, 2) for g in ag._recover_generators(ag.h2())]
    assert len(lifts) == 3
    relations = list(ag._lift_relations(lifts, 3))
    assert len(looked_up) == len(set(looked_up)) <= 24
    # one relation per non-tree edge, 3 * 384 - 383, spanning the basis found before the cache
    assert len(relations) == 769
    basis = sorted(ag._f2_echelon(relations).values())
    assert len(basis) == 28
    assert hashlib.sha256(",".join(map(str, basis)).encode()).hexdigest()[:16] == "3a2683da46cc66d6"


def _lift_oracle(q, gens):
    """Closure per lift: for each stable W, every subgroup <W, kappa(c_i) * gens_i> that meets K in W.

    Lifts c_i run over a transversal of W in K.  The image of each candidate
    is q and it contains W, so it meets K in W exactly when its order is
    |q| * |W|; a closure capped there says which.
    """
    k = q.level + 1
    mask = (1 << k) - 1
    lifts = [ag.unpack(g, q.level) for g in gens]
    out = {}
    for w in ag._stable_kernel_submodules():
        reps = []
        covered = set()
        for c in range(64):
            if c not in covered:
                reps.append(c)
                covered |= {c ^ x for x in w}
        w_gens = [ag.pack(ag._kernel_elem(c, k), k) for c in sorted(w) if c]
        batch = [
            [ag.pack(ag._comp(ag._kernel_elem(c, k), g, mask), k) for c, g in zip(lift, lifts)] + w_gens
            for lift in itertools.product(reps, repeat=len(lifts))
        ]
        # closed from the identity by every generator, 16 candidates to a batch
        closed = []
        for i in range(0, len(batch), 16):
            chunk = [([ag.pack(ag.IDENTITY_RAW, k)], gens, q.order * len(w)) for gens in batch[i:i + 16]]
            closed += ag._closure_codes(chunk, k)
        found = set()
        for got in closed:
            if got is None:
                continue
            in_kernel = got[ag._repack(got, k, k - 1) == ag.pack(ag.IDENTITY_RAW, k - 1)]
            assert {ag._kernel_code(ag.unpack(e, k), k) for e in in_kernel.tolist()} == w
            assert np.array_equal(_reduced(got, k, k - 1), q.code_array)
            found.add(got.tobytes())
        out[w] = found
    return out


def _closed_lifts(q, gens):
    """(W, lift codes, sorted codes of G) for every lift _lifted_subgroups solves, each of order |q| |W|.

    G is closed from W's codes by the lifts alone, one lift at a time (a
    batch of every lift at level 3 would need one 2^18 array per lift).
    """
    k = q.level + 1
    for w, lifted in ag._lifted_subgroups(q, gens):
        [got] = ag._closure_codes([(ag._kernel_codes(w, k), lifted, q.order * len(w))], k)
        assert got is not None and got.size == q.order * len(w), "a solved lift left W or Q"
        yield w, lifted, got


def test_lift_solver_matches_closure_per_lift_oracle():
    # AGL_2(F_2) lifted to level 2 from a generating pair, and H_2 lifted to level 3;
    # two generators each keep the oracle's product over lifts at most 64^2 closures per W
    pair = [ag.AglElem(1, 0, 0, 0, 1, 1, 0), ag.AglElem(1, 0, 1, 1, 1, 0, 1)]
    agl1 = ag.closure(pair)
    assert agl1.codes == ag.full_agl(1).codes
    h2 = ag.closure(list(ag.H2_GENERATORS))
    for q, gens in ((agl1, pair), (h2, ag.H2_GENERATORS)):
        codes = [ag.pack(g.raw, q.level) for g in gens]
        solved = {w: [] for w in ag._stable_kernel_submodules()}
        for w, _, got in _closed_lifts(q, codes):
            solved[w].append(got.tobytes())
        want = _lift_oracle(q, codes)
        for w, found in solved.items():
            # each subgroup once (c_i is reduced mod W), non-kinetic ones included
            repeats = len(found) - len(set(found))
            assert repeats == 0, (q.level, sorted(w))
            assert set(found) == want[w], (q.level, sorted(w))
        # H_2 over AGL_2(F_2), H_3 over H_2, keyed in the code arrays' own dtype
        hk = ag.build_hk(q.level + 1).code_array
        assert hk.tobytes() in set().union(*want.values())


def test_h2_is_maximal_spot_check():
    # adjoining anything outside immediately generates the whole group
    rng = random.Random(8)
    outside = sorted(set(ag.full_agl(2).raw_elements()) - set(ag.h2().raw_elements()))
    for g in rng.sample(outside, 40):
        grown = ag.closure(list(ag.H2_GENERATORS) + [ag.AglElem(2, *g)])
        assert grown.order == 1536


def _lifted_quotients(k):
    """The quotients classify_kinetic lifts to level k, with the generators it reads off them."""
    quotients = [ag.full_agl(1)] if k == 2 else [c.representative for c in ag.classify_kinetic(2)]
    return [(q, ag._recover_generators(q)) for q in quotients]


def test_full_kernel_lifts_are_preimages():
    # a lift with W = K is the whole preimage of q, so it can be built with no closure;
    # the closure of its generators is the oracle
    count = 0
    for k in (2, 3):
        for q, gens in _lifted_quotients(k):
            for w, lifted in ag._lifted_subgroups(q, gens):
                if len(w) == 64:
                    got = ag._preimage(q.code_array, k - 1, k)
                    generated = ag._generated(lifted + ag._kernel_codes(w, k).tolist(), k)
                    assert np.array_equal(got, generated), (k, q.order)
                    count += 1
    assert count == 3  # one over AGL_2(F_2), one over each level-2 representative


def test_seeded_lift_closures_match_the_closure_of_lifts_and_w():
    # classify_kinetic closes all lifts of a quotient in one batch, each as W * <lifts>
    # from W's codes; the oracle closes the lifts and a basis of W from the identity
    # with inverse steps.  Every solved lift at level 2; at level 3 the lifts
    # classify_kinetic solves, against the tuple oracle over H_2 (over the full
    # group it takes 3 s) and against the engine's closure from the identity for both
    for k in (2, 3):
        min_order = 0 if k == 2 else ag.GL_ORDERS[k]
        checked = 0
        for q, gens in _lifted_quotients(k):
            lifts = list(ag._lifted_subgroups(q, gens, min_order=min_order))
            batch = [(ag._kernel_codes(w, k), lifted, q.order * len(w)) for w, lifted in lifts]
            for (w, lifted), got in zip(lifts, ag._closure_codes(batch, k)):
                assert got is not None and got.size == q.order * len(w)
                w_gens = ag._kernel_codes(ag._f2_echelon(w).values(), k).tolist()
                assert np.array_equal(got, ag._generated(lifted + w_gens, k))
                if k == 2 or q.order == 384:
                    want = _closure_oracle([ag.unpack(c, k) for c in lifted + w_gens], k)
                    assert set(got.tolist()) == {ag.pack(e, k) for e in want}, (k, q.order, sorted(w))
                    checked += 1
        assert checked == {2: 109, 3: 5}[k]


def test_kinetic_lifts_reach_the_pruning_bound():
    # classify_kinetic solves only W with |q| |W| >= |GL_2(Z/2^k)|; unpruned,
    # every kinetic lift meets that bound and they are exactly the members found
    for k in (2, 3):
        kinetic = 0
        for q, gens in _lifted_quotients(k):
            for w, _, got in _closed_lifts(q, gens):
                if ag._is_kinetic(got, k):
                    assert q.order * len(w) >= ag.GL_ORDERS[k], (k, q.order, len(w))
                    kinetic += 1
        assert kinetic == sum(c.members_found for c in ag.classify_kinetic(k)) == {2: 5, 3: 2}[k]


def _conjugates(t, codes, k):
    mask = (1 << k) - 1
    ti = ag._inv(t, k)
    for code in codes:
        yield ag.pack(ag._comp(ag._comp(t, ag.unpack(code, k), mask), ti, mask), k)


def _are_conjugate_oracle(s1, s2, k, transversal):
    """The first t of transversal, element by element, with t s1 t^-1 = s2, or None."""
    if s1.size != s2.size:
        return None
    probes = s1[:6].tolist()
    members = frozenset(s2.tolist())
    for t in (ag.unpack(code, k) for code in transversal.tolist()):
        if all(c in members for c in _conjugates(t, probes, k)):
            if frozenset(_conjugates(t, s1.tolist(), k)) == members:
                return t
    return None


def _check_conjugacy(s1, s2, k):
    transversal = ag.full_agl(k).code_array
    gens = ag._recover_generators(ag.SubgroupRep(k, s1))
    got = ag._are_conjugate(s1, gens, s2, k)
    assert got == _are_conjugate_oracle(s1, s2, k, transversal)
    if got is not None:
        assert sorted(_conjugates(got, s1.tolist(), k)) == s2.tolist()
    return got


def test_are_conjugate_matches_per_element_oracle():
    # the five level-2 kinetic lifts against both class representatives
    reps = [c.representative.code_array for c in ag.classify_kinetic(2)]
    q = ag.full_agl(1)
    lifts = [got for _, _, got in _closed_lifts(q, ag._recover_generators(q)) if ag._is_kinetic(got, 2)]
    assert len(lifts) == 5
    verdicts = [[_check_conjugacy(g, rep, 2) is not None for rep in reps] for g in lifts]
    assert sorted(verdicts) == [[False, True]] * 4 + [[True, False]]
    # H_3 against seeded conjugates t H_3 t^-1
    h3 = ag.build_hk(3).code_array
    rng = random.Random(29)
    for code in rng.sample(ag.full_agl(3).code_array.tolist(), 3):
        conj = np.array(sorted(_conjugates(ag.unpack(code, 3), h3.tolist(), 3)), dtype=np.int64)
        assert _check_conjugacy(h3, conj, 3) is not None
    # the mod-2 preimage of the matrices {(0, M)} has H_3's order and an image of order 6, not 24;
    # its first codes are probes no t conjugates into H_3 (the other way round every t keeps
    # H_3's probes, which have v = 0, in it, and the oracle checks all of H_3 for each t)
    matrices = ag.full_agl(1).code_array[:6]
    assert np.all(matrices < 16)
    other = ag._preimage(matrices, 1, 3)
    assert other.size == h3.size
    assert _check_conjugacy(other, h3, 3) is None
    # at level 2 that way round is cheap: all 384 t that keep H_2's probes in the
    # preimage fail the full-set check
    assert _check_conjugacy(ag.h2().code_array, ag._preimage(matrices, 1, 2), 2) is None
    assert _check_conjugacy(h3, ag.full_agl(3).code_array, 3) is None


def test_w_first_conjugacy_matches_the_oracle():
    # classify_kinetic passes _are_conjugate a lift's own generators, without W's:
    # seeded pairs of level-2 lifts of one order, with equal and with unequal W
    # (orders 96 to 384: the 64 lifts of order 24 all have W = 0 and are all conjugate)
    q = ag.full_agl(1)
    lifts = [lift for lift in _closed_lifts(q, ag._recover_generators(q)) if 96 <= lift[2].size <= 384]
    pairs = [(a, b) for a, b in itertools.permutations(lifts, 2) if a[2].size == b[2].size]
    rng = random.Random(41)
    same_w = rng.sample([p for p in pairs if p[0][0] == p[1][0]], 12)
    other_w = rng.sample([p for p in pairs if p[0][0] != p[1][0]], 6)
    transversal = ag.full_agl(2).code_array
    verdicts = []
    for (w1, lifted, s1), (w2, _, s2) in same_w + other_w:
        got = ag._are_conjugate(s1, lifted, s2, 2)
        assert got == _are_conjugate_oracle(s1, s2, 2, transversal), (sorted(w1), sorted(w2))
        if got is not None:
            assert sorted(_conjugates(got, s1.tolist(), 2)) == s2.tolist()
        verdicts.append((w1 == w2, got is not None))
    # unequal kernel parts are never conjugate; equal ones are, or are not
    assert set(verdicts) == {(True, True), (True, False), (False, False)}


def test_are_conjugate_probes_generators_only(monkeypatch):
    # H_3 against the mod-2 preimage of {(0, M)}: a quarter of all t keep H_3's six
    # leading codes in it, and checking all of H_3 for each such t took 22.9 s;
    # where t sends H_3's generators settles every t in one pass of |transversal| x |gens|
    h3 = ag.build_hk(3)
    other = ag._preimage(ag.full_agl(1).code_array[:6], 1, 3)
    gens = ag._recover_generators(h3)
    transversal = ag.full_agl(3).code_array
    shapes = []
    comp = ag._comp

    def spy(a, b, mask):
        got = comp(a, b, mask)
        shapes.append(np.shape(got[0]))
        return got

    monkeypatch.setattr(ag, "_comp", spy)
    assert ag._are_conjugate(h3.code_array, gens, other, 3) is None
    assert shapes and set(shapes) == {(transversal.size, len(gens))}


def _preimage_oracle(codes, r, k):
    """One broadcast of every lift 2^r t onto every code, then one full sort."""
    lifts = ag._repack(np.arange(1 << 6 * (k - r), dtype=np.int64), k - r, k) << r
    return np.sort((ag._repack(codes, r, k)[:, None] + lifts[None, :]).ravel())


def test_preimage_matches_broadcast_and_sort_oracle():
    for codes, r, levels in ((ag.h2().code_array, 2, (2, 3, 4)), (ag.full_agl(1).code_array, 1, (1, 2, 3))):
        for k in levels:
            assert np.array_equal(ag._preimage(codes, r, k), _preimage_oracle(codes, r, k)), (r, k)
    # the code arrays as built before the block sort, by SHA-256 prefix of their little-endian bytes
    pinned = {
        ag.full_agl(1): "26c84c724513f5fb",
        ag.full_agl(2): "3256fe6a73183c81",
        ag.full_agl(3): "1a40bda1cbc15e70",
        ag.build_hk(3): "c5bba535625112d4",
        ag.build_hk(4): "0eaf67fd1ab71a92",
    }
    for rep, prefix in pinned.items():
        assert hashlib.sha256(rep.code_array.astype("<i8").tobytes()).hexdigest()[:16] == prefix, rep.level


def test_kernel_squaring_identity():
    # (2^j u, I + 2^j A)^2 = (2^(j+1) u, I + 2^(j+1) A) mod 2^(j+2) for j >= 2: the
    # square adds 2^(2j) (A u, A^2), which vanishes mod 2^(j+2) exactly when j >= 2.
    # It holds for every lift of kappa(c) from level j + 1, which is why a closed
    # subgroup is the full preimage of its level-3 image once that image contains K
    rng = random.Random(5)
    for k in range(4, 9):
        j, mask = k - 2, (1 << k) - 1
        for c in range(64):
            e = ag._kernel_elem(c, j + 1)  # 2^j times the code's bits
            assert ag._comp(e, e, mask) == ag._kernel_elem(c, j + 2), (k, c)
            for _ in range(50):
                g = tuple(x + (rng.randrange(1 << k) << (j + 1)) for x in e)
                assert ag._comp(g, g, mask) == ag._kernel_elem(c, j + 2), (k, c, g)
    # j = 1 is too low: A = [[0, 1], [1, 0]] has A^2 = I, so the square picks up 4 I mod 8
    e = ag._kernel_elem(0b000110, 2)
    assert ag._comp(e, e, 7) != ag._kernel_elem(0b000110, 3)
