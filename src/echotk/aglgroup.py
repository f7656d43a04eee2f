"""The affine groups (Z/2^k)^2 x| GL_2(Z/2^k) and their kinetic subgroups.

Elements are pairs (v, M) composing as (v1 + M1*v2, M1*M2).  A subgroup is
*kinetic* when it surjects both onto the matrix quotient GL_2(Z/2^k) and
onto the full level-1 affine group (order 24).  The module builds the
distinguished index-4 subgroup H_k (the mod-4 preimage of a fixed H_2),
and classifies ALL kinetic subgroups at levels 2 and 3 by exhaustive
search: the expected outcome is exactly two conjugacy classes, the full
group and H_k.

Internally elements are flat 6-tuples (v0, v1, m00, m01, m10, m11) reduced
mod 2^k, packed into single integers when stored in bulk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

Elem = tuple  # (v0, v1, m00, m01, m10, m11)


class LevelMismatchError(ValueError):
    pass


class ResourceBudgetError(RuntimeError):
    """Classification exceeded its configured time or size budget."""


class AglElem(NamedTuple):
    """(v, M) at level k: v = (v0, v1), M = [[m00, m01], [m10, m11]], det M odd."""

    k: int
    v0: int
    v1: int
    m00: int
    m01: int
    m10: int
    m11: int

    @property
    def raw(self) -> Elem:
        return self[1:]


def identity(k: int) -> AglElem:
    return AglElem(k, 0, 0, 1, 0, 0, 1)


def _comp(a: Elem, b: Elem, mask: int) -> Elem:
    a0, a1, a00, a01, a10, a11 = a
    b0, b1, b00, b01, b10, b11 = b
    return (
        (a0 + a00 * b0 + a01 * b1) & mask,
        (a1 + a10 * b0 + a11 * b1) & mask,
        (a00 * b00 + a01 * b10) & mask,
        (a00 * b01 + a01 * b11) & mask,
        (a10 * b00 + a11 * b10) & mask,
        (a10 * b01 + a11 * b11) & mask,
    )


def _inv(a: Elem, k: int) -> Elem:
    mask = (1 << k) - 1
    a0, a1, a00, a01, a10, a11 = a
    det = (a00 * a11 - a01 * a10) & mask
    di = pow(det, -1, 1 << k)
    n00, n01 = a11 * di & mask, -a01 * di & mask
    n10, n11 = -a10 * di & mask, a00 * di & mask
    return (-(n00 * a0 + n01 * a1) & mask, -(n10 * a0 + n11 * a1) & mask, n00, n01, n10, n11)


def compose(e1: AglElem, e2: AglElem) -> AglElem:
    if e1.k != e2.k:
        raise LevelMismatchError(f"levels {e1.k} and {e2.k}")
    return AglElem(e1.k, *_comp(e1.raw, e2.raw, (1 << e1.k) - 1))


def inverse(e: AglElem) -> AglElem:
    return AglElem(e.k, *_inv(e.raw, e.k))


def pack(raw: Elem, k: int) -> int:
    code = 0
    for part in raw:
        code = (code << k) | part
    return code


def unpack(code: int, k: int) -> Elem:
    mask = (1 << k) - 1
    parts = []
    for _ in range(6):
        parts.append(code & mask)
        code >>= k
    return tuple(reversed(parts))


def _reduce_raw(raw: Elem, k_to: int) -> Elem:
    mask = (1 << k_to) - 1
    return tuple(x & mask for x in raw)


GL_ORDERS = {k: 6 * 16 ** (k - 1) for k in range(1, 8)}
AGL_ORDERS = {k: 24 * 64 ** (k - 1) for k in range(1, 8)}


def _closure_raw(
    gens: Iterable[Elem],
    k: int,
    max_size: Optional[int] = None,
    kernel_guard=None,
) -> Optional[set]:
    """BFS orbit of the identity under right-multiplication by gens and inverses.

    kernel_guard, when given, is a predicate new elements must satisfy; a
    violation aborts the closure and returns None (used by the classifiers
    to discard inconsistent lifts early).
    """
    mask = (1 << k) - 1
    step = []
    for g in gens:
        g = tuple(x & mask for x in g)
        step.append(g)
        step.append(_inv(g, k))
    ident = (0, 0, 1, 0, 0, 1)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in step:
                x = _comp(e, g, mask)
                if x not in seen:
                    if kernel_guard is not None and not kernel_guard(x):
                        return None
                    seen.add(x)
                    new.append(x)
                    if max_size is not None and len(seen) > max_size:
                        return None
        frontier = new
    return seen


@dataclass(frozen=True)
class SubgroupRep:
    """A concrete subgroup: level, generators, and its full element set."""

    level: int
    generators: tuple[AglElem, ...]
    codes: frozenset[int] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.codes)

    def contains(self, e: AglElem) -> bool:
        if e.k != self.level:
            raise LevelMismatchError(f"element level {e.k}, subgroup level {self.level}")
        return pack(e.raw, self.level) in self.codes

    def elements(self) -> Iterable[AglElem]:
        for code in self.codes:
            yield AglElem(self.level, *unpack(code, self.level))

    def raw_elements(self) -> Iterable[Elem]:
        for code in self.codes:
            yield unpack(code, self.level)

    def reduce(self, k_to: int) -> "SubgroupRep":
        """Image under coordinate-wise reduction mod 2^k_to."""
        if not 1 <= k_to <= self.level:
            raise ValueError("can only reduce to a lower level")
        reduced = {pack(_reduce_raw(raw, k_to), k_to) for raw in self.raw_elements()}
        gens = tuple(AglElem(k_to, *_reduce_raw(g.raw, k_to)) for g in self.generators)
        return SubgroupRep(k_to, gens, frozenset(reduced))

    def matrix_image_size(self) -> int:
        return len({raw[2:] for raw in self.raw_elements()})

    def mod2_image_size(self) -> int:
        return len({_reduce_raw(raw, 1) for raw in self.raw_elements()})


def _wrap(level: int, gens: Sequence[AglElem], raw_set: set) -> SubgroupRep:
    return SubgroupRep(level, tuple(gens), frozenset(pack(r, level) for r in raw_set))


def closure(gens: Sequence[AglElem], max_size: Optional[int] = None) -> SubgroupRep:
    """Subgroup generated by gens; raises if max_size would be exceeded."""
    if not gens:
        raise ValueError("need at least one generator")
    k = gens[0].k
    if any(g.k != k for g in gens):
        raise LevelMismatchError("generators at mixed levels")
    out = _closure_raw([g.raw for g in gens], k, max_size=max_size)
    if out is None:
        raise ResourceBudgetError(f"closure exceeded the size cap {max_size}")
    return _wrap(k, gens, out)


def is_kinetic(g: SubgroupRep) -> bool:
    """Surjective onto both GL_2(Z/2^k) and the full level-1 affine group."""
    return (
        g.matrix_image_size() == GL_ORDERS[g.level]
        and g.mod2_image_size() == AGL_ORDERS[1]
    )


# ---------------------------------------------------------------------------
# the fixed representative H_2 and its preimage tower

H2_GENERATORS = (
    AglElem(2, 1, 2, 2, 1, 3, 0),
    AglElem(2, 3, 3, 2, 3, 1, 3),
)


@lru_cache(maxsize=None)
def h2() -> SubgroupRep:
    rep = closure(H2_GENERATORS)
    assert rep.order == 384
    return rep


def hk_contains(e: AglElem) -> bool:
    """Membership in H_k at any level k >= 2: reduce mod 4 and test against H_2."""
    if e.k < 2:
        raise ValueError("H_k is defined for k >= 2")
    return pack(_reduce_raw(e.raw, 2), 2) in h2().codes


def _kernel_generators(k: int) -> list[AglElem]:
    # generators of ker(level k -> level 2): translations by 4*e_i and
    # unipotent matrices I + 4*E_rs
    gens = [AglElem(k, 4, 0, 1, 0, 0, 1), AglElem(k, 0, 4, 1, 0, 0, 1)]
    for pos in range(4):
        m = [1, 0, 0, 1]
        m[pos] += 4
        gens.append(AglElem(k, 0, 0, *m))
    return gens


def _gl_matrices(k: int) -> np.ndarray:
    """GL_2(Z/2^k) as rows (m00, m01, m10, m11) of an int64 array, in lexicographic order."""
    m = np.indices((1 << k,) * 4, dtype=np.int64).reshape(4, -1).T
    return m[(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]) & 1 == 1]


@lru_cache(maxsize=None)
def build_hk(k: int) -> SubgroupRep:
    """H_k as the full preimage of H_2 under reduction mod 4 (2 <= k <= 4).

    Every coordinate of an element is its mod-4 part plus 4 times a free
    value in [0, 2^(k-2)), so the codes are those of H_2's elements
    re-packed at k bits plus those of 4*t for every t in [0, 2^(k-2))^6.
    """
    if k < 2:
        raise ValueError("H_k is defined for k >= 2")
    if k == 2:
        return h2()
    if k > 4:
        raise ResourceBudgetError("H_k materialization is capped at k = 4; use hk_contains")
    gens = [AglElem(k, *g.raw) for g in H2_GENERATORS] + _kernel_generators(k)
    weights = 1 << (k * np.arange(5, -1, -1, dtype=np.int64))
    base = np.array(list(h2().raw_elements()), dtype=np.int64) @ weights
    lifts = 4 * np.indices((1 << (k - 2),) * 6, dtype=np.int64).reshape(6, -1).T @ weights
    codes = (base[:, None] + lifts[None, :]).ravel()
    return SubgroupRep(k, tuple(gens), frozenset(codes.tolist()))


# ---------------------------------------------------------------------------
# generating pairs and full groups


def _search_generating_pair(elements: list, k: int, target: int, seed: int = 7):
    """Find (deterministically) a pair of elements generating the whole list."""
    import random as _random

    rng = _random.Random(seed)
    pool = sorted(elements)
    for _ in range(20000):
        a, b = rng.choice(pool), rng.choice(pool)
        got = _closure_raw([a, b], k, max_size=target)
        if got is not None and len(got) == target:
            return a, b
    raise AssertionError(f"no generating pair found at level {k} (target {target})")


@lru_cache(maxsize=None)
def full_agl(k: int) -> SubgroupRep:
    """The whole affine group at level k <= 3, materialized."""
    if k > 3:
        raise ResourceBudgetError("full group materialization is capped at k = 3")
    gens = [
        AglElem(k, 1, 0, 1, 0, 0, 1),
        AglElem(k, 0, 1, 1, 0, 0, 1),
        AglElem(k, 0, 0, 1, 1, 0, 1),
        AglElem(k, 0, 0, 1, 0, 1, 1),
        # diag(u, 1) for units generating (Z/2^k)^*
        AglElem(k, 0, 0, (1 << k) - 1, 0, 0, 1),
        AglElem(k, 0, 0, 3 & ((1 << k) - 1), 0, 0, 1),
    ]
    rep = closure(gens)
    assert rep.order == AGL_ORDERS[k]
    return rep


@lru_cache(maxsize=None)
def gl_generating_pair(k: int) -> tuple:
    """A verified generating pair for GL_2(Z/2^k), as matrix 4-tuples."""
    # matrix-only search piggybacks on the affine closure with v = 0
    elems = [(0, 0, *m) for m in _gl_matrices(k).tolist()]
    a, b = _search_generating_pair(elems, k, GL_ORDERS[k], seed=11)
    return a[2:], b[2:]


@lru_cache(maxsize=None)
def agl_generating_pair(k: int) -> tuple[AglElem, AglElem]:
    """A verified generating pair for the full affine group at level k."""
    elems = [raw for raw in full_agl(k).raw_elements()]
    a, b = _search_generating_pair(elems, k, AGL_ORDERS[k], seed=13)
    return AglElem(k, *a), AglElem(k, *b)


# ---------------------------------------------------------------------------
# kinetic classification, level 2


def _vector_subgroups(k: int) -> list[frozenset]:
    mod = 1 << k
    vectors = [(v0, v1) for v0 in range(mod) for v1 in range(mod)]
    subs = set()
    for w1 in vectors:
        for w2 in vectors:
            span = {(0, 0)}
            frontier = [(0, 0)]
            while frontier:
                cur = frontier.pop()
                for w in (w1, w2):
                    nxt = ((cur[0] + w[0]) % mod, (cur[1] + w[1]) % mod)
                    if nxt not in span:
                        span.add(nxt)
                        frontier.append(nxt)
            subs.add(frozenset(span))
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def _stable_vector_subgroups(k: int) -> list[frozenset]:
    g1, g2 = gl_generating_pair(k)
    mod = 1 << k
    out = []
    for sub in _vector_subgroups(k):
        ok = True
        for m00, m01, m10, m11 in (g1, g2):
            img = {((m00 * v0 + m01 * v1) % mod, (m10 * v0 + m11 * v1) % mod) for v0, v1 in sub}
            if img != sub:
                ok = False
                break
        if ok:
            out.append(sub)
    return out


def _translation_part(raw_set: set) -> frozenset:
    return frozenset((e[0], e[1]) for e in raw_set if e[2:] == (1, 0, 0, 1))


def _conjugate_set(t: Elem, raw_set: set, k: int) -> frozenset:
    mask = (1 << k) - 1
    ti = _inv(t, k)
    return frozenset(_comp(_comp(t, e, mask), ti, mask) for e in raw_set)


def _are_conjugate(s1: set, s2: set, k: int, transversal: list) -> Optional[Elem]:
    if len(s1) != len(s2):
        return None
    mask = (1 << k) - 1
    probes = sorted(s1)[: min(6, len(s1))]
    for t in transversal:
        ti = _inv(t, k)
        if all(_comp(_comp(t, e, mask), ti, mask) in s2 for e in probes):
            if _conjugate_set(t, s1, k) == s2:
                return t
    return None


@dataclass(frozen=True)
class KineticClass:
    """One conjugacy class of kinetic subgroups, with a chosen representative."""

    representative: SubgroupRep
    members_found: int

    @property
    def order(self) -> int:
        return self.representative.order


def classify_kinetic(k: int, budget_seconds: float = 3600.0) -> list[KineticClass]:
    """All kinetic subgroups at level k in {2, 3}, up to conjugacy.

    Exhaustive: a kinetic subgroup surjects onto the matrix quotient, so it
    is generated by its intersection with a stable kernel subgroup together
    with lifts of a generating pair of the quotient; the search runs over
    all such combinations.  Classes come back sorted by descending order.
    """
    if k == 2:
        groups = _classify_level2(budget_seconds)
    elif k == 3:
        groups = _classify_level3(budget_seconds)
    else:
        raise ValueError("classification is implemented for k in {2, 3}")
    transversal = sorted(full_agl(k).raw_elements())
    classes: list[list[set]] = []
    for g in groups:
        for members in classes:
            if _are_conjugate(g, members[0], k, transversal) is not None:
                members.append(g)
                break
        else:
            classes.append([g])
    # pick the canonical subgroup as representative whenever its class shows up
    canonical = frozenset(build_hk(k).raw_elements()) if k in (2, 3) else frozenset()
    wrapped = []
    for members in classes:
        rep = next((m for m in members if frozenset(m) == canonical), members[0])
        gens = _recover_generators(rep, k)
        wrapped.append(KineticClass(_wrap(k, gens, rep), len(members)))
    wrapped.sort(key=lambda c: -c.order)
    return wrapped


def _recover_generators(raw_set: set, k: int) -> list[AglElem]:
    """A small verified generating set for a concrete subgroup."""
    target = len(raw_set)
    ordered = sorted(raw_set)
    gens: list[Elem] = []
    have = {(0, 0, 1, 0, 0, 1)}
    for e in ordered:
        if e not in have:
            gens.append(e)
            have = _closure_raw(gens, k, max_size=target)
            if len(have) == target:
                return [AglElem(k, *g) for g in gens]
    return [AglElem(k, *g) for g in gens]


def _classify_level2(budget_seconds: float) -> list[set]:
    deadline = time.monotonic() + budget_seconds
    g1, g2 = gl_generating_pair(2)
    vectors = [(v0, v1) for v0 in range(4) for v1 in range(4)]
    found: dict[frozenset, set] = {}
    for w_sub in _stable_vector_subgroups(2):
        w_gens = [(w0, w1, 1, 0, 0, 1) for (w0, w1) in sorted(w_sub) if (w0, w1) != (0, 0)]
        for v1 in vectors:
            for v2 in vectors:
                if time.monotonic() > deadline:
                    raise ResourceBudgetError("level-2 classification budget exceeded")
                gens = [v1 + g1, v2 + g2] + w_gens
                got = _closure_raw(gens, 2, max_size=AGL_ORDERS[2])
                if got is None:
                    continue
                if _translation_part(got) != w_sub:
                    continue
                rep = _wrap(2, [], got)
                if is_kinetic(rep):
                    found.setdefault(frozenset(got), set(got))
    return list(found.values())


def _level3_kernel_elements() -> list[Elem]:
    out = []
    for u0 in range(2):
        for u1 in range(2):
            for a00 in range(2):
                for a01 in range(2):
                    for a10 in range(2):
                        for a11 in range(2):
                            out.append(
                                (4 * u0, 4 * u1, 1 + 4 * a00, 4 * a01, 4 * a10, 1 + 4 * a11)
                            )
    return out


def _kernel_bits(e: Elem) -> int:
    # (4u, I + 4A) -> 6-bit code (u0 u1 a00 a01 a10 a11)
    u0, u1 = e[0] >> 2, e[1] >> 2
    a00, a01 = (e[2] - 1) >> 2, e[3] >> 2
    a10, a11 = e[4] >> 2, (e[5] - 1) >> 2
    code = 0
    for b in (u0, u1, a00, a01, a10, a11):
        code = (code << 1) | b
    return code


def _bits_to_kernel(code: int) -> Elem:
    bits = [(code >> (5 - i)) & 1 for i in range(6)]
    u0, u1, a00, a01, a10, a11 = bits
    return (4 * u0, 4 * u1, 1 + 4 * a00, 4 * a01, 4 * a10, 1 + 4 * a11)


def _stable_kernel_submodules() -> list[frozenset]:
    """Subspaces of the 64-element level-3 kernel stable under the level-1 action.

    Conjugating (4u, I+4A) by any lift of a level-1 element (v, M) gives
    (4(Mu + M A M^-1 v), I + 4 M A M^-1) mod 8, so stability only depends
    on the level-1 affine group, which any kinetic subgroup covers.
    """
    level1 = sorted(full_agl(1).raw_elements())
    action = {}
    for t in level1:
        v0, v1, m00, m01, m10, m11 = t
        det = (m00 * m11 - m01 * m10) & 1
        assert det == 1
        i00, i01, i10, i11 = m11, m01, m10, m00  # inverse over F_2
        table = []
        for code in range(64):
            u0 = (code >> 5) & 1
            u1 = (code >> 4) & 1
            a00 = (code >> 3) & 1
            a01 = (code >> 2) & 1
            a10 = (code >> 1) & 1
            a11 = code & 1
            # B = M A M^-1, then image is (M u + B v, B)
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
            table.append((w0 << 5) | (w1 << 4) | (b00 << 3) | (b01 << 2) | (b10 << 1) | b11)
        action[t] = table

    def module_closure(codes: set) -> frozenset:
        span = {0} | set(codes)
        changed = True
        while changed:
            changed = False
            cur = list(span)
            for x in cur:
                for y in cur:
                    if (x ^ y) not in span:
                        span.add(x ^ y)
                        changed = True
                for table in action.values():
                    if table[x] not in span:
                        span.add(table[x])
                        changed = True
        return frozenset(span)

    submods = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for sub in frontier:
            for v in range(1, 64):
                if v not in sub:
                    bigger = module_closure(set(sub) | {v})
                    if bigger not in submods:
                        submods.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted(submods, key=lambda s: (len(s), sorted(s)))


def _classify_level3(budget_seconds: float) -> list[set]:
    deadline = time.monotonic() + budget_seconds
    id2_code = pack((0, 0, 1, 0, 0, 1), 2)
    kernel_codes_all = set(range(64))

    def quotient_generating_pairs():
        # the mod-4 image of a kinetic subgroup is kinetic, hence (up to
        # conjugacy, by the level-2 classification) the full group or H_2
        a, b = agl_generating_pair(2)
        yield "full", (a.raw, b.raw)
        g1, g2 = H2_GENERATORS
        yield "h2", (g1.raw, g2.raw)

    found: dict[frozenset, set] = {}
    for _label, (q1, q2) in quotient_generating_pairs():
        lift1 = q1  # entries mod 4 are already valid mod 8
        lift2 = q2
        for w_sub in _stable_kernel_submodules():
            w_elems = [_bits_to_kernel(c) for c in sorted(w_sub)]
            w_set = set(w_sub)
            # transversal of W in the kernel
            reps = []
            covered = set()
            for c in sorted(kernel_codes_all):
                if c not in covered:
                    reps.append(c)
                    covered |= {c ^ w for w in w_set}

            def guard(e: Elem) -> bool:
                # any element reducing to the identity mod 4 must lie in W
                if pack(_reduce_raw(e, 2), 2) != id2_code:
                    return True
                return _kernel_bits(e) in w_set

            cap = AGL_ORDERS[2] * len(w_sub)  # |Q| * |W| upper bound for a valid lift
            w_gens = [e for e in w_elems if _kernel_bits(e) != 0]
            for c1 in reps:
                for c2 in reps:
                    if time.monotonic() > deadline:
                        raise ResourceBudgetError("level-3 classification budget exceeded")
                    mask = 7
                    n1 = _comp(_bits_to_kernel(c1), lift1, mask)
                    n2 = _comp(_bits_to_kernel(c2), lift2, mask)
                    got = _closure_raw([n1, n2] + w_gens, 3, max_size=cap, kernel_guard=guard)
                    if got is None:
                        continue
                    rep = _wrap(3, [], got)
                    if is_kinetic(rep):
                        found.setdefault(frozenset(got), set(got))
    return list(found.values())


# ---------------------------------------------------------------------------
# coset structure of H_2


def _matrix_closure(gens: list[tuple], k: int) -> set:
    affine = [(0, 0) + g for g in gens]
    got = _closure_raw(affine, k)
    return {e[2:] for e in got}


J_GENERATORS = ((0, 3, 1, 0), (1, 3, 3, 0))
COSET_SHIFTS = {
    (0, 0): (1, 0, 0, 1),
    (0, 1): (1, 3, 0, 1),
    (1, 0): (1, 2, 0, 1),
    (1, 1): (1, 1, 0, 1),
}


def _mat_mul(a: tuple, b: tuple, mask: int) -> tuple:
    return (
        (a[0] * b[0] + a[1] * b[2]) & mask,
        (a[0] * b[1] + a[1] * b[3]) & mask,
        (a[2] * b[0] + a[3] * b[2]) & mask,
        (a[2] * b[1] + a[3] * b[3]) & mask,
    )


def _sylow3_is_normal_and_nonabelian(mats: set) -> bool:
    mask = 3
    order3 = [m for m in mats if m != (1, 0, 0, 1) and _mat_pow(m, 3, mask) == (1, 0, 0, 1)]
    nonabelian = any(
        _mat_mul(a, b, mask) != _mat_mul(b, a, mask) for a in mats for b in mats
    )
    # a unique Sylow-3 subgroup of order 3 shows up as exactly two order-3 elements
    return nonabelian and len(order3) == 2


def _mat_pow(m: tuple, n: int, mask: int) -> tuple:
    out = (1, 0, 0, 1)
    for _ in range(n):
        out = _mat_mul(out, m, mask)
    return out


def coset_structure_check(
    h: Optional[SubgroupRep] = None, j_mats: Optional[set] = None
) -> bool:
    """Verify H_2 = disjoint union over parities (i,j) of V_{i,j} x (shift_ij * J).

    J is the order-24 matrix subgroup generated by J_GENERATORS; the check
    also demands the structural witnesses |J| = 24, J nonabelian, and a
    normal Sylow-3 subgroup.
    """
    h = h or h2()
    if h.level != 2 or h.order != 384:
        return False
    j = j_mats if j_mats is not None else _matrix_closure(list(J_GENERATORS), 2)
    if len(j) != 24 or not _sylow3_is_normal_and_nonabelian(j):
        return False
    cells: dict[tuple, set] = {par: set() for par in COSET_SHIFTS}
    for raw in h.raw_elements():
        cells[(raw[0] & 1, raw[1] & 1)].add(raw)
    vectors = {
        par: {(v0, v1) for v0 in range(4) for v1 in range(4) if (v0 & 1, v1 & 1) == par}
        for par in COSET_SHIFTS
    }
    for par, shift in COSET_SHIFTS.items():
        coset = {_mat_mul(shift, m, 3) for m in j}
        expected = {(v0, v1) + m for (v0, v1) in vectors[par] for m in coset}
        if cells[par] != expected:
            return False
    return True
