"""The affine groups (Z/2^k)^2 x| GL_2(Z/2^k) and their kinetic subgroups.

Elements are pairs (v, M) composing as (v1 + M1*v2, M1*M2).  A subgroup is
*kinetic* when it surjects both onto the matrix quotient GL_2(Z/2^k) and
onto the full level-1 affine group (order 24).  The module builds the
distinguished index-4 subgroup H_k (the mod-4 preimage of a fixed H_2),
and classifies ALL kinetic subgroups at levels 2 and 3 by exhaustive
search: the expected outcome is exactly two conjugacy classes, the full
group and H_k.

Internally an element is a flat 6-tuple (v0, v1, m00, m01, m10, m11) reduced
mod 2^k, packed big-endian into a 6k-bit integer code: the vector sits in the
top 2k bits and the matrix in the low 4k bits, so code order is tuple order.
Subgroups are computed on codes.  The closure engine is a numpy frontier BFS
from the identity: right multiplication by (b, B) sends (a, A) to
(a + A*b, A*B), so each generator contributes two tables over the 2^(4k)
matrix codes (A*b and A*B) and one shared table adds vectors; a BFS step is
a few gathers over the frontier, deduplicated against a boolean array over
all 2^(6k) codes.  Matrix and mod-2 images are reductions over code arrays.
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

IDENTITY_RAW = (0, 0, 1, 0, 0, 1)


def _repack(codes: np.ndarray, k: int, k_to: int) -> np.ndarray:
    """Level-k codes re-packed at k_to bits per field (mod 2^k_to when k_to < k)."""
    mask = (1 << min(k, k_to)) - 1
    out = np.zeros_like(codes)
    for i in range(6):
        out |= ((codes >> (i * k)) & mask) << (i * k_to)
    return out


def _distinct(values: np.ndarray, size: int) -> np.ndarray:
    """Sorted distinct entries of an array of integers in [0, size)."""
    mark = np.zeros(size, dtype=bool)
    mark[values] = True
    return np.flatnonzero(mark)


def _matrix_image_size(codes: np.ndarray, k: int) -> int:
    return _distinct(codes & ((1 << 4 * k) - 1), 1 << 4 * k).size


def _mod2_image_size(codes: np.ndarray, k: int) -> int:
    return _distinct(_repack(codes, k, 1), 64).size


def _is_kinetic(codes: np.ndarray, k: int) -> bool:
    return _matrix_image_size(codes, k) == GL_ORDERS[k] and _mod2_image_size(codes, k) == AGL_ORDERS[1]


@lru_cache(maxsize=None)
def _vector_sum_table(k: int) -> np.ndarray:
    """Entry (a << 2k) | c is the code of the vector a + c, shifted into a code's vector field."""
    mask, half = (1 << k) - 1, 2 * k
    idx = np.arange(1 << 2 * half, dtype=np.int64)
    a, c = idx >> half, idx & ((1 << half) - 1)
    total = (((((a >> k) + (c >> k)) & mask) << k) | ((a + c) & mask)) << 2 * half
    total.flags.writeable = False  # cached and shared by every closure
    return total


@lru_cache(maxsize=1024)
def _right_tables(code: int, k: int) -> np.ndarray:
    """Rows (A*b, A*B) over every matrix code A: the vector and matrix codes, (b, B) = code."""
    mask = (1 << k) - 1
    b0, b1, n00, n01, n10, n11 = unpack(code, k)
    m = np.arange(1 << 4 * k, dtype=np.int64)
    a00, a01, a10, a11 = (m >> 3 * k) & mask, (m >> 2 * k) & mask, (m >> k) & mask, m & mask
    ab = (((a00 * b0 + a01 * b1) & mask) << k) | ((a10 * b0 + a11 * b1) & mask)
    prod = (
        (((a00 * n00 + a01 * n10) & mask) << 3 * k)
        | (((a00 * n01 + a01 * n11) & mask) << 2 * k)
        | (((a10 * n00 + a11 * n10) & mask) << k)
        | ((a10 * n01 + a11 * n11) & mask)
    )
    tables = np.stack([ab, prod]).astype(np.int32)
    tables.flags.writeable = False  # cached and shared by every closure
    return tables


def _closure_codes(
    gens: Iterable[int],
    k: int,
    max_size: Optional[int] = None,
    allowed: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Sorted codes of the subgroup generated by the element codes gens.

    BFS from the identity under right multiplication by each generator and
    its inverse.  Returns None when the subgroup has more than max_size
    elements, or when allowed (a boolean array over all codes) is given and
    some element other than the identity falls outside it (the classifiers
    use this to discard inconsistent lifts early).
    """
    steps: list[int] = []
    for g in gens:
        for h in (g, pack(_inv(unpack(g, k), k), k)):
            if h not in steps:
                steps.append(h)
    tables = np.stack([_right_tables(h, k) for h in steps])
    ab, prod = tables[:, 0], tables[:, 1]
    vector_sum = _vector_sum_table(k)
    matrix_mask = (1 << 4 * k) - 1
    seen = np.zeros(1 << 6 * k, dtype=bool)
    slot = np.empty(1 << 6 * k, dtype=np.int64)
    frontier = np.array([pack(IDENTITY_RAW, k)], dtype=np.int64)
    seen[frontier] = True
    size = 1
    while frontier.size:
        mat = frontier & matrix_mask
        vec = (frontier >> 4 * k) << 2 * k
        cand = (vector_sum[vec | ab[:, mat]] | prod[:, mat]).ravel()
        cand = cand[~seen[cand]]
        # one survivor per distinct code: whichever position's write to slot stuck
        pos = np.arange(cand.size)
        slot[cand] = pos
        frontier = cand[slot[cand] == pos]
        size += frontier.size
        if max_size is not None and size > max_size:
            return None
        if allowed is not None and not allowed[frontier].all():
            return None
        seen[frontier] = True
    return np.flatnonzero(seen)


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

    def code_array(self) -> np.ndarray:
        """The codes as a fresh int64 array (built on demand, never cached)."""
        return np.fromiter(self.codes, np.int64, len(self.codes))

    def reduce(self, k_to: int) -> "SubgroupRep":
        """Image under coordinate-wise reduction mod 2^k_to."""
        if not 1 <= k_to <= self.level:
            raise ValueError("can only reduce to a lower level")
        reduced = _distinct(_repack(self.code_array(), self.level, k_to), 1 << 6 * k_to)
        gens = tuple(AglElem(k_to, *_reduce_raw(g.raw, k_to)) for g in self.generators)
        return SubgroupRep(k_to, gens, frozenset(reduced.tolist()))

    def matrix_image_size(self) -> int:
        return _matrix_image_size(self.code_array(), self.level)

    def mod2_image_size(self) -> int:
        return _mod2_image_size(self.code_array(), self.level)


def closure(gens: Sequence[AglElem], max_size: Optional[int] = None) -> SubgroupRep:
    """Subgroup generated by gens; raises if max_size would be exceeded."""
    if not gens:
        raise ValueError("need at least one generator")
    k = gens[0].k
    if any(g.k != k for g in gens):
        raise LevelMismatchError("generators at mixed levels")
    out = _closure_codes([pack(_reduce_raw(g.raw, k), k) for g in gens], k, max_size=max_size)
    if out is None:
        raise ResourceBudgetError(f"closure exceeded the size cap {max_size}")
    return SubgroupRep(k, tuple(gens), frozenset(out.tolist()))


def is_kinetic(g: SubgroupRep) -> bool:
    """Surjective onto both GL_2(Z/2^k) and the full level-1 affine group."""
    return _is_kinetic(g.code_array(), g.level)


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
    base = _repack(h2().code_array(), 2, k)
    lifts = _repack(np.arange(1 << 6 * (k - 2), dtype=np.int64), k - 2, k) << 2
    codes = (base[:, None] + lifts[None, :]).ravel()
    return SubgroupRep(k, tuple(gens), frozenset(codes.tolist()))


# ---------------------------------------------------------------------------
# generating pairs and full groups


def _search_generating_pair(codes: Iterable[int], k: int, target: int, seed: int = 7):
    """Find (deterministically) a pair of element codes generating a group of order target."""
    import random as _random

    rng = _random.Random(seed)
    pool = sorted(codes)
    for _ in range(20000):
        a, b = rng.choice(pool), rng.choice(pool)
        got = _closure_codes([a, b], k, max_size=target)
        if got is not None and got.size == target:
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


def _check_two_generated(k: int) -> None:
    """GL_2(Z/2^k) and AGL_2(Z/2^k) have generating pairs only for k <= 2.

    From k = 3 on, both map onto GL_2(Z/8), which maps onto C2^3 by the
    determinant in (Z/8)^* = C2^2 and the sign of GL_2(F_2) = S3; C2^3 needs
    three generators.
    """
    if k >= 3:
        raise ValueError(f"no generating pair exists at level {k}: the group maps onto C2^3")


@lru_cache(maxsize=None)
def gl_generating_pair(k: int) -> tuple:
    """A verified generating pair for GL_2(Z/2^k), as matrix 4-tuples (k <= 2)."""
    _check_two_generated(k)
    # matrix-only search piggybacks on the affine closure with v = 0
    elems = [pack((0, 0, *m), k) for m in _gl_matrices(k).tolist()]
    a, b = _search_generating_pair(elems, k, GL_ORDERS[k], seed=11)
    return unpack(a, k)[2:], unpack(b, k)[2:]


@lru_cache(maxsize=None)
def agl_generating_pair(k: int) -> tuple[AglElem, AglElem]:
    """A verified generating pair for the full affine group at level k <= 2."""
    _check_two_generated(k)
    a, b = _search_generating_pair(full_agl(k).codes, k, AGL_ORDERS[k], seed=13)
    return AglElem(k, *unpack(a, k)), AglElem(k, *unpack(b, k))


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


def _translation_part(codes: np.ndarray, k: int) -> frozenset:
    """The vectors w of the elements (w, I) among codes."""
    mask = (1 << k) - 1
    identity_matrix = pack(IDENTITY_RAW, k)
    vecs = codes[(codes & ((1 << 4 * k) - 1)) == identity_matrix] >> 4 * k
    return frozenset((v >> k, v & mask) for v in vecs.tolist())


def _conjugates(t: Elem, codes: Iterable[int], k: int) -> Iterable[int]:
    mask = (1 << k) - 1
    ti = _inv(t, k)
    for code in codes:
        yield pack(_comp(_comp(t, unpack(code, k), mask), ti, mask), k)


def _are_conjugate(s1: frozenset, s2: frozenset, k: int, transversal: list) -> Optional[Elem]:
    if len(s1) != len(s2):
        return None
    probes = sorted(s1)[:6]
    for t in (unpack(code, k) for code in transversal):
        if all(c in s2 for c in _conjugates(t, probes, k)):
            if frozenset(_conjugates(t, s1, k)) == s2:
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
    transversal = sorted(full_agl(k).codes)
    classes: list[list[frozenset]] = []
    for g in groups:
        g = frozenset(g.tolist())
        for members in classes:
            if _are_conjugate(g, members[0], k, transversal) is not None:
                members.append(g)
                break
        else:
            classes.append([g])
    # pick the canonical subgroup as representative whenever its class shows up
    canonical = build_hk(k).codes
    wrapped = []
    for members in classes:
        rep = next((m for m in members if m == canonical), members[0])
        gens = _recover_generators(sorted(rep), k)
        wrapped.append(KineticClass(SubgroupRep(k, tuple(gens), rep), len(members)))
    wrapped.sort(key=lambda c: -c.order)
    return wrapped


def _recover_generators(codes: list[int], k: int) -> list[AglElem]:
    """A small verified generating set for the subgroup with these sorted codes."""
    gens: list[int] = []
    have = np.zeros(1 << 6 * k, dtype=bool)
    have[pack(IDENTITY_RAW, k)] = True
    for e in codes:
        if not have[e]:
            gens.append(e)
            got = _closure_codes(gens, k, max_size=len(codes))
            if got.size == len(codes):
                break
            have[got] = True
    return [AglElem(k, *unpack(g, k)) for g in gens]


def _classify_level2(budget_seconds: float) -> list[np.ndarray]:
    deadline = time.monotonic() + budget_seconds
    g1, g2 = gl_generating_pair(2)
    vectors = [(v0, v1) for v0 in range(4) for v1 in range(4)]
    found: dict[bytes, np.ndarray] = {}
    for w_sub in _stable_vector_subgroups(2):
        w_gens = [pack((w0, w1, 1, 0, 0, 1), 2) for (w0, w1) in sorted(w_sub) if (w0, w1) != (0, 0)]
        for v1 in vectors:
            for v2 in vectors:
                if time.monotonic() > deadline:
                    raise ResourceBudgetError("level-2 classification budget exceeded")
                gens = [pack(v1 + g1, 2), pack(v2 + g2, 2)] + w_gens
                got = _closure_codes(gens, 2, max_size=AGL_ORDERS[2])
                if got is None:
                    continue
                if _translation_part(got, 2) != w_sub:
                    continue
                if _is_kinetic(got, 2):
                    found.setdefault(got.tobytes(), got)
    return list(found.values())


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


def _level3_guard(w_sub: frozenset) -> np.ndarray:
    """Over all level-3 codes: False exactly on the kernel elements (4u, I + 4A) outside W.

    A kernel element's 6-bit code (u0 u1 a00 a01 a10 a11) is bit 2 of each
    field, which the level-1 re-packing of code >> 2 reads off.
    """
    codes = np.arange(1 << 18, dtype=np.int64)
    in_w = np.zeros(64, dtype=bool)
    in_w[list(w_sub)] = True
    return (_repack(codes, 3, 2) != pack(IDENTITY_RAW, 2)) | in_w[_repack(codes >> 2, 3, 1)]


def _classify_level3(budget_seconds: float) -> list[np.ndarray]:
    deadline = time.monotonic() + budget_seconds

    def quotient_generating_pairs():
        # the mod-4 image of a kinetic subgroup is kinetic, hence (up to
        # conjugacy, by the level-2 classification) the full group or H_2;
        # entries mod 4 are already valid lifts mod 8
        a, b = agl_generating_pair(2)
        yield a.raw, b.raw
        g1, g2 = H2_GENERATORS
        yield g1.raw, g2.raw

    # any element reducing to the identity mod 4 must lie in W
    submodules = [(w_sub, _level3_guard(w_sub)) for w_sub in _stable_kernel_submodules()]
    found: dict[bytes, np.ndarray] = {}
    for lift1, lift2 in quotient_generating_pairs():
        for w_sub, allowed in submodules:
            # transversal of W in the kernel
            reps = []
            covered: set[int] = set()
            for c in range(64):
                if c not in covered:
                    reps.append(c)
                    covered |= {c ^ w for w in w_sub}
            cap = AGL_ORDERS[2] * len(w_sub)  # |Q| * |W| upper bound for a valid lift
            w_gens = [pack(_bits_to_kernel(c), 3) for c in sorted(w_sub) if c != 0]
            for c1 in reps:
                for c2 in reps:
                    if time.monotonic() > deadline:
                        raise ResourceBudgetError("level-3 classification budget exceeded")
                    n1 = pack(_comp(_bits_to_kernel(c1), lift1, 7), 3)
                    n2 = pack(_comp(_bits_to_kernel(c2), lift2, 7), 3)
                    got = _closure_codes([n1, n2] + w_gens, 3, max_size=cap, allowed=allowed)
                    if got is not None and _is_kinetic(got, 3):
                        found.setdefault(got.tobytes(), got)
    return list(found.values())


# ---------------------------------------------------------------------------
# coset structure of H_2


def _matrix_closure(gens: list[tuple], k: int) -> set:
    got = _closure_codes([pack((0, 0) + g, k) for g in gens], k)
    return {unpack(c, k)[2:] for c in got.tolist()}


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
