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
Subgroups are stored as sorted code arrays.  The closure engine is a numpy
frontier BFS from the identity: right multiplication by (b, B) sends (a, A)
to (a + A*b, A*B), so each generator contributes two tables over the 2^(4k)
matrix codes (A*b and A*B) and one shared table adds vectors; a BFS step is
a few gathers over the frontier, deduplicated against a boolean array over
all 2^(6k) codes.  Matrix and mod-2 images are reductions over code arrays.

The classification lifts one level at a time.  The kernel K of reduction
from level k to k - 1 is F_2^6, and a subgroup G at level k is generated by
W = G & K and one lift of each generator of its image Q one level down.
The kernel parts of Q's relations are affine-linear over F_2 in the
unknown lifts, and G & K = W exactly when they all lie in W; so one F_2
linear solve per (Q, W) yields every valid lift, and only those are closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

Elem = tuple  # (v0, v1, m00, m01, m10, m11)


class LevelMismatchError(ValueError):
    pass


class ResourceBudgetError(RuntimeError):
    """A materialization exceeded its configured size cap."""


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


def _closure_codes(gens: Iterable[int], k: int, max_size: Optional[int] = None) -> Optional[np.ndarray]:
    """Sorted codes of the subgroup generated by the element codes gens.

    BFS from the identity under right multiplication by each generator and
    its inverse.  Returns None when the subgroup has more than max_size
    elements.
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
    slot = np.empty(1 << 6 * k, dtype=np.int32)
    frontier = np.array([pack(IDENTITY_RAW, k)], dtype=np.int64)
    seen[frontier] = True
    size = 1
    while frontier.size:
        mat = frontier & matrix_mask
        vec = (frontier >> 4 * k) << 2 * k
        cand = (vector_sum[vec | ab[:, mat]] | prod[:, mat]).ravel()
        cand = cand[~seen[cand]]
        # int32 positions: a frontier has fewer than 2^(6k) codes, so H_4's 16
        # steps give fewer than 16 * 2^24 < 2^31 candidates
        assert cand.size < 1 << 31
        # one survivor per distinct code: whichever position's write to slot stuck
        pos = np.arange(cand.size, dtype=np.int32)
        slot[cand] = pos
        frontier = cand[slot[cand] == pos]
        size += frontier.size
        if max_size is not None and size > max_size:
            return None
        seen[frontier] = True
    return np.flatnonzero(seen)


@dataclass(frozen=True, eq=False)
class SubgroupRep:
    """A concrete subgroup: level, generators, and code_array, its elements' codes.

    code_array is int64 and strictly increasing; construction makes it
    read-only, so cached subgroups share it safely.  codes is a frozenset
    view built on each call, never cached.  eq=False makes == identity:
    compare subgroups by their arrays (np.array_equal).
    """

    level: int
    generators: tuple[AglElem, ...]
    code_array: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.code_array.flags.writeable = False

    @property
    def order(self) -> int:
        return self.code_array.size

    @property
    def codes(self) -> frozenset[int]:
        return frozenset(self.code_array.tolist())

    def raw_elements(self) -> Iterable[Elem]:
        for code in self.code_array.tolist():
            yield unpack(code, self.level)


def closure(gens: Sequence[AglElem]) -> SubgroupRep:
    """Subgroup generated by gens."""
    if not gens:
        raise ValueError("need at least one generator")
    k = gens[0].k
    if any(g.k != k for g in gens):
        raise LevelMismatchError("generators at mixed levels")
    return SubgroupRep(k, tuple(gens), _closure_codes([pack(_reduce_raw(g.raw, k), k) for g in gens], k))


def is_kinetic(g: SubgroupRep) -> bool:
    """Surjective onto both GL_2(Z/2^k) and the full level-1 affine group."""
    return _is_kinetic(g.code_array, g.level)


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


def _kernel_generators(k: int) -> list[AglElem]:
    # generators of ker(level k -> level 2): translations by 4*e_i and
    # unipotent matrices I + 4*E_rs, the level-3 kernel's basis
    return [AglElem(k, *_kernel_elem(1 << bit, 3)) for bit in reversed(range(6))]


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
        raise ResourceBudgetError("H_k materialization is capped at k = 4; H_k is the mod-4 preimage of h2()")
    gens = [AglElem(k, *g.raw) for g in H2_GENERATORS] + _kernel_generators(k)
    base = _repack(h2().code_array, 2, k)
    lifts = _repack(np.arange(1 << 6 * (k - 2), dtype=np.int64), k - 2, k) << 2
    codes = (base[:, None] + lifts[None, :]).ravel()
    codes.sort()  # in place: np.sort would hold a second copy at the peak
    return SubgroupRep(k, tuple(gens), codes)


# ---------------------------------------------------------------------------
# full groups


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


# ---------------------------------------------------------------------------
# the kernel K of reduction from level k >= 2 to level k - 1


def _kernel_elem(c: int, k: int) -> Elem:
    """kappa(c) = (2^(k-1) u, I + 2^(k-1) A) for the 6-bit code c = (u0 u1 a00 a01 a10 a11).

    kappa(c) * kappa(c') = kappa(c ^ c'), since 2^(k-1) * 2^(k-1) = 0 mod
    2^k, so K is F_2^6 at every level k >= 2.
    """
    return tuple(i + (b << (k - 1)) for i, b in zip(IDENTITY_RAW, unpack(c, 1)))


def _kernel_code(e: Elem, k: int) -> int:
    """The code c with kappa(c) = e, for e in K at level k."""
    return pack(tuple(((x - i) >> (k - 1)) & 1 for x, i in zip(e, IDENTITY_RAW)), 1)


@lru_cache(maxsize=None)
def _kernel_action(t: Elem) -> tuple[int, ...]:
    """Entry c is the code of t * kappa(c) * t^-1, for a level-1 element t = (v, M).

    The conjugate is (2^(k-1) (M u + M A M^-1 v), I + 2^(k-1) M A M^-1) mod
    2^k (signs vanish mod 2): it depends only on t mod 2 and is the same at
    every level k >= 2, so the table conjugates at level 2.
    """
    t_inv = _inv(t, 2)
    return tuple(_kernel_code(_comp(_comp(t, _kernel_elem(c, 2), 3), t_inv, 3), 2) for c in range(64))


@lru_cache(maxsize=None)
def _stable_kernel_submodules() -> tuple[frozenset, ...]:
    """The subspaces of K (as sets of codes) stable under the level-1 action.

    A kinetic subgroup covers the level-1 group and normalizes its own
    intersection with K, so that intersection is one of these.
    """
    tables = [_kernel_action(t) for t in full_agl(1).raw_elements()]

    def span(codes: Iterable[int]) -> frozenset:
        out = {0}
        for row in _f2_echelon(table[c] for table in tables for c in codes).values():
            out |= {x ^ row for x in out}
        return frozenset(out)

    submods = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for sub in frontier:
            basis = list(_f2_echelon(sub).values())
            for v in range(1, 64):
                if v not in sub:
                    bigger = span(basis + [v])
                    if bigger not in submods:
                        submods.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return tuple(sorted(submods, key=lambda s: (len(s), sorted(s))))


# ---------------------------------------------------------------------------
# F_2 linear algebra on ints read as bit vectors


def _f2_echelon(rows: Iterable[int]) -> dict[int, int]:
    """A basis of the span of rows, keyed by each basis row's lowest set bit (a power of 2).

    A row is reduced by the basis row keyed by its lowest bit until that bit
    is new, so no two basis rows share their lowest bit.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    return basis


def _f2_solutions(rows: Iterable[int], n: int) -> Iterator[int]:
    """Every x < 2^n with parity(row & x) = bit n of row, for every row.

    Bit n holds the right-hand side.  Pivots are lowest bits, so bit n is a
    pivot only for a row that reduced to 0 = 1; otherwise each free choice
    of the non-pivot bits extends to one solution, set from the top pivot
    down (the other bits of a pivot's row all lie above it).
    """
    basis = _f2_echelon(rows)
    if 1 << n in basis:
        return
    free = [1 << j for j in range(n) if 1 << j not in basis]
    pivots = sorted(basis, reverse=True)
    for choice in range(1 << len(free)):
        x = sum(bit for i, bit in enumerate(free) if choice >> i & 1)
        for p in pivots:
            if (bin(basis[p] & x).count("1") ^ (basis[p] >> n)) & 1:
                x |= p
        yield x


# ---------------------------------------------------------------------------
# kinetic classification: lifts by one F_2 solve per (quotient, W)


def _lift_relations(lifts: Sequence[Elem], k: int) -> list[int]:
    """A basis of the relations of Q = <lifts mod 2^(k-1)>, as affine maps of the unknown lifts.

    The candidate lifts are g_i = kappa(c_i) * lifts[i], with c_i in bits
    6i..6i+5 of an n-bit unknown c (n = 6r).  A BFS over Q by right
    multiplication gives each x in Q a word s(x) in the lifts and the kernel
    part phi_x of the same word in the g_i, linear in c: appending g_i adds
    t(c_i), t = s(x) mod 2 acting by conjugation.  An edge that reaches a
    known y closes the relation s(x) g_i s(y)^-1 = kappa(phi_x + t(c_i) + d
    + phi_y), d being the code of s(x) lifts[i] s(y)^-1.  A relation packs
    its value's 6 code bits as affine forms of c, bit b's form in bits
    b(n+1)..b(n+1)+n with the constant on top.
    """
    n = 6 * len(lifts)
    width = n + 1
    mask = (1 << k) - 1
    tree = {pack(_reduce_raw(IDENTITY_RAW, k - 1), k - 1): (IDENTITY_RAW, 0)}
    frontier = list(tree.values())
    relations = []
    while frontier:
        nxt = []
        for s, phi in frontier:
            table = _kernel_action(_reduce_raw(s, 1))
            # the action's matrix: row b holds the input bits j whose image has bit b
            act = sum(((table[1 << j] >> b) & 1) << (j + b * width) for b in range(6) for j in range(6))
            for i, q in enumerate(lifts):
                t = _comp(s, q, mask)
                key = pack(_reduce_raw(t, k - 1), k - 1)
                moved = phi ^ (act << 6 * i)
                if key not in tree:
                    tree[key] = (t, moved)
                    nxt.append(tree[key])
                    continue
                s_y, phi_y = tree[key]
                d = _kernel_code(_comp(t, _inv(s_y, k), mask), k)
                const = sum(((d >> b) & 1) << (n + b * width) for b in range(6))
                relations.append(moved ^ phi_y ^ const)
        frontier = nxt
    return list(_f2_echelon(relations).values())


def _lifted_subgroups(q: SubgroupRep) -> Iterator[tuple[frozenset, np.ndarray]]:
    """(W, sorted codes of G) for each G one level above q with image q and W = G & K stable.

    G is generated by W and lifts g_i = kappa(c_i) * q.generators[i].  The
    intersection G & K is W exactly when every relation of q takes its value
    in W, that is, when each value is killed by every annihilator of W.  As
    G contains W, c_i matters only mod W, so the rows that clear c_i on W's
    pivot bits pick one c per G.  Each solution is closed to check that
    |G| = |q| * |W|.
    """
    k = q.level + 1
    mask = (1 << k) - 1
    lifts = [g.raw for g in q.generators]  # entries mod 2^(k-1) are lifts as they stand
    n = 6 * len(lifts)
    width = n + 1
    relations = _lift_relations(lifts, k)
    for w in _stable_kernel_submodules():
        w_basis = _f2_echelon(w)
        annihilator = _f2_echelon(
            a for a in range(64) if all(bin(a & x).count("1") % 2 == 0 for x in w_basis.values())
        )
        rows = []
        for a in annihilator.values():
            for rel in relations:
                row = 0
                for b in range(6):
                    if a >> b & 1:
                        row ^= rel >> b * width
                rows.append(row & ((1 << width) - 1))
        rows += [pivot << 6 * i for i in range(len(lifts)) for pivot in w_basis]  # c reduced mod W
        cap = q.order * len(w)
        w_gens = [pack(_kernel_elem(c, k), k) for c in w_basis.values()]
        for c in _f2_solutions(rows, n):
            gens = [pack(_comp(_kernel_elem(c >> 6 * i & 63, k), g, mask), k) for i, g in enumerate(lifts)]
            got = _closure_codes(gens + w_gens, k, max_size=cap)
            assert got is not None and got.size == cap, "a solved lift left W or Q"
            yield w, got


def _conjugates(t: Elem, codes: Iterable[int], k: int) -> Iterable[int]:
    mask = (1 << k) - 1
    ti = _inv(t, k)
    for code in codes:
        yield pack(_comp(_comp(t, unpack(code, k), mask), ti, mask), k)


def _are_conjugate(s1: np.ndarray, s2: np.ndarray, k: int, transversal: np.ndarray) -> Optional[Elem]:
    """An element t of transversal with t s1 t^-1 = s2 (sorted code arrays), or None."""
    if s1.size != s2.size:
        return None
    probes = s1[:6].tolist()
    members = frozenset(s2.tolist())
    for t in (unpack(code, k) for code in transversal.tolist()):
        if all(c in members for c in _conjugates(t, probes, k)):
            if frozenset(_conjugates(t, s1.tolist(), k)) == members:
                return t
    return None


@dataclass(frozen=True)
class KineticClass:
    """One conjugacy class of kinetic subgroups, with a chosen representative.

    members_found counts the members of the class whose image one level
    down is exactly a quotient the search lifted: the whole level-1 group
    at level 2, so every member is counted, and a level-2 class
    representative at level 3, so only members whose mod-4 image is exactly
    the full group or H_2 are counted.
    """

    representative: SubgroupRep
    members_found: int

    @property
    def order(self) -> int:
        return self.representative.order


def classify_kinetic(k: int) -> list[KineticClass]:
    """All kinetic subgroups at level k in {2, 3}, up to conjugacy.

    Exhaustive: a kinetic subgroup maps onto a kinetic subgroup one level
    down, which up to conjugacy is the whole level-1 group (k = 2) or a
    representative of classify_kinetic(k - 1), and it meets the kernel K in
    a stable submodule; _lifted_subgroups finds every subgroup over each
    such pair.  Classes come back sorted by descending order.
    """
    if k not in (2, 3):
        raise ValueError("classification is implemented for k in {2, 3}")
    if k == 2:
        quotients = [full_agl(1)]
    else:
        quotients = [c.representative for c in classify_kinetic(k - 1)]
    groups = [got for q in quotients for _, got in _lifted_subgroups(q) if _is_kinetic(got, k)]
    transversal = full_agl(k).code_array
    classes: list[list[np.ndarray]] = []
    for g in groups:
        for members in classes:
            if _are_conjugate(g, members[0], k, transversal) is not None:
                members.append(g)
                break
        else:
            classes.append([g])
    # pick the canonical subgroup as representative whenever its class shows up
    canonical = build_hk(k).code_array
    wrapped = []
    for members in classes:
        rep = next((m for m in members if np.array_equal(m, canonical)), members[0])
        gens = _recover_generators(rep, k)
        wrapped.append(KineticClass(SubgroupRep(k, tuple(gens), rep), len(members)))
    wrapped.sort(key=lambda c: -c.order)
    return wrapped


def _recover_generators(codes: np.ndarray, k: int) -> list[AglElem]:
    """A small verified generating set for the subgroup with these sorted codes."""
    gens: list[int] = []
    have = np.zeros(1 << 6 * k, dtype=bool)
    have[pack(IDENTITY_RAW, k)] = True
    for e in codes.tolist():
        if not have[e]:
            gens.append(e)
            got = _closure_codes(gens, k, max_size=codes.size)
            if got.size == codes.size:
                break
            have[got] = True
    return [AglElem(k, *unpack(g, k)) for g in gens]


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


def _sylow3_is_normal_and_nonabelian(mats: list) -> bool:
    # mats are level-2 elements (0, M), so _comp multiplies their matrices
    order3 = [m for m in mats if m != IDENTITY_RAW and _comp(_comp(m, m, 3), m, 3) == IDENTITY_RAW]
    nonabelian = any(_comp(a, b, 3) != _comp(b, a, 3) for a in mats for b in mats)
    # a unique Sylow-3 subgroup of order 3 shows up as exactly two order-3 elements
    return nonabelian and len(order3) == 2


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
    j_elems = [(0, 0) + m for m in j]
    if len(j) != 24 or not _sylow3_is_normal_and_nonabelian(j_elems):
        return False
    cells: dict[tuple, set] = {par: set() for par in COSET_SHIFTS}
    for raw in h.raw_elements():
        cells[(raw[0] & 1, raw[1] & 1)].add(raw)
    vectors = {
        par: {(v0, v1) for v0 in range(4) for v1 in range(4) if (v0 & 1, v1 & 1) == par}
        for par in COSET_SHIFTS
    }
    for par, shift in COSET_SHIFTS.items():
        coset = {_comp((0, 0) + shift, m, 3)[2:] for m in j_elems}
        expected = {(v0, v1) + m for (v0, v1) in vectors[par] for m in coset}
        if cells[par] != expected:
            return False
    return True
