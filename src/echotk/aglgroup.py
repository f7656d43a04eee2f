"""The affine groups (Z/2^k)^2 x| GL_2(Z/2^k) and their kinetic subgroups.

Elements are pairs (v, M) composing as (v1 + M1*v2, M1*M2).  A subgroup is
*kinetic* when it surjects both onto the matrix quotient GL_2(Z/2^k) and
onto the full level-1 affine group (order 24).  The module builds the full
group and the distinguished index-4 subgroup H_k as preimages, of the 24
level-1 elements and of a fixed H_2 under reduction mod 4, and classifies
ALL kinetic subgroups at levels 2 and 3 by exhaustive search: the expected
outcome is exactly two conjugacy classes, the full group and H_k.

Internally an element is a flat 6-tuple (v0, v1, m00, m01, m10, m11) reduced
mod 2^k, packed big-endian into a 6k-bit integer code: the vector sits in the
top 2k bits and the matrix in the low 4k bits, so code order is tuple order.
Tuples and codes convert only by pack and unpack and multiply only by
_comp, for ints and int32 arrays alike.  Codes are int32 end to end,
which caps the levels at 5 (30-bit codes).
A subgroup is its level and sorted code array; where generators are
needed, a small set is read off the codes.  The closure engine is a numpy
frontier BFS that closes a batch of groups at once, each from its own
base (the identity, or a normal W), by right multiplication by its
generators alone: (b, B) sends (a, A) to (a + A*b, A*B), so each generator
contributes two tables over the 2^(4k) matrix codes (A*b and A*B) and one
shared table adds vectors.  A BFS step is a few gathers over the frontier,
deduplicated against a boolean array over all 2^(6k) codes of each group.
Matrix and mod-2 images are reductions over code arrays.

The classification lifts one level at a time.  The kernel K of reduction
from level k to k - 1 is F_2^6, and a subgroup G at level k is generated by
W = G & K and one lift of each generator of its image Q one level down.
The level-1 group acts F_2-linearly on K by conjugation, so each action
table is read off six basis images, and the stable submodules W are the
sums of cyclic ones (spans of single orbits).  The kernel parts of Q's
relations are affine-linear over F_2 in the unknown lifts, and G & K = W
exactly when they all lie in W; so one F_2 linear solve per (Q, W) yields
every valid lift.  Such a G has order |Q| * |W|, and only the W whose
order can reach |GL_2(Z/2^k)|, as a kinetic group's must, are solved.
All solved lifts of one Q are closed in one batch, each as W * <lifts>
from W's codes.  Lifts are tested for conjugacy by their W and by where a
transversal sends their lift generators.
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
    """The product (a + A*b, A*B) of a = (a, A) and b = (b, B); the fields may be ints or numpy arrays."""
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
    """The inverse at level k; the fields may be ints or numpy arrays of one shape."""
    mask = (1 << k) - 1
    a0, a1, a00, a01, a10, a11 = a
    det = (a00 * a11 - a01 * a10) & mask
    di, bits = det, 3  # an odd d has d * d = 1 mod 8, and each Newton step doubles the bits
    while bits < k:
        di, bits = di * (2 - det * di) & mask, 2 * bits
    n00, n01 = a11 * di & mask, -a01 * di & mask
    n10, n11 = -a10 * di & mask, a00 * di & mask
    return (-(n00 * a0 + n01 * a1) & mask, -(n10 * a0 + n11 * a1) & mask, n00, n01, n10, n11)


def pack(raw: Elem, k: int) -> int:
    """The fields of raw (ints or int32 arrays) side by side at k bits each, the first on top."""
    code = 0
    for part in raw:
        code = (code << k) | part
    return code


def unpack(code: int, k: int) -> Elem:
    """The six k-bit fields of a code, field 0 on top; an int32 array of codes gives six arrays."""
    mask = (1 << k) - 1
    return tuple((code >> (5 - i) * k) & mask for i in range(6))


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
    mask = (1 << k) - 1
    a0, a1, c0, c1, _, _ = unpack(np.arange(1 << 4 * k, dtype=np.int32) << 2 * k, k)
    total = pack(((a0 + c0) & mask, (a1 + c1) & mask, 0, 0, 0, 0), k)
    total.flags.writeable = False  # cached and shared by every closure
    return total


@lru_cache(maxsize=1024)
def _right_tables(code: int, k: int) -> np.ndarray:
    """Rows (A*b, A*B) over every matrix code A: the vector and matrix codes, (b, B) = code."""
    matrices = (0, 0) + unpack(np.arange(1 << 4 * k, dtype=np.int32), k)[2:]
    right = _comp(matrices, unpack(code, k), (1 << k) - 1)
    tables = np.stack([pack(right[:2], k), pack(right[2:], k)])
    tables.flags.writeable = False  # cached and shared by every closure
    return tables


def _closure_codes(batch: Sequence[tuple], k: int) -> list[Optional[np.ndarray]]:
    """Sorted codes of base * <gens> for each (base, gens, max_size) of batch, or None past max_size.

    One BFS closes the whole batch.  Group j's element x is the key
    j << 6k | x, and a step right-multiplies by the group's generators
    only: in a finite group the monoid they span is already the subgroup.
    The step tables are indexed by (group, step) and the group is read off
    each frontier key, so a candidate costs no more memory than in a
    one-group closure.  A group past its max_size stops growing and comes
    back None; the others run on.

    base holds distinct codes: the identity alone, or a normal subgroup
    such as a stable W inside the kernel K.  Every element of AGL_2 fixes
    such a W, since conjugation on K depends only on the level-1 image
    (_kernel_action), so W * <gens> = <W, gens>.  Keys are int32, so k is
    capped at 5 and a batch at 2^(31 - 6k) groups.
    """
    if k > 5:
        raise ResourceBudgetError(f"closure is capped at level 5: level {k} has 2^{6 * k} codes, past int32")
    shift, matrix_bits = 6 * k, 4 * k
    if len(batch) << shift > 1 << 31:
        raise ResourceBudgetError(f"a batch of {len(batch)} closures at level {k} has more than 2^31 keys")
    # a group with fewer steps than the widest repeats its first, which finds nothing new
    steps = [list(dict.fromkeys(gens)) or [pack(IDENTITY_RAW, k)] for _, gens, _ in batch]
    width = max(len(row) for row in steps)
    distinct = list(dict.fromkeys(h for row in steps for h in row))
    row_of = {h: i << matrix_bits for i, h in enumerate(distinct)}  # a step's offset in the flat tables
    step_rows = np.array([[row_of[h] for h in row + row[:1] * (width - len(row))] for row in steps], np.int32)
    ab, prod = np.stack([_right_tables(h, k) for h in distinct], axis=1).reshape(2, -1)
    vector_sum = _vector_sum_table(k)
    bound = np.array([np.iinfo(np.int64).max if m is None else m for _, _, m in batch], dtype=np.int64)
    size = np.zeros(len(batch), dtype=np.int64)
    over = np.zeros(len(batch), dtype=bool)
    seen = np.zeros(len(batch) << shift, dtype=bool)
    slot = np.empty(len(batch) << shift, dtype=np.int32)
    frontier = np.concatenate([np.asarray(base, np.int32) | j << shift for j, (base, _, _) in enumerate(batch)])
    while frontier.size:
        size += np.bincount(frontier >> shift, minlength=len(batch))
        over |= size > bound
        frontier = frontier[~over[frontier >> shift]]
        seen[frontier] = True
        code = frontier & ((1 << shift) - 1)
        # entry (key, step) indexes the step's tables at the key's matrix
        at = step_rows[frontier >> shift]
        at |= (code & ((1 << matrix_bits) - 1))[:, None]
        cand = ab[at]
        cand |= ((code >> matrix_bits) << 2 * k)[:, None]
        cand = vector_sum[cand]
        cand |= prod[at]
        del at  # one candidate-sized array fewer through the dedup
        cand |= (frontier ^ code)[:, None]  # the group's bits
        cand = cand.ravel()
        cand = cand[~seen[cand]]
        # int32 positions: a frontier has fewer than 2^31 keys, so H_4's 14
        # steps give fewer than 14 * 2^24 < 2^31 candidates
        assert cand.size < 1 << 31
        # one survivor per distinct key: whichever position's write to slot stuck
        pos = np.arange(cand.size, dtype=np.int32)
        slot[cand] = pos
        frontier = cand[slot[cand] == pos]
    keys = np.flatnonzero(seen)
    cuts = np.searchsorted(keys, np.arange(len(batch) + 1) << shift)
    return [
        None if over[j] else (keys[cuts[j]:cuts[j + 1]] - (j << shift)).astype(np.int32)
        for j in range(len(batch))
    ]


def _generated(gens: Sequence[int], k: int) -> np.ndarray:
    """Sorted codes of the subgroup generated by the element codes gens: one closure from the identity."""
    return _closure_codes([([pack(IDENTITY_RAW, k)], gens, None)], k)[0]


@dataclass(frozen=True, eq=False)
class SubgroupRep:
    """A concrete subgroup: its level and code_array, its elements' codes.

    code_array is int32 (a code has 6k <= 30 bits) and strictly increasing;
    construction makes it read-only, so cached subgroups share it safely.
    codes is a frozenset view built on each call, never cached.  eq=False
    makes == identity: compare subgroups by their arrays (np.array_equal).
    """

    level: int
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
    return SubgroupRep(k, _generated([pack(_reduce_raw(g.raw, k), k) for g in gens], k))


def is_kinetic(g: SubgroupRep) -> bool:
    """Surjective onto both GL_2(Z/2^k) and the full level-1 affine group."""
    return _is_kinetic(g.code_array, g.level)


# ---------------------------------------------------------------------------
# the fixed representative H_2, and the full groups and H_k as preimages

H2_GENERATORS = (
    AglElem(2, 1, 2, 2, 1, 3, 0),
    AglElem(2, 3, 3, 2, 3, 1, 3),
)


@lru_cache(maxsize=None)
def h2() -> SubgroupRep:
    rep = closure(H2_GENERATORS)
    assert rep.order == 384
    return rep


def _gl_matrices(k: int) -> np.ndarray:
    """GL_2(Z/2^k) as rows (m00, m01, m10, m11) of an int64 array, in lexicographic order."""
    m = np.indices((1 << k,) * 4, dtype=np.int64).reshape(4, -1).T
    return m[(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]) & 1 == 1]


def _preimage(codes: np.ndarray, r: int, k: int) -> np.ndarray:
    """Sorted level-k codes of every element whose reduction mod 2^r has one of the level-r codes.

    Every coordinate of such an element is its mod-2^r part plus 2^r times
    a free value in [0, 2^(k-r)), so the codes are the given ones re-packed
    at k bits plus those of 2^r * t for every t in [0, 2^(k-r))^6.  The
    free bits t0 of field 0 lead every code, so only the block t0 = 0 is
    sorted: block t0 is that block plus t0 * 2^(6k - (k-r)).
    """
    free = k - r
    lifts = _repack(np.arange(1 << 5 * free, dtype=np.int32), free, k) << r  # t0 = 0
    block = codes.size * lifts.size
    # every block is written in place: a separate sorted block would raise the peak
    out = np.empty(block << free, dtype=np.int32)
    np.add(_repack(codes, r, k)[:, None], lifts[None, :], out=out[:block].reshape(codes.size, lifts.size))
    out[:block].sort()
    for t0 in range(1, 1 << free):
        np.add(out[:block], t0 << (6 * k - free), out=out[t0 * block:(t0 + 1) * block])
    return out


@lru_cache(maxsize=None)
def build_hk(k: int) -> SubgroupRep:
    """H_k as the full preimage of H_2 under reduction mod 4 (2 <= k <= 4)."""
    if k < 2:
        raise ValueError("H_k is defined for k >= 2")
    if k > 4:
        raise ResourceBudgetError("H_k materialization is capped at k = 4; H_k is the mod-4 preimage of h2()")
    return SubgroupRep(k, _preimage(h2().code_array, 2, k))


@lru_cache(maxsize=None)
def full_agl(k: int) -> SubgroupRep:
    """The whole affine group at level k <= 3: the preimage of the 24 level-1 elements (det M odd)."""
    if k > 3:
        raise ResourceBudgetError("full group materialization is capped at k = 3")
    codes = np.arange(64, dtype=np.int32)
    _, _, m00, m01, m10, m11 = unpack(codes, 1)
    level1 = codes[m00 * m11 != m01 * m10]  # det M = 1 mod 2
    return SubgroupRep(k, _preimage(level1, 1, k))


# ---------------------------------------------------------------------------
# the kernel K of reduction from level k >= 2 to level k - 1


def _kernel_elem(c: int, k: int) -> Elem:
    """kappa(c) = (2^(k-1) u, I + 2^(k-1) A) for the 6-bit code c = (u0 u1 a00 a01 a10 a11).

    kappa(c) * kappa(c') = kappa(c ^ c'), since 2^(k-1) * 2^(k-1) = 0 mod
    2^k, so K is F_2^6 at every level k >= 2.  c may be an int32 array of codes.
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
    every level k >= 2, so the table conjugates at level 2.  Conjugation
    acts F_2-linearly on K, so only the six basis codes are conjugated.
    """
    t_inv = _inv(t, 2)
    table = [0]
    for j in range(6):  # codes below 2^(j+1) from those below 2^j
        image = _kernel_code(_comp(_comp(t, _kernel_elem(1 << j, 2), 3), t_inv, 3), 2)
        table += [x ^ image for x in table]
    return tuple(table)


@lru_cache(maxsize=None)
def _stable_kernel_submodules() -> tuple[frozenset, ...]:
    """The subspaces of K (as sets of codes) stable under the level-1 action.

    A kinetic subgroup covers the level-1 group and normalizes its own
    intersection with K, so that intersection is one of these.  Each is a
    sum of cyclic submodules, the spans of single orbits, so the lattice
    grows from {0} by adding one cyclic submodule at a time.
    """
    tables = [_kernel_action(t) for t in full_agl(1).raw_elements()]
    cyclic = set()
    for v in range(1, 64):
        span = {0}
        for row in _f2_echelon(table[v] for table in tables).values():
            span |= {x ^ row for x in span}
        cyclic.add(frozenset(span))
    submods = {frozenset({0})}
    for c in cyclic:  # every sum of the cyclic submodules seen so far, then of c too
        submods |= {frozenset(x ^ y for x in sub for y in c) for sub in submods if not c <= sub}
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


def _lift_relations(lifts: Sequence[Elem], k: int) -> Iterator[int]:
    """The relations of Q = <lifts mod 2^(k-1)>, as affine maps of the unknown lifts, as the BFS finds them.

    The candidate lifts are g_i = kappa(c_i) * lifts[i], with c_i in bits
    6i..6i+5 of an n-bit unknown c (n = 6r).  A BFS over Q by right
    multiplication gives each x in Q a word s(x) in the lifts and the kernel
    part phi_x of the same word in the g_i, linear in c: appending g_i adds
    t(c_i), t = s(x) mod 2 acting by conjugation.  An edge that reaches a
    known y closes the relation s(x) g_i s(y)^-1 = kappa(phi_x + t(c_i) + d
    + phi_y), d being the code of s(x) lifts[i] s(y)^-1.  A relation packs
    its value's 6 code bits as affine forms of c, bit b's form in bits
    b(n+1)..b(n+1)+n with the constant on top.  There is one relation per
    non-tree edge, so a caller echelons them as they come and keeps only
    the basis, at most 6(n + 1) rows.
    """
    n = 6 * len(lifts)
    width = n + 1
    mask = (1 << k) - 1
    # entry c puts bit b of the 6-bit code c at bit b * width, the start of bit b's form
    spread = [sum((c >> b & 1) << b * width for b in range(6)) for c in range(64)]
    acts: dict[Elem, int] = {}  # the action's matrix for each level-1 image met
    tree = {pack(_reduce_raw(IDENTITY_RAW, k - 1), k - 1): (IDENTITY_RAW, 0)}
    frontier = list(tree.values())
    while frontier:
        nxt = []
        for s, phi in frontier:
            s1 = _reduce_raw(s, 1)
            if s1 not in acts:  # row b holds the input bits j whose image has bit b
                table = _kernel_action(s1)
                acts[s1] = sum(spread[table[1 << j]] << j for j in range(6))
            act = acts[s1]
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
                yield moved ^ phi_y ^ spread[d] << n
        frontier = nxt


def _lifted_subgroups(
    q: SubgroupRep, gens: Sequence[int], min_order: int = 0
) -> Iterator[tuple[frozenset, list[int]]]:
    """(W, codes of the lifts g_i) for each G one level above q with image q and W = G & K stable.

    gens are codes of generators of q, and G = W * <g_i> is generated by W
    and the lifts g_i = kappa(c_i) * gens[i].  The intersection G & K is W
    exactly when every relation of q takes its value in W, that is, when
    each value is killed by every annihilator of W.  As G contains W, c_i matters only mod
    W, so the rows that clear c_i on W's pivot bits pick one c per G, and
    |G| = |q| * |W|; a W with |q| * |W| < min_order is not solved.
    """
    k = q.level + 1
    mask = (1 << k) - 1
    lifts = [unpack(g, k - 1) for g in gens]  # entries mod 2^(k-1) are lifts as they stand
    n = 6 * len(lifts)
    width = n + 1
    relations = list(_f2_echelon(_lift_relations(lifts, k)).values())
    for w in _stable_kernel_submodules():
        if q.order * len(w) < min_order:
            continue
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
        for c in _f2_solutions(rows, n):
            yield w, [pack(_comp(_kernel_elem(c >> 6 * i & 63, k), g, mask), k) for i, g in enumerate(lifts)]


def _kernel_codes(w: Iterable[int], k: int) -> np.ndarray:
    """The level-k codes of kappa(c) for the 6-bit codes c of w, in the order of sorted(w)."""
    return pack(_kernel_elem(np.array(sorted(w), dtype=np.int32), k), k)


def _kernel_part(codes: np.ndarray, k: int) -> np.ndarray:
    """The codes among the level-k codes that lie in K, the kernel of reduction to level k - 1."""
    return codes[_repack(codes, k, k - 1) == pack(IDENTITY_RAW, k - 1)]


def _are_conjugate(s1: np.ndarray, gens1: Sequence[int], s2: np.ndarray, k: int) -> Optional[Elem]:
    """The first t of ``full_agl(k)`` with t s1 t^-1 = s2 (sorted code arrays), or None.

    s1 is generated by its kernel part W = s1 & K and the codes gens1, and
    W is stable under the level-1 group, as every kinetic group's is; so
    every t fixes W, and unequal kernel parts are never conjugate.  For
    equal ones gens1 are conjugated by the whole transversal at once: a t
    that keeps them all in s2 maps s1 = W * <gens1> into s2, and onto it
    since |s1| = |s2|, so no element past the generators is checked.
    """
    if s1.size != s2.size or not np.array_equal(_kernel_part(s1, k), _kernel_part(s2, k)):
        return None
    mask = (1 << k) - 1
    transversal = full_agl(k).code_array
    member = np.zeros(1 << 6 * k, dtype=bool)
    member[s2] = True

    def conjugates(t: Elem, codes: np.ndarray) -> np.ndarray:
        return pack(_comp(_comp(t, unpack(codes, k), mask), _inv(t, k), mask), k)

    ts = tuple(f[:, None] for f in unpack(transversal, k))  # one row per t, one column per generator
    hits = np.flatnonzero(member[conjugates(ts, np.array(gens1, dtype=s1.dtype))].all(axis=1))
    return unpack(int(transversal[hits[0]]), k) if hits.size else None


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

    @property
    def generators(self) -> tuple[AglElem, ...]:
        """A small generating set of the representative, read off its codes."""
        k = self.representative.level
        return tuple(AglElem(k, *unpack(g, k)) for g in _recover_generators(self.representative))


def classify_kinetic(k: int) -> list[KineticClass]:
    """All kinetic subgroups at level k in {2, 3}, up to conjugacy.

    Exhaustive: a kinetic subgroup maps onto a kinetic subgroup one level
    down, which up to conjugacy is the whole level-1 group (k = 2) or a
    representative of classify_kinetic(k - 1), and it meets the kernel K in
    a stable submodule W; _lifted_subgroups finds every subgroup over each
    such pair.  All solved lifts of one quotient are closed in one
    _closure_codes batch, each from W's codes by its lift generators alone:
    every element of AGL_2 normalizes W, since W is stable and conjugation
    on K depends only on the level-1 image, so W * <lifts> = <W, lifts>.
    Each closure is checked to have order |Q| * |W|.  Lifts with unequal W
    are never conjugate, since every t fixes W, so a conjugacy test
    compares W first and then conjugates the lift generators only.  Classes
    come back sorted by descending order.

    The tower closes at level 3, so k = 3 settles every level.  For j >= 2,
    any g = (2^j u, I + 2^j A) mod 2^(j+1) squares to (2^(j+1) u,
    I + 2^(j+1) A) mod 2^(j+2): the square's other terms carry 2^(2j), and
    2j >= j + 2.  So once a closed subgroup's level-k image (k >= 3) holds
    the kernel K of reduction to level k - 1, its level-(k + 1) image holds
    the next kernel.  Both level-3 classes hold K (98304 = 1536 * 64 and
    24576 = 384 * 64), and a kinetic closed subgroup of AGL_2(Z_2) has a
    kinetic level-3 image, so it is the full preimage of that image:
    conjugate to the full group or to H.
    """
    if k not in (2, 3):
        raise ValueError("classification is implemented for k in {2, 3}")
    if k == 2:
        quotients = [full_agl(1)]
    else:
        quotients = [c.representative for c in classify_kinetic(k - 1)]
    groups = []
    for q in quotients:
        # a lift too small to surject onto GL_2(Z/2^k) is never solved
        lifts = list(_lifted_subgroups(q, _recover_generators(q), min_order=GL_ORDERS[k]))
        closed = _closure_codes([(_kernel_codes(w, k), gens, q.order * len(w)) for w, gens in lifts], k)
        for (w, gens), got in zip(lifts, closed):
            assert got is not None and got.size == q.order * len(w), "a solved lift left W or Q"
            if _is_kinetic(got, k):
                groups.append((got, gens))
    classes: list[list[np.ndarray]] = []
    for g, gens in groups:
        for members in classes:
            if _are_conjugate(g, gens, members[0], k) is not None:
                members.append(g)
                break
        else:
            classes.append([g])
    # pick the canonical subgroup as representative whenever its class shows up
    canonical = build_hk(k).code_array
    wrapped = []
    for members in classes:
        rep = next((m for m in members if np.array_equal(m, canonical)), members[0])
        wrapped.append(KineticClass(SubgroupRep(k, rep), len(members)))
    wrapped.sort(key=lambda c: -c.order)
    return wrapped


def _recover_generators(g: SubgroupRep) -> list[int]:
    """Codes of a small verified generating set of g: each code not yet generated, in code order."""
    k, codes = g.level, g.code_array
    gens: list[int] = []
    have = np.zeros(1 << 6 * k, dtype=bool)
    have[pack(IDENTITY_RAW, k)] = True
    for e in codes.tolist():
        if not have[e]:
            gens.append(e)
            got = _generated(gens, k)
            if got.size == codes.size:
                break
            have[got] = True
    return gens


# ---------------------------------------------------------------------------
# coset structure of H_2


def _matrix_closure(gens: list[tuple], k: int) -> set:
    got = _generated([pack((0, 0) + g, k) for g in gens], k)
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
    if h.level != 2:
        return False
    j = j_mats if j_mats is not None else _matrix_closure(list(J_GENERATORS), 2)
    j_elems = [(0, 0) + m for m in j]
    if len(j) != 24 or not _sylow3_is_normal_and_nonabelian(j_elems):
        return False
    # code_array strictly increases, so a repeated element (overlapping cosets) or a missing one breaks this
    expected = sorted(
        pack((v0, v1) + _comp((0, 0) + COSET_SHIFTS[v0 & 1, v1 & 1], m, 3)[2:], 2)
        for v0 in range(4)
        for v1 in range(4)
        for m in j_elems
    )
    return expected == h.code_array.tolist()
