"""Density of pairs (v, M) with v in the column space of M - I.

A group is given by a level-2 subgroup G_2 of AGL_2(Z/4), read from its
code array and standing for its full preimage at every level k >= 2: H_2
for H_k, or the whole affine group.  ``_group_table`` turns G_2 into |G_2|
and, per M in GL_2(Z/4), log2 |im(M - I)| and the number of v in that image
with (v, M) in G_2.  One engine reads that table:

* ``_smith_cells`` counts the lifts A' of A = M - I mod 4 to level k by
  their 2-adic Smith form, which fixes |im A'|; ``_class_fractions``
  counts each class's share at level k from its cells, once, and
  ``brute_report`` sums the shares into the exact density at level k;
* every class's share is c + a 4^-k + b 64^-k (the ``brute_report``
  docstring proves it), so its shares at k = 2, 3, 4 fix the limit c
  exactly: ``mu_case`` and ``analytic_density`` read it off them, and
  ``brute_closed_form`` solves the (c, a, b) of the totals.

The paper's six cases are the 2-adic Smith shapes (e1, e2) of M - I mod 4,
each exponent capped at 2: det odd (0, 0), det = 2 (0, 1), det = 0 with an
odd entry (0, 2), and M - I = 2N with N mod 2 invertible (1, 1), nonzero
singular (1, 2) or zero (2, 2).  For M a Frobenius these are the capped
shapes of the 2-Sylow subgroup of E(F_p), the cokernel of M - I (Miret,
Moreno, Rio and Valls, Math. Comp. 74, 2005).  ``_smith_exponents`` reads
every shape: ``case_label`` names it, the per-case reports read the
names of the 96 mod-4 classes from ``_case_labels``, built once, and
``colspace_contains`` compares two at level k.  The limits are exactly
179/336 for H_k and 11/21 for the full group, and each finite level equals
the limit on every class with e1 + e2 < 2, whose determinant valuation is
already resolved mod 4.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Optional

from . import aglgroup

Matrix = tuple  # (m00, m01, m10, m11)

_MOD2_MATRICES = tuple(product(range(2), repeat=4))

CASE_DET_ODD = "det_odd"
CASE_DET_2 = "det_2_mod_4"
CASE_DET_0_ODD = "det_0_odd_entry"
CASE_HALVED_INV = "halved_invertible"
CASE_HALVED_SING = "halved_nonzero_singular"
CASE_IDENTITY = "identity"

_CASE_BY_SHAPE = MappingProxyType({
    (0, 0): CASE_DET_ODD,
    (0, 1): CASE_DET_2,
    (0, 2): CASE_DET_0_ODD,
    (1, 1): CASE_HALVED_INV,
    (1, 2): CASE_HALVED_SING,
    (2, 2): CASE_IDENTITY,
})

CASE_ORDER = tuple(_CASE_BY_SHAPE.values())


def _mat_vec(m: Matrix, x, mod: int):
    return ((m[0] * x[0] + m[1] * x[1]) % mod, (m[2] * x[0] + m[3] * x[1]) % mod)


def _det(m: Matrix, mod: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % mod


def _m_minus_i(m: Matrix, mod: int) -> Matrix:
    return ((m[0] - 1) % mod, m[1] % mod, m[2] % mod, (m[3] - 1) % mod)


def image_of(a: Matrix, k: int) -> set:
    """Exact column space {A x : x in (Z/2^k)^2} by enumeration."""
    mod = 1 << k
    return {_mat_vec(a, (x0, x1), mod) for x0 in range(mod) for x1 in range(mod)}


def _val2(x: int) -> int:
    """The 2-adic valuation of a nonzero integer."""
    return (x & -x).bit_length() - 1


def _smith_exponents(entries, k: int) -> tuple[int, int]:
    """The 2-adic Smith exponents (e1, e2) of the 2 x n matrix over Z/2^k
    whose rows, read in order, are ``entries``, so |im| = 2^(2k - e1 - e2).

    With the entries lifted into [0, 2^k), e1 is their least valuation and
    e1 + e2 the least valuation of the 2 x 2 minors of that lift, each
    exponent capped at k.
    """
    mod = 1 << k
    n = len(entries) // 2
    # an OR's valuation is the least valuation of its terms
    low = minors = 0
    columns = []
    for x, y in zip(entries[:n], entries[n:]):
        x, y = x % mod, y % mod
        low |= x | y
        for u, w in columns:
            minors |= u * y - x * w
        columns.append((x, y))
    e1 = _val2(low) if low else k
    return e1, min(k, _val2(minors) - e1 if minors else k)


def colspace_contains(v, a: Matrix, k: int) -> bool:
    """Does A x = v have a solution mod 2^k?  Appending v to A enlarges the
    image exactly when v lies outside it, so v lies in it exactly when
    [A | v] keeps A's exponents."""
    return _smith_exponents((a[0], a[1], v[0], a[2], a[3], v[1]), k) == _smith_exponents(a, k)


# ---------------------------------------------------------------------------
# the groups: each a level-2 subgroup G_2, standing for its full preimage at
# every level k >= 2, read from its code array

_LEVEL2_GROUPS = {"hk": aglgroup.h2, "full": lambda: aglgroup.full_agl(2)}


@lru_cache(maxsize=None)
def gl2_mod4() -> tuple[Matrix, ...]:
    return tuple(tuple(m) for m in aglgroup._gl_matrices(2).tolist())


@lru_cache(maxsize=None)
def _group_table(group: str) -> tuple[int, MappingProxyType]:
    """|G_2|, and per M in GL_2(Z/4) the pair (log2 |im(M - I)|, |im(M - I) ∩ V_M|)
    at level 2, where V_M = {v : (v, M) in G_2}; read-only, since callers share it."""
    if group not in _LEVEL2_GROUPS:
        raise ValueError(f"unknown group {group!r}")
    members = set(_LEVEL2_GROUPS[group]().code_array.tolist())
    table = {}
    for m in gl2_mod4():
        img = image_of(_m_minus_i(m, 4), 2)
        table[m] = (len(img).bit_length() - 1, sum(aglgroup.pack((*v, *m), 2) in members for v in img))
    return len(members), MappingProxyType(table)


def case_label(m: Matrix) -> str:
    """The case of M's mod-4 class: the capped Smith shape of M - I mod 4."""
    return _CASE_BY_SHAPE[_smith_exponents(_m_minus_i(m, 4), 2)]


@lru_cache(maxsize=None)
def _case_labels() -> MappingProxyType:
    """``case_label`` of every M in GL_2(Z/4), which no group changes;
    read-only, since callers share it."""
    return MappingProxyType({m: case_label(m) for m in gl2_mod4()})


@dataclass(frozen=True)
class DensityReport:
    mode: str
    group: str
    per_case: dict
    case_counts: dict
    total: Fraction
    s1_total: Optional[Fraction] = None

    def as_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "group": self.group,
            "per_case": {k: str(v) for k, v in self.per_case.items()},
            "case_counts": dict(self.case_counts),
            "total": str(self.total),
        }
        if self.s1_total is not None:
            out["s1_total"] = str(self.s1_total)
        return out


def _case_report(mode: str, group: str, class_fracs: dict, s1_total=None) -> DensityReport:
    """Sum per-mod-4-class contributions by their ``_case_labels``, skipping classes of 0."""
    per_case: dict[str, Fraction] = {}
    counts: dict[str, int] = {}
    for m, frac in class_fracs.items():
        if frac:
            label = _case_labels()[m]
            per_case[label] = per_case.get(label, Fraction(0)) + frac
            counts[label] = counts.get(label, 0) + 1
    labels = [lab for lab in CASE_ORDER if lab in per_case]
    return DensityReport(
        mode, group, {lab: per_case[lab] for lab in labels}, {lab: counts[lab] for lab in labels},
        sum(class_fracs.values(), Fraction(0)), s1_total,
    )


# ---------------------------------------------------------------------------
# finite level k: Smith cells

BRUTE_MAX_LEVEL = 64


@lru_cache(maxsize=None)
def _smith_cells(a: Matrix, r: int, k: int) -> tuple[tuple[int, int], ...]:
    """Lifts A' to Z/2^k of the mod-2^r matrix A (r <= 2, r <= k; r = 0 means
    every matrix), counted by t = e1 + e2, where diag(2^e1, 2^e2) is the Smith
    form of A' with each e capped at k.  Then |im A'| = 2^(2k - t), and
    det A' = 0 mod 2^k iff t = k.  Returned as (t, count) pairs, ascending
    in t: the cells depend on no group, so they are cached, and immutable
    so that every caller can share them.
    """
    if k == 0:
        return ((0, 1),)
    if r == 0:
        cells = Counter()
        for n in _MOD2_MATRICES:
            cells.update(dict(_smith_cells(n, 1, k)))
        return tuple(sorted(cells.items()))
    lifts = 1 << 4 * (k - r)
    if any(x & 1 for x in a):
        # e1 = 0, and with a unit entry det A' is uniform over the 2^(k-r)
        # lifts of det A mod 2^r: its valuation is fixed or geometric over r..k
        d = _det(a, 1 << r)
        if d:
            return ((_val2(d), lifts),)
        # det A' = 0 mod 2^k in the last cell
        return tuple((j, lifts >> (j + 1 - r)) for j in range(r, k)) + ((k, lifts >> (k - r)),)
    # A' = 2B, with B over Z/2^(k-1) lifting A/2 from mod 2^(r-1)
    return tuple((t + 2, n) for t, n in _smith_cells(tuple(x >> 1 for x in a), r - 1, k - 1))


@lru_cache(maxsize=None)
def _class_fractions(k: int, group: str) -> tuple[MappingProxyType, Fraction]:
    """Each mod-4 class's share of the density at level k, and the share
    ``s1_total`` of the cells t < k, where det(M - I) != 0 mod 2^k.

    A pair (v, M) counts when v lies in im A, A = M - I, and |im A| =
    2^(2k - t) for the cell t of ``_smith_cells``, and v must also reduce
    mod 4 into V_M = {v : (v, M) in G_2}.  Reduction mod 4 maps im A onto
    im(A mod 4) with fibres of equal size, so of the |G_2| 64^(k-2) pairs a
    lift holds |im A| f_M, f_M = |im(A mod 4) ∩ V_M| / |im(A mod 4)|: the
    class weighs 16 f_M / |G_2| times the mean of 2^-t over its lifts.
    """
    order, table = _group_table(group)
    denom = order * 64 ** (k - 2)
    shares = {}
    s1 = 0
    for m, (log4, hits4) in table.items():
        pairs = {t: hits4 * n << (2 * k - t - log4) for t, n in _smith_cells(_m_minus_i(m, 4), 2, k)}
        shares[m] = Fraction(sum(pairs.values()), denom)
        s1 += sum(p for t, p in pairs.items() if t < k)
    return MappingProxyType(shares), Fraction(s1, denom)


def brute_report(k: int, group: str = "hk") -> tuple[DensityReport, dict]:
    """Exact finite-level density over GL_2(Z/2^k), summed from ``_class_fractions``.

    Closed forms: the mean of 2^-t over the 16^(k-2) lifts of a class is
    1, 1/2 and 1/4 for det_odd, det_2_mod_4 and halved_invertible, and the
    geometric series sum to sum_{j=2}^{k-1} 2^(1-2j) + 2^(2-2k) =
    1/6 + (4/3) 4^-k for det_0_odd_entry, and to a quarter of
    sum_{j=1}^{k-2} 4^-j + 2^(3-2k) = 1/3 + (8/3) 4^-k for
    halved_nonzero_singular.  The identity's is z(k-2)/16, where the mean
    z(n) over every matrix mod 2^n, split into 6 invertible, 9 nonzero
    singular and 1 zero mod-2 class, is z(n) = 9/16 + (3/8) 4^-n +
    z(n-1)/64 with z(0) = 1, so z(n) = 4/7 + (2/5) 4^-n + (1/35) 64^-n.
    A class weighs 16 f_M / |G_2|: 1/96 in the full group, where f_M = 1
    (32, 24, 24, 6, 9, 1 classes per case), and f_M/24 in H_k (f_M sums to
    8, 6, 6, 3, 0, 1 per case), which gives D(k) = c + a 4^-k + b 64^-k,
    and ``brute_closed_form`` solves (c, a, b) from three levels.

    ``BRUTE_MAX_LEVEL`` = 64 is the range the tests check: a call costs
    about 55 ms there (2-core Xeon VM), and ``_smith_cells`` recurses k deep.
    Returns the report and a copy of the per-class shares, which tests
    check class by class against enumeration and against ``mu_case``.
    """
    if not 2 <= k <= BRUTE_MAX_LEVEL:
        raise ValueError(f"brute level must be in 2..{BRUTE_MAX_LEVEL}")
    shares, s1 = _class_fractions(k, group)
    return _case_report(f"brute(k={k})", group, shares, s1), dict(shares)


def brute_density(k: int, group: str = "hk") -> Fraction:
    """Exact density |{(v, M) : v in im(M - I)}| / |group| at finite level k."""
    return brute_report(k, group)[0].total


# ---------------------------------------------------------------------------
# the limit, read off levels 2, 3 and 4


def _span_limit(d2, d3, d4) -> Fraction:
    """The c of d_k = c + a 4^-k + b 64^-k, from exact d_k at k = 2, 3, 4, by
    Richardson extrapolation: r_k = 64 d_(k+1) - d_k = 63 c + 15 a 4^-k drops
    the 64^-k term, and 4 r_3 - r_2 = 256 d_4 - 68 d_3 + d_2 = 189 c drops
    the 4^-k term."""
    return Fraction(256 * d4 - 68 * d3 + d2, 189)


def _solve_span(d2, d3, d4) -> tuple[Fraction, Fraction, Fraction]:
    """(c, a, b) with d_k = c + a 4^-k + b 64^-k at k = 2, 3, 4."""
    c = _span_limit(d2, d3, d4)
    a = (64 * d3 - d2 - 63 * c) * Fraction(16, 15)
    return c, a, (d2 - c - a / 16) * 4096


@lru_cache(maxsize=None)
def _class_limits(group: str) -> MappingProxyType:
    """Each class's limit over k: ``_span_limit`` of its shares at k = 2, 3, 4."""
    shares = [_class_fractions(k, group)[0] for k in (2, 3, 4)]
    return MappingProxyType({m: _span_limit(*(s[m] for s in shares)) for m in shares[0]})


def mu_case(m: Matrix, group: str = "hk") -> Fraction:
    """Exact limiting contribution of the mod-4 class of M to the density."""
    if _det(m, 4) % 2 == 0:
        raise ValueError("M must be invertible mod 4")
    return _class_limits(group)[tuple(x & 3 for x in m)]


def analytic_density(group: str = "hk") -> DensityReport:
    """Exact limiting density with its per-case breakdown.

    The cases partition GL_2(Z/4) by the 2-adic shape of M - I; only
    matrices with a nonzero limit are counted.
    """
    return _case_report("analytic", group, _class_limits(group))


def brute_closed_form(group: str = "hk") -> tuple[Fraction, Fraction, Fraction]:
    """(c, a, b) with brute_density(k, group) = c + a 4^-k + b 64^-k at every k."""
    return _solve_span(*(brute_density(k, group) for k in (2, 3, 4)))


def resolved_at_level_2(m: Matrix) -> bool:
    """Classes whose det(M - I) valuation is already pinned mod 4: e1 + e2 < 2.

    For these the finite-level brute fraction equals the analytic limit
    exactly, at every level.
    """
    return sum(_smith_exponents(_m_minus_i(m, 4), 2)) < 2
