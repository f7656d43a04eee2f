"""Density of pairs (v, M) with v in the column space of M - I.

Two independent engines compute the proportion of elements of H_k (or of
the full affine group) whose translation part lies in im(M - I):

* ``brute_density`` sums over every matrix at a finite level k the number
  of translations in im(M - I), from the 2-adic Smith form of M - I and a
  table over its mod-4 class;
* ``analytic_density`` evaluates the exact limit over the lift tower via a
  four-way case split on det(M - I) mod 4, a geometric series for the
  degenerate determinants, and a one-unknown linear solve for the identity
  class.

The analytic totals are exactly 179/336 for H_k and 11/21 for the full
group; the brute values converge to them from above as k grows, and the
two engines agree exactly on every matrix class whose determinant
valuation is already resolved at the finite level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import aglgroup

Matrix = tuple  # (m00, m01, m10, m11)

IDENT: Matrix = (1, 0, 0, 1)

CASE_DET_ODD = "det_odd"
CASE_DET_2 = "det_2_mod_4"
CASE_DET_0_ODD = "det_0_odd_entry"
CASE_HALVED_INV = "halved_invertible"
CASE_HALVED_SING = "halved_nonzero_singular"
CASE_IDENTITY = "identity"

CASE_ORDER = (
    CASE_DET_ODD,
    CASE_DET_2,
    CASE_DET_0_ODD,
    CASE_HALVED_INV,
    CASE_HALVED_SING,
    CASE_IDENTITY,
)


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


def _val2(x: int, k: int) -> int:
    x &= (1 << k) - 1
    if x == 0:
        return k
    return (x & -x).bit_length() - 1


def colspace_contains(v, a: Matrix, k: int) -> bool:
    """Does A x = v have a solution mod 2^k?  Gaussian elimination with the
    pivot on the entry of minimal 2-adic valuation (row-major tie break)."""
    mod = 1 << k
    m = [a[0] % mod, a[1] % mod, a[2] % mod, a[3] % mod]
    w = [v[0] % mod, v[1] % mod]
    vals = [_val2(x, k) for x in m]
    piv = min(range(4), key=lambda i: (vals[i], i))
    e = vals[piv]
    if e >= k:
        return w[0] == 0 and w[1] == 0
    if piv >= 2:  # pivot into the top row
        m = [m[2], m[3], m[0], m[1]]
        w = [w[1], w[0]]
        piv -= 2
    if piv == 1:  # pivot into the left column (reorders the unknowns only)
        m = [m[1], m[0], m[3], m[2]]
    unit_inv = pow(m[0] >> e, -1, mod)
    # clear the rest of the pivot row (column op: no effect on w)
    s = ((m[1] >> e) * unit_inv) % mod
    m[3] = (m[3] - s * m[2]) % mod
    # clear the rest of the pivot column (row op: applies to w)
    t = ((m[2] >> e) * unit_inv) % mod
    w[1] = (w[1] - t * w[0]) % mod
    d_val = _val2((m[3] * unit_inv) % mod, k)  # diag is (2^e * unit, m[3] - s*m[2])
    return w[0] % (1 << e) == 0 and w[1] % (1 << min(d_val, k)) == 0


# ---------------------------------------------------------------------------
# level-2 data derived from the concrete H_2


@lru_cache(maxsize=None)
def gl2_mod4() -> list[Matrix]:
    return [tuple(m) for m in aglgroup._gl_matrices(2).tolist()]


@lru_cache(maxsize=None)
def associated_vectors() -> dict:
    """V_M = {v : (v, M) in H_2} for every M in GL_2(Z/4)."""
    table: dict[Matrix, set] = {m: set() for m in gl2_mod4()}
    for raw in aglgroup.h2().raw_elements():
        table[raw[2:]].add((raw[0], raw[1]))
    assert all(len(v) == 4 for v in table.values())
    return table


def f_fraction(m: Matrix, k: int = 2, v_set: Optional[set] = None) -> Fraction:
    """f_M = |im(M - I) ∩ V_M| / |im(M - I)|, a value in {0, 1/4, 1/2, 1}.

    At level 2 the associated vectors come from H_2 itself; at higher
    levels V_M consists of all lifts of the mod-4 associated vectors
    (used by the lift-stability tests).
    """
    mod = 1 << k
    if v_set is None:
        base = associated_vectors()[tuple(x & 3 for x in m)]
        v_set = {
            (v0, v1)
            for v0 in range(mod)
            for v1 in range(mod)
            if (v0 & 3, v1 & 3) in base
        }
    img = image_of(_m_minus_i(m, mod), k)
    return Fraction(len(img & v_set), len(img))


# ---------------------------------------------------------------------------
# analytic engine


@lru_cache(maxsize=None)
def _nu_level1(n: Matrix) -> Fraction:
    """Limit of E[|im N'| / 4^k] over lifts N' of the mod-2 matrix N."""
    det = _det(n, 2)
    if det == 1:
        return Fraction(1)
    if n != (0, 0, 0, 0):
        # half the lifts gain one valuation step at each level
        return Fraction(1, 4) / (1 - Fraction(1, 4))
    # the zero matrix references the average over all classes: solve a*x = b
    others = Fraction(0)
    for m in _all_mod2_matrices():
        if m != (0, 0, 0, 0):
            others += _nu_level1(m)
    a = 1 - Fraction(1, 64)
    b = Fraction(1, 64) * others
    return b / a


def _all_mod2_matrices():
    return [
        (a, b, c, d) for a in range(2) for b in range(2) for c in range(2) for d in range(2)
    ]


def _nu_level2(a: Matrix) -> Fraction:
    """Limit of E[|im A'| / 4^k] over lifts A' of the mod-4 matrix A = M - I."""
    det = _det(a, 4)
    if det % 2 == 1:
        return Fraction(1)
    if det == 2:
        return Fraction(1, 2)
    if any(x % 2 == 1 for x in a):
        # det = 0 mod 4 with an odd entry: geometric series over the level
        # where the determinant valuation resolves, summed in closed form
        first = Fraction(1, 2) * Fraction(1, 4)  # i = 2 term of 2^(1-i) * 2^(-i)
        return first / (1 - Fraction(1, 4))
    n = tuple((x >> 1) & 1 for x in a)
    return Fraction(1, 4) * _nu_level1(n)


def case_label(m: Matrix) -> str:
    a = _m_minus_i(m, 4)
    det = _det(a, 4)
    if det % 2 == 1:
        return CASE_DET_ODD
    if det == 2:
        return CASE_DET_2
    if any(x % 2 == 1 for x in a):
        return CASE_DET_0_ODD
    if m == IDENT:
        return CASE_IDENTITY
    n = tuple((x >> 1) & 1 for x in a)
    return CASE_HALVED_INV if _det(n, 2) == 1 else CASE_HALVED_SING


def mu_case(m: Matrix, group: str = "hk") -> Fraction:
    """Exact limiting contribution of the mod-4 class of M to the density."""
    if _det(m, 4) % 2 == 0:
        raise ValueError("M must be invertible mod 4")
    if group == "hk":
        f = f_fraction(m)
        weight = Fraction(1, 24)
    elif group == "full":
        f = Fraction(1)
        weight = Fraction(1, 96)
    else:
        raise ValueError(f"unknown group {group!r}")
    if f == 0:
        return Fraction(0)
    nu = _nu_level2(_m_minus_i(m, 4))
    return weight * f * nu


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


def analytic_density(group: str = "hk") -> DensityReport:
    """Exact limiting density with its per-case breakdown.

    The cases partition GL_2(Z/4) by the 2-adic shape of M - I; only
    matrices with a nonzero limit are counted.
    """
    per_case: dict[str, Fraction] = {}
    counts: dict[str, int] = {}
    total = Fraction(0)
    for m in gl2_mod4():
        mu = mu_case(m, group)
        if mu == 0:
            continue
        label = case_label(m)
        per_case[label] = per_case.get(label, Fraction(0)) + mu
        counts[label] = counts.get(label, 0) + 1
        total += mu
    ordered = {lab: per_case[lab] for lab in CASE_ORDER if lab in per_case}
    ordered_counts = {lab: counts[lab] for lab in CASE_ORDER if lab in counts}
    return DensityReport("analytic", group, ordered, ordered_counts, total)


# ---------------------------------------------------------------------------
# brute engine (exact, finite level)

BRUTE_MAX_LEVEL = 5


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


def _mod4_matrix(key: int) -> Matrix:
    return tuple((key >> shift) & 3 for shift in (6, 4, 2, 0))


def _h2_vector_table() -> np.ndarray:
    """vt[m4_key, v4_key] = whether (v, M) lies in H_2 (keys are packed 2-bit fields)."""
    # a level-2 code is (v4_key << 8) | m4_key
    return aglgroup._h2_members().reshape(16, 256).T


@lru_cache(maxsize=None)
def _mod4_image_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per mod-4 key of M: log2 |im(M - I)| and |im(M - I) ∩ V_M| at level 2."""
    vt = _h2_vector_table()
    log_im = np.zeros(256, dtype=np.int64)
    hits = np.zeros(256, dtype=np.int64)
    for key in range(256):
        img = image_of(_m_minus_i(_mod4_matrix(key), 4), 2)
        log_im[key] = len(img).bit_length() - 1
        hits[key] = sum(vt[key, (v0 << 2) | v1] for v0, v1 in img)
    return log_im, hits


def brute_report(k: int, group: str = "hk") -> tuple[DensityReport, dict]:
    """Exact finite-level density, summed over every M in GL_2(Z/2^k).

    The pairs (v, M) with v in im(M - I) number |im A| per matrix for the
    full group, where A = M - I.  Inside H_k, v must also reduce mod 4 into
    V_M; reduction mod 4 maps im A onto im(A mod 4) with fibres of equal
    size, so the count is |im A| / |im(A mod 4)| * |im(A mod 4) ∩ V_M|.

    Returns the report plus the per-mod-4-class pair counts (used to check
    the brute counts against the analytic closed forms class by class).
    """
    if not 2 <= k <= BRUTE_MAX_LEVEL:
        raise ValueError(f"brute level must be in 2..{BRUTE_MAX_LEVEL}")
    if group not in ("hk", "full"):
        raise ValueError(f"unknown group {group!r}")
    mod = 1 << k
    mats = aglgroup._gl_matrices(k)
    a = (mats - np.array(IDENT)) % mod
    log_im = _log2_image_sizes(a, k)
    mkey = ((mats & 3) << np.array([6, 4, 2, 0])).sum(axis=1)
    if group == "hk":
        log4, hits4 = _mod4_image_tables()
        hits = hits4[mkey] << (log_im - log4[mkey])
    else:
        hits = 1 << log_im
    det = (a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]) % mod
    class_hits = np.zeros(256, dtype=np.int64)
    np.add.at(class_hits, mkey, hits)
    denom = (6 if group == "hk" else 24) * 64 ** (k - 1)
    class_fracs = {
        _mod4_matrix(key): Fraction(int(class_hits[key]), denom) for key in np.unique(mkey).tolist()
    }
    per_case: dict[str, Fraction] = {}
    case_counts: dict[str, int] = {}
    for key, frac in class_fracs.items():
        if frac == 0:
            continue
        label = case_label(key)
        per_case[label] = per_case.get(label, Fraction(0)) + frac
        case_counts[label] = case_counts.get(label, 0) + 1
    ordered = {lab: per_case[lab] for lab in CASE_ORDER if lab in per_case}
    ordered_counts = {lab: case_counts[lab] for lab in CASE_ORDER if lab in case_counts}
    report = DensityReport(
        f"brute(k={k})", group, ordered, ordered_counts,
        Fraction(int(hits.sum()), denom), Fraction(int(hits[det != 0].sum()), denom),
    )
    return report, class_fracs


def brute_density(k: int, group: str = "hk") -> Fraction:
    """Exact density |{(v, M) : v in im(M - I)}| / |group| at finite level k."""
    report, _ = brute_report(k, group)
    return report.total


def resolved_at_level_2(m: Matrix) -> bool:
    """Classes whose det(M - I) valuation is already pinned mod 4.

    For these the finite-level brute fraction equals the analytic limit
    exactly, at every level.
    """
    det = _det(_m_minus_i(m, 4), 4)
    return det % 2 == 1 or det == 2
