"""The ECHO sequence: an integer recurrence, memoized over all integer indices.

The sequence is pinned down by two equivalent recursive definitions.  The
primary one has order 4 with a coefficient that alternates with the index
mod 3; the alternate one has order 7 with constant coefficients.  Both
extend to negative indices, and every division the recurrences perform is
exact (the terms are integers).  Equality of the two definitions, the
index symmetry b_n = -b_{-(n+1)}, and the residue periodicities are all
checked by the test suite rather than assumed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

SEED_PRIMARY = (1, 1, 2, 1)
SEED_ALT = (1, 1, 2, 1, -3, -7, -17)

DEFAULT_CYCLE_SEARCH_BOUND = 2000


class InexactDivisionError(ArithmeticError):
    """Recurrence division left a remainder; the integrality guarantee broke."""


class CycleDetectionError(RuntimeError):
    """No residue period found within the configured search bound."""


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise InexactDivisionError(f"{what}: {num} is not divisible by {den}")
    return q


class EchoSequence:
    """Two-way memoized view of the sequence under one of the two definitions."""

    def __init__(self, definition: str = "primary"):
        if definition not in ("primary", "appendix"):
            raise ValueError(f"unknown definition {definition!r}")
        self.definition = definition
        seed = SEED_PRIMARY if definition == "primary" else SEED_ALT
        self._cache: dict[int, int] = dict(enumerate(seed))
        self._lo, self._hi = 0, len(seed) - 1  # the cache holds lo..hi

    def term(self, n: int) -> int:
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        # fill the cache one index at a time from its nearer end, so no call
        # recurses however far n lies outside it
        step = self._term_primary if self.definition == "primary" else self._term_appendix
        fill = range(self._hi + 1, n + 1) if n > self._hi else range(self._lo - 1, n - 1, -1)
        for i in fill:
            if i not in self._cache:
                self._cache[i] = step(i)
            self._lo, self._hi = min(self._lo, i), max(self._hi, i)
        return self._cache[n]

    def _term_primary(self, n: int) -> int:
        b = self._cache.__getitem__
        if n >= 4:
            c = 3 if n % 3 == 0 else 1
            return _exact_div(b(n - 1) * b(n - 3) - c * b(n - 2) ** 2, b(n - 4), f"b_{n}")
        # downward extension; the dividing term alternates the same way
        c = 3 if n % 3 == 2 else 1
        return _exact_div(b(n + 3) * b(n + 1) - c * b(n + 2) ** 2, b(n + 4), f"b_{n}")

    def _term_appendix(self, n: int) -> int:
        b = self._cache.__getitem__
        if n >= 7:
            return _exact_div(-b(n - 6) * b(n - 1) + 5 * b(n - 4) * b(n - 3), b(n - 7), f"b_{n}")
        return _exact_div(-b(n + 1) * b(n + 6) + 5 * b(n + 3) * b(n + 4), b(n + 7), f"b_{n}")


_PRIMARY = EchoSequence("primary")
_APPENDIX = EchoSequence("appendix")


def term(n: int) -> int:
    """n-th sequence term under the primary (order-4) definition."""
    return _PRIMARY.term(n)


def term_alt(n: int) -> int:
    """n-th sequence term under the alternate (order-7) definition."""
    return _APPENDIX.term(n)


def h_value(n: int) -> int:
    """Quartic combination of b_{n-3}..b_n that vanishes identically.

    The vanishing of this expression is what makes the odd-multiple
    coordinate formulas on the companion curve close under addition.
    """
    b = term
    b3, b2, b1, b0 = b(n - 3), b(n - 2), b(n - 1), b(n)
    r = n % 3
    if r == 0:
        return b3 * b3 * b0 * b0 + b3 * b1**3 + 3 * b2**3 * b0 - 3 * b2 * b2 * b1 * b1
    if r == 1:
        return 3 * b3 * b3 * b0 * b0 + b3 * b1**3 + b2**3 * b0 - b2 * b2 * b1 * b1
    return b3 * b3 * b0 * b0 + 3 * b3 * b1**3 + b2**3 * b0 - 3 * b2 * b2 * b1 * b1


def d_value(n: int) -> int:
    """Derived sequence d_n = b_n*b_{n+5} - b_{n+2}*b_{n+3}."""
    b = term
    return b(n) * b(n + 5) - b(n + 2) * b(n + 3)


def d_ratio(n: int) -> Fraction:
    """d_n / (b_{n+1} * b_{n+4}); lands in {1, 3}, depending only on n mod 3.

    Direct computation places the factor 3 at n = 0 (mod 3); the tests pin
    that placement.
    """
    den = term(n + 1) * term(n + 4)
    if den == 0:
        raise ZeroDivisionError(f"b_{n+1}*b_{n+4} = 0")
    return Fraction(d_value(n), den)


@dataclass(frozen=True)
class ResidueCycle:
    modulus: int
    period: int
    pattern: tuple[int, ...]
    contains_zero: bool


# Window width covers the deeper (order-7) recurrence, so a repeated window
# pins the whole tail of the residue stream.
_WINDOW = 7


def residue_cycle(m: int, search_bound: int = DEFAULT_CYCLE_SEARCH_BOUND) -> ResidueCycle:
    """Detect the period of b_n mod m for n >= 0 by sliding-window comparison.

    The period is detected empirically from exact terms, not derived from
    the recurrence; a window match is confirmed over three further periods
    before it is accepted.  Residues are produced incrementally (terms grow
    fast, so nothing beyond the confirmation range is ever computed).
    Raises CycleDetectionError if no window repeat shows up within
    search_bound terms.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    residues = [term(n) % m for n in range(2 * _WINDOW)]

    def extend(upto: int) -> None:
        while len(residues) < upto:
            residues.append(term(len(residues)) % m)

    base = tuple(residues[:_WINDOW])
    for t in range(1, search_bound):
        extend(t + _WINDOW)
        if tuple(residues[t : t + _WINDOW]) == base:
            extend(4 * t + _WINDOW)
            span = len(residues) - t
            if residues[t : t + span] == residues[:span]:
                pattern = tuple(residues[:t])
                return ResidueCycle(m, t, pattern, 0 in pattern)
    raise CycleDetectionError(f"no period mod {m} within {search_bound} terms")


def coprimality_report(n_max: int) -> bool:
    """True iff gcd(b_n, b_{n-i}) = 1 for i in {1,2,3} and all 3 <= n <= n_max."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    for n in range(3, n_max + 1):
        bn = term(n)
        for i in (1, 2, 3):
            if math.gcd(bn, term(n - i)) != 1:
                return False
    return True
