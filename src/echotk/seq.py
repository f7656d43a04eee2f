"""The ECHO sequence: an integer recurrence, memoized over all integer indices.

Each recurrence is a data row, and one step fills any row in both
directions.  The two equivalent ECHO rows are PRIMARY, of order 4 with the
coefficient c_n of ``coefficient``, and APPENDIX, of order 7 with constant
coefficients; SOMOS4 is a third.  Every division is exact (the terms are
integers).  Equality of the two ECHO rows, the index symmetry b_n =
-b_{-(n+1)}, and the residue periodicities are all checked by the test
suite rather than assumed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

DEFAULT_CYCLE_SEARCH_BOUND = 2000


class Recurrence(NamedTuple):
    """Seed b_0..b_{N-1}; terms(n) gives the (i, c) of b_n b_{n-N} = sum of c b_{n-i} b_{n-N+i}."""

    seed: tuple[int, ...]
    terms: Callable[[int], tuple[tuple[int, int], ...]]


def coefficient(n: int) -> int:
    """c_n of the primary recurrence: 3 when 3 divides n, else 1."""
    return 3 if n % 3 == 0 else 1


PRIMARY = Recurrence((1, 1, 2, 1), lambda n: ((1, 1), (2, -coefficient(n))))
APPENDIX = Recurrence((1, 1, 2, 1, -3, -7, -17), lambda n: ((1, -1), (3, 5)))
SOMOS4 = Recurrence((1, 1, 1, 1), lambda n: ((1, 1), (2, 1)))


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
    """Two-way memoized view of the sequence one recurrence row defines."""

    def __init__(self, recurrence: Recurrence = PRIMARY):
        self.recurrence = recurrence
        self._cache: dict[int, int] = dict(enumerate(recurrence.seed))
        self._lo, self._hi = 0, len(recurrence.seed) - 1  # the cache holds lo..hi

    def term(self, n: int) -> int:
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        # fill the cache one index at a time from its nearer end, so no call
        # recurses however far n lies outside it
        fill = range(self._hi + 1, n + 1) if n > self._hi else range(self._lo - 1, n - 1, -1)
        for i in fill:
            if i not in self._cache:
                self._cache[i] = self._step(i)
            self._lo, self._hi = min(self._lo, i), max(self._hi, i)
        return self._cache[n]

    def _step(self, n: int) -> int:
        # the relation at top = n going up, or at top = n + N going down;
        # b_n is the one end of the pair b_top b_{top-N} not yet known
        b = self._cache.__getitem__
        order = len(self.recurrence.seed)
        top, other = (n, n - order) if n >= order else (n + order, n + order)
        value = sum(c * b(top - i) * b(top - order + i) for i, c in self.recurrence.terms(top))
        return _exact_div(value, b(other), f"b_{n}")


_PRIMARY = EchoSequence(PRIMARY)
_APPENDIX = EchoSequence(APPENDIX)


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
    b3, b2, b1, b0 = (term(n - i) for i in (3, 2, 1, 0))
    c = coefficient
    return (c(n - 1) * b3 * b3 * b0 * b0 + c(n - 2) * b3 * b1**3 + c(n) * b2**3 * b0
            - c(n) * c(n - 2) * b2 * b2 * b1 * b1)


def d_value(n: int) -> int:
    """Derived sequence d_n = b_n*b_{n+5} - b_{n+2}*b_{n+3}."""
    b = term
    return b(n) * b(n + 5) - b(n + 2) * b(n + 3)


def d_ratio(n: int) -> Fraction:
    """d_n / (b_{n+1} * b_{n+4}), which direct computation finds equal to
    coefficient(n); the tests pin that placement.
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


# Window width covers the deeper (appendix) recurrence, so a repeated window
# pins the whole tail of the residue stream.
_WINDOW = len(APPENDIX.seed)


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
