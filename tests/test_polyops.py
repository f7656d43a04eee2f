import math
import random
from fractions import Fraction
from typing import Iterator

import pytest

from echotk import fabulous, polyops


# Integer factorization for the divisor-pair oracle below: trial division up
# to a fixed bound with a deterministic Miller-Rabin test for the cofactor,
# refusing (loudly) inputs whose factorization falls outside that reach.

TRIAL_DIVISION_BOUND = 1_000_000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # deterministic below this


class FactorizationError(ArithmeticError):
    """Integer outside the configured factorization reach."""


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in small:
        return True
    if any(n % p == 0 for p in small):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIME_CACHE: list[int] = []  # every prime up to _PRIME_CACHE_LIMIT
_PRIME_CACHE_LIMIT = 0


def _trial_primes() -> Iterator[int]:
    """Every prime up to TRIAL_DIVISION_BOUND in order, sieved into a shared cache on demand.

    The cache at least doubles when a caller runs past its end, so a caller
    that stops at isqrt(n) sieves only to about twice that.
    """
    global _PRIME_CACHE, _PRIME_CACHE_LIMIT
    i = 0
    while True:
        if i == len(_PRIME_CACHE):
            if _PRIME_CACHE_LIMIT >= TRIAL_DIVISION_BOUND:
                return
            _PRIME_CACHE_LIMIT = min(max(1024, 2 * _PRIME_CACHE_LIMIT), TRIAL_DIVISION_BOUND)
            _PRIME_CACHE = polyops.primes_up_to(_PRIME_CACHE_LIMIT)
        yield _PRIME_CACHE[i]
        i += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n nonzero).

    Trial division stops at the first prime p with p^2 above the cofactor,
    or after every prime up to TRIAL_DIVISION_BOUND; either way a cofactor
    below the bound squared has no prime factor up to its square root.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n < TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND:
            out[n] = out.get(n, 0) + 1  # below the trial square: must be prime
        else:
            root = math.isqrt(n)
            if root * root == n and is_probable_prime(root) and root < _MR_LIMIT:
                out[root] = out.get(root, 0) + 2
            elif n < _MR_LIMIT and is_probable_prime(n):
                out[n] = out.get(n, 0) + 1
            else:
                raise FactorizationError(f"cofactor {n} beyond factorization bound")
    return out


def divisors(n):
    """All positive divisors of |n|, sorted."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _rational_roots_by_divisor_pairs(coeffs):
    """Oracle: the rational-root theorem over every divisor pair p/q of the
    extreme integer coefficients, each candidate tested in Fraction arithmetic."""
    fr = [Fraction(c) for c in coeffs]
    while fr and fr[-1] == 0:
        fr.pop()
    roots = set()
    shift = 0
    while fr[shift] == 0:
        shift += 1
    if shift:
        roots.add(Fraction(0))
        fr = fr[shift:]
    if len(fr) > 1:
        scale = math.lcm(*(c.denominator for c in fr))
        ints = [int(c * scale) for c in fr]
        for p in divisors(ints[0]):
            for q in divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if cand not in roots and sum(c * cand**i for i, c in enumerate(fr)) == 0:
                        roots.add(cand)
    return sorted(roots)


def _from_roots(roots, lead=1, extra=(1,)):
    """lead * prod (x - r) * extra, ascending coefficients."""
    poly = _mul([Fraction(lead)], [Fraction(c) for c in extra])
    for r in roots:
        poly = _mul(poly, [-Fraction(r), Fraction(1)])
    return poly


def test_rational_roots_examples():
    assert polyops.rational_roots([-1, 0, 0, 0, 1]) == [-1, 1]  # x^4 - 1
    assert polyops.rational_roots([1, 0, 0, 0, 1]) == []  # x^4 + 1
    assert polyops.rational_roots([0, 0, 1]) == [0]  # x^2


def test_rational_roots_with_denominators():
    # 6x^2 - 5x + 1 = (2x - 1)(3x - 1), scaled by 1/7
    coeffs = [Fraction(1, 7), Fraction(-5, 7), Fraction(6, 7)]
    assert polyops.rational_roots(coeffs) == [Fraction(1, 3), Fraction(1, 2)]


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_rational_roots_completeness_random():
    # lead * (x - r1)(x - r2)(x^2 + 1) has exactly the planted roots
    rng = random.Random(13)
    for _ in range(200):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)]
        poly = [Fraction(rng.randint(1, 5))]
        for r in roots:
            poly = _mul(poly, [-r, Fraction(1)])
        poly = _mul(poly, [Fraction(1), Fraction(0), Fraction(1)])
        assert polyops.rational_roots(poly) == sorted(set(roots))
        assert _rational_roots_by_divisor_pairs(poly) == sorted(set(roots))


def test_rational_roots_clustered_in_one_unit_interval():
    # 2-4 roots m + j/d in one unit interval, with and without a far root
    # and an irreducible quadratic factor
    rng = random.Random(41)
    quadratics = [(1,), (1, 0, 1), (-2, 0, 1), (1, 1, 1), (-7, 3, 5)]
    for _ in range(80):
        m, d = rng.randint(-4, 4), rng.randint(2, 7)
        roots = [m + Fraction(j, d) for j in rng.sample(range(d), rng.randint(2, min(4, d)))]
        if rng.random() < 0.5:
            roots.append(Fraction(rng.choice((-1, 1)) * rng.randint(100, 1000), rng.randint(1, 3)))
        poly = _from_roots(roots, rng.choice((1, -1, 2, 3, 6)), rng.choice(quadratics))
        want = sorted(set(roots))
        assert polyops.rational_roots(poly) == want == _rational_roots_by_divisor_pairs(poly)


def test_rational_roots_random_non_monic_integer_polynomials():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 6)
        lead = rng.choice((-1, 1)) * rng.randint(2, 30)
        poly = [rng.randint(-30, 30) for _ in range(n)] + [lead]
        assert polyops.rational_roots(poly) == _rational_roots_by_divisor_pairs(poly), poly


def test_rational_roots_edge_cases():
    cases = [
        [7, 3],  # degree 1: -7/3
        [0, 5],  # degree 1 with root 0
        [-1, 1],  # x - 1
        _from_roots([0, 0, 1, -1], extra=(1, 0, 1)),
        _from_roots([1, 1, 2]),  # (x - 1)^2 (x - 2): a double root next to a simple one
        _from_roots([-1, -1, -1, 1, 1]),
        # (x - M)(x^2 + 1): the root M is one below the Cauchy bound M + 1
        [-1000, 1, -1000, 1],
        [-(2**61 - 1), 1],  # large root
        [Fraction(-3, 2), Fraction(1, 5)],  # non-integer coefficients: 15/2
        [0, 0, 0, 4, 0, -4],  # x^3 (1 - x^2) scaled: 0, -1, 1
        [5],  # nonzero constant: no roots
    ]
    for poly in cases:
        assert polyops.rational_roots(poly) == _rational_roots_by_divisor_pairs(poly), poly
    assert polyops.rational_roots([-1000, 1, -1000, 1]) == [1000]
    with pytest.raises(ValueError):
        polyops.rational_roots([0, 0])


def test_rational_roots_family_member_and_control_quartics():
    # the t = 1 member quartic and the (-1, -1) control quartic
    a, b = fabulous.parametrize(1)
    member = fabulous.fabulous_poly(a, b).coeffs
    want = [Fraction(-1594323, 128)]
    assert polyops.rational_roots(member) == want == _rational_roots_by_divisor_pairs(member)
    control = fabulous.fabulous_poly(-1, -1).coeffs
    assert polyops.rational_roots(control) == [] == _rational_roots_by_divisor_pairs(control)


def sylvester_resultant(f, g) -> Fraction:
    """Res(f, g) via the Sylvester matrix determinant (exact): the discriminant's oracle."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        raise ValueError("resultant of the zero polynomial")
    size = n + m
    rows = []
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    # fraction-based Gaussian elimination
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def test_quartic_discriminant_matches_resultant():
    rng = random.Random(5)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
        coeffs.append(Fraction(rng.randint(1, 6)))
        deriv = [coeffs[i] * i for i in range(1, 5)]
        disc = polyops.quartic_discriminant(coeffs)
        res = sylvester_resultant(coeffs, deriv)
        # disc = (-1)^(4*3/2) Res(f, f') / lc = Res / lc
        assert disc == res / coeffs[4]


def test_sylvester_resultant_common_root():
    # share the root 2
    f = [-2, 1]  # x - 2
    g = [-4, 0, 1]  # x^2 - 4
    assert sylvester_resultant(f, g) == 0


def test_is_rational_square():
    assert polyops.is_rational_square(Fraction(9, 16))
    assert polyops.is_rational_square(0)
    assert not polyops.is_rational_square(Fraction(-9, 16))
    assert not polyops.is_rational_square(Fraction(2))
    assert not polyops.is_rational_square(Fraction(9, 15))


def test_is_probable_prime():
    assert is_probable_prime(2)
    assert is_probable_prime(1_000_003)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(1_000_001)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-17) == {17: 1}
    big_prime = 1_000_000_000_039
    assert factorize(big_prime) == {big_prime: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_beyond_bound_raises():
    p = 1_000_003
    q = 1_000_033
    with pytest.raises(FactorizationError):
        factorize(p * p * q * q * p)  # cofactor p^3 q^2-ish: composite, not a square


def _factorize_oracle(n, primes):
    """Trial division by the full sieve to the bound, then the same cofactor rules."""
    n = abs(n)
    out = {}
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        bound = TRIAL_DIVISION_BOUND
        root = math.isqrt(n)
        if n < bound * bound or is_probable_prime(n):
            out[n] = 1
        elif root * root == n and is_probable_prime(root):
            out[root] = 2
        else:
            raise FactorizationError(n)
    return out


def test_factorize_matches_full_sieve_trial_division(monkeypatch):
    # start from an empty prime cache so it grows in steps as n increases
    monkeypatch.setitem(globals(), "_PRIME_CACHE", [])
    monkeypatch.setitem(globals(), "_PRIME_CACHE_LIMIT", 0)
    primes = polyops.primes_up_to(TRIAL_DIVISION_BOUND)
    rng = random.Random(12)
    bound_sq = TRIAL_DIVISION_BOUND ** 2
    near = [999_953, 999_959, 999_961, 999_979, 999_983, 1_000_003, 1_000_033, 1_000_037]
    cases = [rng.randrange(1, 10 ** e) for e in range(1, 13) for _ in range(25)]
    cases += [p * p for p in near] + [p * q for p in near for q in near if p < q]
    cases += [bound_sq + d for d in range(-40, 41)]
    for n in cases:
        try:
            want = _factorize_oracle(n, primes)
        except FactorizationError:
            with pytest.raises(FactorizationError):
                factorize(n)
        else:
            assert factorize(n) == want, n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(-9) == [1, 3, 9]


IRREDUCIBLE = [
    [1, 0, 0, 0, 1],  # x^4 + 1
    [2, 0, 0, 0, 1],  # x^4 + 2 (Eisenstein)
    [1, 1, 1, 1, 1],  # cyclotomic Phi_5
    [-2, -4, 2, 4, 1],
]

REDUCIBLE_NO_ROOT = [
    [4, 0, 0, 0, 1],  # x^4 + 4 = (x^2+2x+2)(x^2-2x+2)
    [1, 0, 1, 0, 1],  # (x^2+x+1)(x^2-x+1)
    [6, 0, -5, 0, 1],  # (x^2-2)(x^2-3)
    [1, 0, -2, 0, 1],  # (x^2 - x - 1)(x^2 + x - 1)
]


def test_quartic_irreducibility_known_cases():
    for coeffs in IRREDUCIBLE:
        assert polyops.is_quartic_irreducible(coeffs), coeffs
    for coeffs in REDUCIBLE_NO_ROOT:
        assert not polyops.is_quartic_irreducible(coeffs), coeffs
    assert not polyops.is_quartic_irreducible([-1, 0, 0, 0, 1])  # has roots


def test_quartic_irreducibility_detects_planted_quadratic_pairs():
    rng = random.Random(23)
    for _ in range(150):
        u, v = rng.randint(-5, 5), rng.randint(-5, 5)
        w, z = rng.randint(-5, 5), rng.randint(-5, 5)
        # (x^2 + u x + v)(x^2 + w x + z)
        coeffs = [v * z, u * z + v * w, v + z + u * w, u + w, 1]
        assert not polyops.is_quartic_irreducible(coeffs), (u, v, w, z)


def _reducible_by_bounded_search(coeffs):
    """Oracle: complete search for monic-integer quadratic factorizations."""
    e, d, c, b, _ = [int(x) for x in coeffs]
    bound = 2 * (1 + max(abs(e), abs(d), abs(c), abs(b)))
    for u in range(-bound, bound + 1):
        w = b - u
        s = c - u * w
        # v + z = s, u z + v w = d, v z = e
        if u != w:
            num = d - u * s
            den = w - u
            if num % den:
                continue
            v = num // den
            z = s - v
            if v * z == e:
                return True
        else:
            if u * s != d:  # u z + v w = u (v + z) when u = w
                continue
            disc = s * s - 4 * e
            if disc >= 0:
                r = int(disc**0.5)
                for rr in (r - 1, r, r + 1):
                    if rr >= 0 and rr * rr == disc and (s + rr) % 2 == 0:
                        return True
    return False


def test_quartic_irreducibility_against_bounded_search():
    rng = random.Random(31)
    for _ in range(150):
        coeffs = [rng.randint(-4, 4) for _ in range(4)] + [1]
        roots = polyops.rational_roots(coeffs)
        assert roots == _rational_roots_by_divisor_pairs(coeffs), coeffs
        has_root = bool(roots)
        reducible = has_root or _reducible_by_bounded_search(coeffs)
        assert polyops.is_quartic_irreducible(coeffs) == (not reducible), coeffs
