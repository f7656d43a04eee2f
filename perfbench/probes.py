"""Fixed-input probes of one layer's public functions, in a fresh process.

    python3 perfbench/probes.py GROUP --seed N

GROUP is sweep (with curves), fabulous (with polyops), aglgroup or density.
The seed draws where the inputs sit: the prime windows above 10^4, 10^5
and 10^6, the sieve segment, the scalars, and the (v, A) samples for the
column-space probes.  The fabulous and aglgroup probes have no drawn
input.  Prints one JSON line: the layer metrics, named as in
BENCHMARK.json, and raw answers under the names in reference.PROBES.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import time

from echotk import aglgroup, curves, density, fabulous, polyops, sweep
from echotk.aglgroup import AglElem
from echotk.curves import CURVE_E, POINT_P

from reference import COLSPACE_SAMPLES, IMAGE_SAMPLES, PRIME_WINDOW, SCALAR_SAMPLES

REPS = 3  # millisecond-scale probes report the median of this many timings


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _median_s(fn) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(REPS))


def _prime_window(start: int, count: int) -> list[int]:
    hi = start + 4 * count * math.ceil(math.log(start))  # mean prime gap is log(start)
    window = list(sweep.primes_in_range(start, hi, sweep.primes_up_to(math.isqrt(hi) + 1)))
    return window[:count]


def _odd_part(n: int) -> int:
    return n >> ((n & -n).bit_length() - 1)


def probe_sweep(rng: random.Random) -> tuple[dict, dict]:
    windows = {tag: _prime_window(lo + rng.randrange(lo), PRIME_WINDOW)
               for tag, lo in (("1e4", 10**4), ("1e5", 10**5), ("1e6", 10**6))}
    m, got = {}, {}
    for tag, ps in windows.items():
        s = _median_s(lambda: [sweep.divides_some_term(p) for p in ps])
        m[f"sweep.decide_us.{tag}"] = 1e6 * s / len(ps)

    ps = windows["1e6"]
    s, reduced = _timed(lambda: [(curves.reduce_mod_p(CURVE_E, p)[0], curves.reduce_point_mod_p(POINT_P, p))
                                 for p in ps])
    m["curves.reduce_us"] = 1e6 * s / len(ps)
    s, orders = _timed(lambda: [sweep.group_order(c) for c, _ in reduced])
    m["sweep.group_order_us.1e6"] = 1e6 * s / len(ps)
    # #E(F_p) is in the Hasse interval and kills P, and the sweep's decision is
    # odd order of P, all checked with the curves module's separate arithmetic
    got["group_order.checked"] = str(sum(
        abs(n - p - 1) <= math.isqrt(4 * p)
        and curves.scalar_mul(n, pt, c) is None
        and sweep.divides_some_term(p) == (curves.scalar_mul(_odd_part(n), pt, c) is None)
        for p, n, (c, pt) in zip(ps, orders, reduced)
    ))

    doubles = [curves.add(pt, pt, c) for c, pt in reduced]
    s = _median_s(lambda: [curves.add(pt, q, c) for (c, pt), q in zip(reduced, doubles)])
    m["curves.add_fp_us"] = 1e6 * s / len(ps)
    scalars = [rng.randrange(10**6, 2 * 10**6) for _ in range(SCALAR_SAMPLES)]
    s, outs = _timed(lambda: [curves.scalar_mul(n, pt, c) for n, (c, pt) in zip(scalars, reduced)])
    m["curves.scalar_mul_fp_ms"] = 1e3 * s / SCALAR_SAMPLES
    got["scalar_mul.on_curve"] = str(sum(
        q is None or c.contains(q) for q, (c, _) in zip(outs, reduced)
    ))

    lo = rng.randrange(2, 10**6 - sweep.SEGMENT_SIZE)
    hi = lo + sweep.SEGMENT_SIZE
    base = sweep.primes_up_to(math.isqrt(hi) + 1)
    s = _median_s(lambda: list(sweep.primes_in_range(lo, hi, base)))
    m["sweep.sieve_ms_per_segment"] = 1e3 * s
    got["sieve.matches_primes_up_to"] = str(
        list(sweep.primes_in_range(lo, hi, base)) == [p for p in sweep.primes_up_to(hi - 1) if p >= lo]
    )
    return m, got


def probe_fabulous(rng: random.Random) -> tuple[dict, dict]:
    a, b = fabulous.parametrize(1)
    quartic = fabulous.fabulous_poly(a, b).coeffs
    halving = fabulous.halving_quartic(curves.curve_from_pair(a, b))
    m, got = {}, {}
    m["fabulous.certify_ms"] = 1e3 * _median_s(lambda: fabulous.certify_kinetic_conditions(a, b))
    m["fabulous.control_search_ms"] = 1e3 * _median_s(fabulous.find_control_pair)
    m["polyops.rational_roots_ms"] = 1e3 * _median_s(lambda: polyops.rational_roots(quartic))
    m["polyops.quartic_irreducible_ms"] = 1e3 * _median_s(lambda: polyops.is_quartic_irreducible(halving))
    got["certify.all_true"] = str(fabulous.certify_kinetic_conditions(a, b).all_true)
    got["control_pair"] = " ".join(str(v) for v in fabulous.find_control_pair())
    got["rational_roots"] = " ".join(str(r) for r in polyops.rational_roots(quartic))
    got["halving_quartic_irreducible"] = str(polyops.is_quartic_irreducible(halving))
    return m, got


def _full_group_generators(k: int) -> list[AglElem]:
    # unit translations, the two elementary transvections, and diag(u, 1)
    # for units u generating (Z/2^k)^*
    mask = (1 << k) - 1
    return [
        AglElem(k, 1, 0, 1, 0, 0, 1),
        AglElem(k, 0, 1, 1, 0, 0, 1),
        AglElem(k, 0, 0, 1, 1, 0, 1),
        AglElem(k, 0, 0, 1, 0, 1, 1),
        AglElem(k, 0, 0, mask, 0, 0, 1),
        AglElem(k, 0, 0, 3 & mask, 0, 0, 1),
    ]


def probe_aglgroup(rng: random.Random) -> tuple[dict, dict]:
    # one cold call each (seconds-scale, and every call fills lru_caches)
    m, got = {}, {}
    s, classes = _timed(lambda: aglgroup.classify_kinetic(2))
    m["aglgroup.classify_s.l2"] = s
    m["aglgroup.kinetic_found.l2"] = sum(c.members_found for c in classes)
    got["classify.orders"] = " ".join(str(c.order) for c in classes)
    s, full3 = _timed(lambda: aglgroup.closure(_full_group_generators(3)))
    m["aglgroup.closure_us_per_elem.l3"] = 1e6 * s / full3.order
    got["closure.order.l3"] = str(full3.order)
    s, kinetic = _timed(lambda: aglgroup.is_kinetic(full3))
    m["aglgroup.is_kinetic_ms.l3"] = 1e3 * s
    got["is_kinetic.l3"] = str(kinetic)
    s, hk4 = _timed(lambda: aglgroup.build_hk(4))
    m["aglgroup.build_hk_s.l4"] = s
    got["hk4.order"] = str(hk4.order)
    return m, got


def probe_density(rng: random.Random) -> tuple[dict, dict]:
    m, got = {}, {}
    s, reports = _timed(lambda: [density.analytic_density(g) for g in ("hk", "full")])
    m["density.analytic_ms"] = 1e3 * s  # cold, as a command-line call pays it
    got["analytic.hk"], got["analytic.full"] = (str(r.total) for r in reports)

    k = 5
    mod = 1 << k
    pairs = [((rng.randrange(mod), rng.randrange(mod)), tuple(rng.randrange(mod) for _ in range(4)))
             for _ in range(COLSPACE_SAMPLES)]
    s, answers = _timed(lambda: [density.colspace_contains(v, a, k) for v, a in pairs])
    m["density.colspace_contains_us.k5"] = 1e6 * s / len(pairs)
    oracle = pairs[:IMAGE_SAMPLES]
    s, images = _timed(lambda: [density.image_of(a, k) for _, a in oracle])
    m["density.image_of_ms.k5"] = 1e3 * s / len(oracle)
    got["colspace.agrees_with_image_of"] = str(sum(
        ans == (tuple(v) in img) for ans, (v, _), img in zip(answers, oracle, images)
    ))

    for k in (4, 5):
        s, (report, per_class) = _timed(lambda: density.brute_report(k))
        m[f"density.brute_us_per_matrix.k{k}"] = 1e6 * s / aglgroup.GL_ORDERS[k]
        got[f"brute.total.k{k}"] = str(report.total)
    got["brute.resolved_match.k5"] = str(sum(
        frac == density.mu_case(mat) for mat, frac in per_class.items() if density.resolved_at_level_2(mat)
    ))
    return m, got


GROUPS = {"sweep": probe_sweep, "fabulous": probe_fabulous, "aglgroup": probe_aglgroup, "density": probe_density}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("group", choices=sorted(GROUPS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    metrics, got = GROUPS[args.group](random.Random(f"{args.group}:{args.seed}"))
    print(json.dumps({"metrics": metrics, "got": got}))


if __name__ == "__main__":
    main()
