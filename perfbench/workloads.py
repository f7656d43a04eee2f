"""One benchmark pass in a fresh process.

    python3 perfbench/workloads.py WORKLOAD --threads N --trace 0|1 --pass-id ID

Each pass starts cold, as a command-line call does: the library's
lru_cache tables (build_hk, full_agl, h2, ...) are empty.  The pass calls
the library's public functions, and prints one JSON line with the raw
answers under the names in reference.PASS, the moment it was ready to
solve (time.monotonic, so the parent can compute set-up time), the solve
wall and CPU times, peak memory, prime counts, and the spans of a traced
pass.  Checking the answers is left to the parent.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import numpy
from echotk import aglgroup, curves, density, fabulous, sweep

from reference import BRUTE_LEVELS, ECHO_X, FAMILY_X
from spans import NullRecorder, SpanRecorder


def echo_sweep(rec, threads: int) -> tuple[dict, int, int]:
    with rec.span("sweep.sweep"):
        recs = sweep.sweep(ECHO_X, threads=threads)
    got = {}
    for r in recs:
        got[f"row.{r.x}"] = f"{r.pi_prime} {r.pi}"
        got[f"ratio.{r.x}"] = r.ratio
    return got, recs[-1].pi, recs[-1].pi_prime


def family_scan(rec, threads: int) -> tuple[dict, int, int]:
    with rec.span("fabulous.family_report"):
        member = fabulous.family_report(1, sweep_x=FAMILY_X, threads=threads)
    with rec.span("fabulous.find_control_pair"):
        pair = fabulous.find_control_pair()
    with rec.span("fabulous.report_for_pair"):
        control = fabulous.report_for_pair(*pair, sweep_x=FAMILY_X, threads=threads)
    with rec.span("sweep.density_scan"):
        anchor = sweep.density_scan(curves.CURVE_E, curves.POINT_P, FAMILY_X, threads=threads)
    got = {
        "member.certificate": str(member.certificate.all_true),
        "member.roots": " ".join(str(r) for r in member.fabulous_roots),
        "member.root_is_-96b^2": str(member.fabulous_roots == (-96 * member.b * member.b,)),
        "member.scan": f"{member.odd_order_primes} {member.primes}",
        "control.pair": " ".join(str(v) for v in pair),
        "control.certificate": str(control.certificate.all_true),
        "control.roots": " ".join(str(r) for r in control.fabulous_roots),
        "control.scan": f"{control.odd_order_primes} {control.primes}",
        "anchor.scan": f"{anchor[-1].pi_prime} {anchor[-1].pi}",
    }
    primes = member.primes + control.primes + anchor[-1].pi
    hits = member.odd_order_primes + control.odd_order_primes + anchor[-1].pi_prime
    return got, primes, hits


def twoadic(rec, threads: int) -> tuple[dict, int, int]:
    with rec.span("aglgroup.classify_kinetic"):
        classes = aglgroup.classify_kinetic(2)
    got = {
        "classify.orders": " ".join(str(c.order) for c in classes),
        "classify.members": " ".join(str(c.members_found) for c in classes),
        "classify.proper_is_h2": str(classes[-1].representative.codes == aglgroup.h2().codes),
    }
    matched = 0
    for k in BRUTE_LEVELS:
        with rec.span("density.brute_report"):
            report, per_class = density.brute_report(k)
        got[f"brute.total.k{k}"] = str(report.total)
        matched += sum(
            frac == density.mu_case(m)
            for m, frac in per_class.items()
            if density.resolved_at_level_2(m)
        )
    got["brute.resolved_match"] = str(matched)
    for group in ("hk", "full"):
        with rec.span("density.analytic_density"):
            got[f"analytic.{group}"] = str(density.analytic_density(group).total)
    with rec.span("aglgroup.build_hk"):
        got["hk4.order"] = str(aglgroup.build_hk(4).order)
    return got, 0, 0


WORKLOADS = {"echo-sweep": echo_sweep, "family-scan": family_scan, "twoadic": twoadic}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pass-id", required=True)
    args = ap.parse_args()
    rec = SpanRecorder(args.pass_id) if args.trace else NullRecorder()

    ready_at = time.monotonic()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with rec.span("pass"):
        got, primes, hits = WORKLOADS[args.workload](rec, args.threads)
    solve_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest reaped worker
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "ready_at": ready_at,
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kib / 1024,
        "primes": primes,
        "hits": hits,
        "got": got,
        "spans": rec.spans,
        "numpy": numpy.__version__,
    }))


if __name__ == "__main__":
    main()
