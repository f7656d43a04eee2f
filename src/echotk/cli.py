"""Command-line entry point: one dispatcher for all subcommands.

Machine output renders exact rationals as "num/den" strings; decimal
ratios appear only in the sweep tables, at 9 places.  Exit codes: 0 on
success, 1 when a computation violates its contract (a verify suite
fails), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import aglgroup, curves, density, fabulous, seq, sweep


def _parse_int(text: str) -> int:
    """An integer, also in integral scientific notation such as 1e5."""
    try:
        value = Decimal(text)
    except ArithmeticError:
        raise ValueError(text) from None
    if not value.is_finite() or value != value.to_integral_value():
        raise ValueError(text)
    return int(value)


def _parse_positive_int(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def emit_sweep_csv(records, path: Optional[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "pi_prime", "pi", "ratio"])
    for rec in records:
        writer.writerow([rec.x, rec.pi_prime, rec.pi, rec.ratio])
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def emit_json(payload, path: Optional[str]) -> str:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _cmd_seq(args) -> int:
    term = seq.term_alt if args.alt else seq.term
    rows = [(n, term(n)) for n in range(args.start, args.to + 1)]
    if args.json:
        sys.stdout.write(emit_json([{"n": n, "b_n": str(v)} for n, v in rows], args.out))
    else:
        for n, v in rows:
            print(f"{n}\t{v}")
    return 0


def _cmd_point(args) -> int:
    om = curves.odd_multiple_coords(args.n)
    direct = curves.scalar_mul(2 * args.n + 1, curves.POINT_P, curves.CURVE_E)
    closed = om.as_point()
    print(f"(2*{args.n}+1)P via sequence terms: ({closed[0]}, {closed[1]})")
    if direct is None:
        print("(2n+1)P via double-and-add: infinity")
    else:
        print(f"(2*{args.n}+1)P via double-and-add: ({direct[0]}, {direct[1]})")
    if closed != direct:
        print("MISMATCH between the two routes", file=sys.stderr)
        return 1
    return 0


def _cmd_tate(args) -> int:
    c = curves.Curve(args.a1, args.a2, args.a3, args.a4, args.a6)
    a, b, _ = curves.tate_normal_form(c, (args.px, args.py))
    print(f"a = {a}")
    print(f"b = {b}")
    return 0


def _cmd_sweep(args) -> int:
    records = sweep.sweep(args.max, threads=args.threads, checkpoint_path=args.checkpoint)
    text = emit_sweep_csv(records, args.csv)
    sys.stdout.write(text)
    return 0


def _cmd_group(args) -> int:
    if args.group_cmd == "hk":
        rep = aglgroup.build_hk(args.level)
        print(f"|H_{args.level}| = {rep.order}")
        print(f"index in full group: {aglgroup.AGL_ORDERS[args.level] // rep.order}")
        print(f"kinetic: {aglgroup.is_kinetic(rep)}")
        return 0
    classes = aglgroup.classify_kinetic(args.level)
    # KineticClass states what members_found counts at each level
    counted = "every member" if args.level == 2 else "members whose mod-4 image is a level-2 representative"
    print(f"kinetic subgroup classes at level {args.level}: {len(classes)}")
    for cl in classes:
        gens = ", ".join(
            f"(({e.v0},{e.v1}),[{e.m00},{e.m01};{e.m10},{e.m11}])"
            for e in cl.representative.generators
        )
        print(f"  order {cl.order}  (members found: {cl.members_found}; counts {counted})")
        print(f"    generators: {gens}")
    return 0


def _cmd_density(args) -> int:
    group = "full" if args.full else "hk"
    if args.density_cmd == "analytic":
        report = density.analytic_density(group)
        if args.json:
            sys.stdout.write(emit_json(report.as_json_dict(), args.out))
        else:
            print(report.total)
            for label, frac in report.per_case.items():
                print(f"  {label}: {frac}  ({report.case_counts[label]} matrices)")
        return 0
    report, _ = density.brute_report(args.level, group)
    if args.json:
        sys.stdout.write(emit_json(report.as_json_dict(), args.out))
    else:
        print(f"{report.total}  (~{float(report.total):.9f})")
        print(f"  restricted to det(M-I) != 0: {report.s1_total}  (~{float(report.s1_total):.9f})")
    return 0


def _cmd_family(args) -> int:
    report = fabulous.family_report(args.t, sweep_x=args.sweep, threads=args.threads)
    if args.json:
        sys.stdout.write(emit_json(report.as_json_dict(), args.out))
    else:
        print(f"a = {report.a}")
        print(f"b = {report.b}")
        print(f"fabulous roots: {[str(r) for r in report.fabulous_roots]}")
        print(f"certificate all-true: {report.certificate.all_true}")
        for key, val in report.certificate.as_dict().items():
            print(f"  {key}: {val}")
        if report.sweep_x is not None:
            print(
                f"odd-order density to {report.sweep_x}: "
                f"{report.odd_order_primes}/{report.primes} = {report.empirical_density:.6f}"
            )
    return 0


# ---------------------------------------------------------------------------
# verify: the invariant suites


def _suite_sequence() -> list[tuple[str, bool]]:
    out = []
    out.append((
        "primary/alternate definitions agree, |n| <= 300",
        all(seq.term(n) == seq.term_alt(n) for n in range(-300, 301)),
    ))
    out.append((
        "index symmetry b_n = -b_{-(n+1)}, |n| <= 300",
        all(seq.term(n) == -seq.term(-(n + 1)) for n in range(-300, 301)),
    ))
    out.append(("h(n) = 0 for 0 <= n <= 500", all(seq.h_value(n) == 0 for n in range(501))))
    out.append((
        "neighbor coprimality to n = 300",
        seq.coprimality_report(300),
    ))
    rc3, rc5 = seq.residue_cycle(3), seq.residue_cycle(5)
    out.append((
        "mod-3 period 9 with pattern (1,1,2,1,0,2,1,2,2)",
        rc3.period == 9 and rc3.pattern == (1, 1, 2, 1, 0, 2, 1, 2, 2),
    ))
    out.append(("mod-5 period 24, zero-free", rc5.period == 24 and not rc5.contains_zero))
    out.append((
        "d-sequence shift relation, 0 <= n <= 300",
        all(
            seq.term(n + 7) * seq.d_value(n) == seq.term(n + 1) * seq.d_value(n + 3)
            for n in range(301)
        ),
    ))
    out.append((
        "d_n/(b_{n+1} b_{n+4}) is 3 iff n = 0 mod 3, else 1, 0 <= n <= 300",
        all(seq.d_ratio(n) == (3 if n % 3 == 0 else 1) for n in range(301)),
    ))
    return out


def _suite_curve() -> list[tuple[str, bool]]:
    import math
    import random

    out = []
    e, p = curves.CURVE_E, curves.POINT_P
    ok = True
    for n in range(101):
        om = curves.odd_multiple_coords(n)
        ok = ok and om.as_point() == curves.scalar_mul(2 * n + 1, p, e)
        ok = ok and math.gcd(om.x_num, om.denom_base) == 1
    out.append(("odd multiples match double-and-add, n <= 100, reduced", ok))
    rng = random.Random(1)
    pts = curves.random_rational_points(12, rng)
    ok = all(
        curves.add(a, b, e) == curves.add(b, a, e)
        and curves.add(curves.add(a, b, e), c, e) == curves.add(a, curves.add(b, c, e), e)
        for a, b, c in zip(pts, pts[1:], pts[2:])
    )
    out.append(("group law commutes/associates on rational samples", ok))
    a, b, tmap = curves.tate_normal_form(e, p)
    out.append((
        "normal form of (E, P) is (6/5, 3/25) and maps P to the origin",
        (a, b) == (Fraction(6, 5), Fraction(3, 25)) and tmap.apply(p) == (0, 0),
    ))
    return out


def _suite_sweep() -> list[tuple[str, bool]]:
    out = []
    recs = sweep.sweep(10_000, threads=1)
    out.append((
        "sweep table to 1e4: (3,4) (13,25) (91,168) (636,1229)",
        [(r.x, r.pi_prime, r.pi) for r in recs]
        == [(10, 3, 4), (100, 13, 25), (1000, 91, 168), (10000, 636, 1229)],
    ))
    ok = True
    seq._PRIMARY.warm(0, 250)  # scan bound below stays under 230 for p < 200
    for p in sweep.primes_up_to(199):
        scan = any(seq.term(n) % p == 0 for n in range(p + 2 * (int(p**0.5) + 1) + 2))
        ok = ok and sweep.divides_some_term(p) == scan
    out.append(("odd-order criterion matches direct sequence scan, p < 200", ok))
    return out


def _suite_group() -> list[tuple[str, bool]]:
    out = []
    out.append(("|H_2| = 384 and kinetic", aglgroup.h2().order == 384 and aglgroup.is_kinetic(aglgroup.h2())))
    out.append(("|H_3| = 24576, |H_4| = 1572864", aglgroup.build_hk(3).order == 24576 and aglgroup.build_hk(4).order == 1572864))
    out.append(("coset decomposition of H_2", aglgroup.coset_structure_check()))
    cl2 = aglgroup.classify_kinetic(2)
    out.append((
        "level-2 classification: full group + one proper class of order 384",
        len(cl2) == 2 and cl2[0].order == 1536 and cl2[1].order == 384,
    ))
    cl3 = aglgroup.classify_kinetic(3)
    out.append((
        "level-3 classification: full group + exactly H_3",
        len(cl3) == 2
        and cl3[0].order == 98304
        and np.array_equal(cl3[1].representative.code_array, aglgroup.build_hk(3).code_array),
    ))
    return out


def _suite_density() -> list[tuple[str, bool]]:
    out = []
    rep = density.analytic_density("hk")
    out.append(("analytic density = 179/336", rep.total == Fraction(179, 336)))
    out.append(("analytic full-group density = 11/21", density.analytic_density("full").total == Fraction(11, 21)))
    forms = {"hk": (Fraction(179, 336), Fraction(7, 20), Fraction(32, 105)),
             "full": (Fraction(11, 21), Fraction(2, 5), Fraction(8, 105))}
    exact = all(density.brute_density(k, g) == c + a / 4**k + b / 64**k
                for g, (c, a, b) in forms.items() for k in range(2, 17))
    label = "; ".join(f"{g} {c} + ({a}) 4^-k + ({b}) 64^-k" for g, (c, a, b) in forms.items())
    out.append((f"brute densities: {label} (k in 2..16)", exact))
    return out


def _suite_family() -> list[tuple[str, bool]]:
    import random

    out = []
    rng = random.Random(17)
    ok = True
    n = 0
    while n < 10:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if b == 0 or curves.curve_from_pair(a, b).discriminant() == 0:
            continue
        ok = ok and fabulous.discriminant_identity_check(a, b)
        n += 1
    out.append(("quartic discriminant identity at 10 random pairs", ok))
    ok = True
    for t in (1, 2, 3, 7, Fraction(1, 2)):
        a, b = fabulous.parametrize(t)
        ok = ok and -96 * b * b in fabulous.fabulous_poly(a, b).rational_roots()
    out.append(("rational_roots finds the quartic root -96b^2 at t in {1, 2, 3, 7, 1/2}", ok))
    a, b, _ = curves.tate_normal_form(curves.CURVE_E, curves.POINT_P)
    cert = fabulous.certify_kinetic_conditions(a, b)
    out.append((
        "certificate of the base pair is all-true with a rational quartic root",
        cert.all_true and bool(fabulous.fabulous_poly(a, b).rational_roots()),
    ))
    return out


def _cmd_verify(args) -> int:
    suites = [
        ("sequence", _suite_sequence),
        ("curve", _suite_curve),
        ("sweep", _suite_sweep),
        ("group", _suite_group),
        ("density", _suite_density),
        ("family", _suite_family),
    ]
    failures = 0
    for name, fn in suites:
        for label, ok in fn():
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            print(f"[{status}] {name}: {label}")
    if failures:
        print(f"{failures} invariant check(s) failed", file=sys.stderr)
        return 1
    print("all invariant suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echo", description="Exact toolkit for the ECHO sequence and its curve"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print sequence terms")
    p_seq.add_argument("--from", dest="start", type=_parse_int, required=True)
    p_seq.add_argument("--to", dest="to", type=_parse_int, required=True)
    p_seq.add_argument("--alt", action="store_true", help="use the order-7 definition")
    p_seq.add_argument("--json", action="store_true")
    p_seq.add_argument("--out", default=None)
    p_seq.set_defaults(fn=_cmd_seq)

    p_point = sub.add_parser("point", help="coordinates of (2n+1)P both ways")
    p_point.add_argument("--n", type=_parse_int, required=True)
    p_point.set_defaults(fn=_cmd_point)

    p_tate = sub.add_parser("tate", help="normal form of a curve/point pair")
    for name in ("a1", "a2", "a3", "a4", "a6", "px", "py"):
        p_tate.add_argument(f"--{name}", type=_parse_fraction, required=name in ("px", "py"), default=Fraction(0))
    p_tate.set_defaults(fn=_cmd_tate)

    p_sweep = sub.add_parser("sweep", help="prime sweep for sequence divisibility")
    p_sweep.add_argument("--max", type=_parse_int, required=True)
    p_sweep.add_argument("--threads", type=_parse_positive_int, default=None)
    p_sweep.add_argument("--csv", default=None)
    p_sweep.add_argument("--checkpoint", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_group = sub.add_parser("group", help="subgroup machinery")
    group_sub = p_group.add_subparsers(dest="group_cmd", required=True)
    p_classify = group_sub.add_parser("classify")
    p_classify.add_argument("--level", type=int, choices=(2, 3), required=True)
    p_classify.set_defaults(fn=_cmd_group)
    p_hk = group_sub.add_parser("hk")
    p_hk.add_argument("--level", type=int, required=True)
    p_hk.set_defaults(fn=_cmd_group)

    p_density = sub.add_parser("density", help="column-space density")
    density_sub = p_density.add_subparsers(dest="density_cmd", required=True)
    p_analytic = density_sub.add_parser("analytic")
    p_analytic.add_argument("--full", action="store_true", help="full group instead of H_k")
    p_analytic.add_argument("--json", action="store_true")
    p_analytic.add_argument("--out", default=None)
    p_analytic.set_defaults(fn=_cmd_density)
    p_brute = density_sub.add_parser("brute")
    p_brute.add_argument("--level", type=int, required=True)
    p_brute.add_argument("--full", action="store_true")
    p_brute.add_argument("--json", action="store_true")
    p_brute.add_argument("--out", default=None)
    p_brute.set_defaults(fn=_cmd_density)

    p_family = sub.add_parser("family", help="certificate bundle for a parametrized pair")
    p_family.add_argument("--t", type=_parse_fraction, required=True)
    p_family.add_argument("--sweep", type=_parse_int, default=None)
    p_family.add_argument("--threads", type=_parse_positive_int, default=None)
    p_family.add_argument("--json", action="store_true")
    p_family.add_argument("--out", default=None)
    p_family.set_defaults(fn=_cmd_family)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if getattr(args, "threads", 1) is None:  # no --threads: ECHO_THREADS or the CPU count
            try:
                args.threads = sweep.default_threads()
            except ValueError as exc:
                parser.error(str(exc))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, aglgroup.ResourceBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
