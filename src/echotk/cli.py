"""Command-line entry point: one dispatcher for all subcommands.

Machine output renders exact rationals as "num/den" strings; decimal
ratios appear only in the sweep tables, at 9 places.  Exit codes: 0 on
success, 1 when a computation violates its contract (a verify check
fails), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import aglgroup, curves, density, fabulous, seq, sweep


# argparse prints an ArgumentTypeError's message as written, not the type helper's name
def _invalid(kind: str, text: str) -> argparse.ArgumentTypeError:
    return argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}")


def _parse_int(text: str) -> int:
    """An integer, also in integral scientific notation such as 1e5."""
    try:
        value = Decimal(text)
    except ArithmeticError:
        raise _invalid("integer", text) from None
    if not value.is_finite() or value != value.to_integral_value():
        raise _invalid("integer", text)
    return int(value)


def _parse_positive_int(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise _invalid("positive integer", text)
    return value


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # n/0 raises ZeroDivisionError
        raise _invalid("rational", text) from None


def emit_sweep_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "pi_prime", "pi", "ratio"])
    writer.writerows([rec.x, rec.pi_prime, rec.pi, rec.ratio] for rec in records)
    return buf.getvalue()


def _write(text: str, path: Optional[str]) -> int:
    """Save text to path, if one is given, then print it: an unwritable path prints nothing."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _emit(args, payload, lines: Iterable[str]) -> int:
    """Write a result once: JSON of payload with --json, else one line per item of lines."""
    text = json.dumps(payload, indent=2) + "\n" if args.json else "".join(f"{line}\n" for line in lines)
    return _write(text, args.out)


def _cmd_seq(args) -> int:
    term = seq.term_alt if args.alt else seq.term
    rows = [(n, str(term(n))) for n in range(args.start, args.to + 1)]
    return _emit(args, [{"n": n, "b_n": v} for n, v in rows], (f"{n}\t{v}" for n, v in rows))


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
    return _write(emit_sweep_csv(records), args.csv)


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
            for e in cl.generators
        )
        print(f"  order {cl.order}  (members found: {cl.members_found}; counts {counted})")
        print(f"    generators: {gens}")
    return 0


def _cmd_density(args) -> int:
    group = "full" if args.full else "hk"
    if args.density_cmd == "analytic":
        report = density.analytic_density(group)
        lines = [report.total] + [
            f"  {label}: {frac}  ({report.case_counts[label]} matrices)" for label, frac in report.per_case.items()
        ]
    else:
        report, _ = density.brute_report(args.level, group)
        lines = [
            f"{report.total}  (~{float(report.total):.9f})",
            f"  restricted to det(M-I) != 0: {report.s1_total}  (~{float(report.s1_total):.9f})",
        ]
    return _emit(args, report.as_json_dict(), lines)


def _cmd_family(args) -> int:
    report = fabulous.family_report(args.t, sweep_x=args.sweep, threads=args.threads)
    lines = [
        f"a = {report.a}",
        f"b = {report.b}",
        f"fabulous roots: {[str(r) for r in report.fabulous_roots]}",
        f"certificate all-true: {report.certificate.all_true}",
    ] + [f"  {key}: {val}" for key, val in report.certificate.as_dict().items()]
    if report.sweep_x is not None:
        lines.append(
            f"odd-order density to {report.sweep_x}: "
            f"{report.odd_order_primes}/{report.primes} = {report.empirical_density:.6f}"
        )
    return _emit(args, report.as_json_dict(), lines)


# ---------------------------------------------------------------------------
# verify: the invariant table, one (suite, label, check) row per invariant;
# tests/test_acceptance.py runs each row as its own test


def _odd_multiples_reduced() -> bool:
    def ok(om: curves.OddMultiple) -> bool:
        direct = curves.scalar_mul(2 * om.n + 1, curves.POINT_P, curves.CURVE_E)
        return om.as_point() == direct and math.gcd(om.x_num * om.y_num, om.denom_base) == 1

    return all(ok(curves.odd_multiple_coords(n)) for n in range(101))


def _group_law_samples() -> bool:
    e = curves.CURVE_E
    pts = curves.random_rational_points(12, random.Random(1))
    return all(
        curves.add(a, b, e) == curves.add(b, a, e)
        and curves.add(curves.add(a, b, e), c, e) == curves.add(a, curves.add(b, c, e), e)
        for a, b, c in zip(pts, pts[1:], pts[2:])
    )


def _normal_form_of_base_pair() -> bool:
    a, b, tmap = curves.tate_normal_form(curves.CURVE_E, curves.POINT_P)
    return (a, b) == (Fraction(6, 5), Fraction(3, 25)) and tmap.apply(curves.POINT_P) == (0, 0)


def _criterion_matches_scan(term: Callable[[int], int], odd_order: Callable[[int], bool]) -> bool:
    # p | b_n forces an odd multiple of the point, (2n+1)P for ECHO and
    # (2n-3)P for Somos-4, to be O mod p, so the first hit lies within half
    # the group order, which p + 2 isqrt(p) + 4 exceeds
    return all(
        odd_order(p) == any(term(n) % p == 0 for n in range(p + 2 * math.isqrt(p) + 4))
        for p in sweep.primes_up_to(199)
    )


_SOMOS4_PAIR = (curves.Curve(0, 0, 1, -1, 0), (Fraction(0), Fraction(0)))  # (0, 0) on y^2 + y = x^3 - x


def _somos4_criterion_matches_scan() -> bool:
    # Somos-4's terms get their own memo
    pair = sweep._prepare(*_SOMOS4_PAIR)
    return _criterion_matches_scan(
        seq.EchoSequence(seq.SOMOS4).term, lambda p: bool(sweep._decide([p], *pair)[0])
    )


def _level3_classification() -> bool:
    cl3 = aglgroup.classify_kinetic(3)
    return (
        [c.order for c in cl3] == [98304, 24576]
        and np.array_equal(cl3[1].representative.code_array, aglgroup.build_hk(3).code_array)
    )


def _level3_classes_contain_the_kernel() -> bool:
    # why the tower closes at level 3 (classify_kinetic's docstring): each class holds K
    kernel = aglgroup._kernel_codes(range(64), 3)
    return all(np.isin(kernel, c.representative.code_array).all() for c in aglgroup.classify_kinetic(3))


def _discriminant_identity() -> bool:
    rng = random.Random(17)
    pairs = []
    while len(pairs) < 10:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if b != 0 and curves.curve_from_pair(a, b).discriminant() != 0:
            pairs.append((a, b))
    return all(fabulous.discriminant_identity_check(a, b) for a, b in pairs)


def _base_pair_certificate() -> bool:
    a, b, _ = curves.tate_normal_form(curves.CURVE_E, curves.POINT_P)
    return fabulous.certify_kinetic_conditions(a, b).all_true and bool(
        fabulous.fabulous_poly(a, b).rational_roots()
    )


# (c, a, b) with brute_density(k, group) = c + a 4^-k + b 64^-k, as summed in
# the ``brute_report`` docstring
_BRUTE_CLOSED_FORMS = {
    "hk": (Fraction(179, 336), Fraction(7, 20), Fraction(32, 105)),
    "full": (Fraction(11, 21), Fraction(2, 5), Fraction(8, 105)),
}
_BRUTE_FORMS_LABEL = "; ".join(
    f"{g} {c} + ({a}) 4^-k + ({b}) 64^-k" for g, (c, a, b) in _BRUTE_CLOSED_FORMS.items()
)

INVARIANTS: tuple[tuple[str, str, Callable[[], bool]], ...] = (
    ("sequence", "primary/alternate definitions agree, |n| <= 300",
     lambda: all(seq.term(n) == seq.term_alt(n) for n in range(-300, 301))),
    ("sequence", "index symmetry b_n = -b_{-(n+1)}, |n| <= 300",
     lambda: all(seq.term(n) == -seq.term(-(n + 1)) for n in range(-300, 301))),
    ("sequence", "h(n) = 0 for 0 <= n <= 500",
     lambda: all(seq.h_value(n) == 0 for n in range(501))),
    ("sequence", "neighbor coprimality to n = 300",
     lambda: seq.coprimality_report(300)),
    ("sequence", "mod-3 period 9 with pattern (1,1,2,1,0,2,1,2,2)",
     lambda: seq.residue_cycle(3) == seq.ResidueCycle(3, 9, (1, 1, 2, 1, 0, 2, 1, 2, 2), True)),
    ("sequence", "mod-5 period 24, zero-free",
     lambda: (rc := seq.residue_cycle(5)).period == 24 and not rc.contains_zero),
    ("sequence", "d-sequence shift relation, 0 <= n <= 300",
     lambda: all(
         seq.term(n + 7) * seq.d_value(n) == seq.term(n + 1) * seq.d_value(n + 3) for n in range(301)
     )),
    ("sequence", "d_n/(b_{n+1} b_{n+4}) is 3 iff n = 0 mod 3, else 1, 0 <= n <= 300",
     lambda: all(seq.d_ratio(n) == (3 if n % 3 == 0 else 1) for n in range(301))),
    ("curve", "odd multiples match double-and-add, n <= 100, reduced", _odd_multiples_reduced),
    ("curve", "group law commutes/associates on rational samples", _group_law_samples),
    ("curve", "normal form of (E, P) is (6/5, 3/25) and maps P to the origin",
     _normal_form_of_base_pair),
    ("sweep", "sweep table to 1e4: (3,4) (13,25) (91,168) (636,1229)",
     lambda: [(r.x, r.pi_prime, r.pi) for r in sweep.sweep(10_000, threads=1)]
     == [(10, 3, 4), (100, 13, 25), (1000, 91, 168), (10000, 636, 1229)]),
    ("sweep", "odd-order criterion matches direct sequence scan, p < 200",
     lambda: _criterion_matches_scan(seq.term, sweep.divides_some_term)),
    ("sweep", "Somos-4 criterion ((0, 0) on y^2 + y = x^3 - x) matches direct term scan, p < 200",
     _somos4_criterion_matches_scan),
    ("sweep", "Somos-4 scan to 1e4: (3,4) (14,25) (93,168) (654,1229)",
     lambda: [(r.x, r.pi_prime, r.pi) for r in sweep.density_scan(*_SOMOS4_PAIR, 10_000, threads=1)]
     == [(10, 3, 4), (100, 14, 25), (1000, 93, 168), (10000, 654, 1229)]),
    ("group", "|H_2| = 384 and kinetic",
     lambda: aglgroup.h2().order == 384 and aglgroup.is_kinetic(aglgroup.h2())),
    ("group", "|H_3| = 24576, |H_4| = 1572864",
     lambda: (aglgroup.build_hk(3).order, aglgroup.build_hk(4).order) == (24576, 1572864)),
    ("group", "coset decomposition of H_2", aglgroup.coset_structure_check),
    ("group", "level-2 classification: full group + one proper class of order 384",
     lambda: [c.order for c in aglgroup.classify_kinetic(2)] == [1536, 384]),
    ("group", "level-3 classification: full group + exactly H_3", _level3_classification),
    ("group", "both level-3 classes contain all 64 elements of the kernel K of reduction mod 4",
     _level3_classes_contain_the_kernel),
    ("density", "analytic density = 179/336",
     lambda: density.analytic_density("hk").total == Fraction(179, 336)),
    ("density", "analytic full-group density = 11/21",
     lambda: density.analytic_density("full").total == Fraction(11, 21)),
    ("density", f"brute densities: {_BRUTE_FORMS_LABEL} (k in 2..16)",
     lambda: all(
         density.brute_closed_form(g) == (c, a, b)
         and all(density.brute_density(k, g) == c + a / 4**k + b / 64**k for k in range(2, 17))
         for g, (c, a, b) in _BRUTE_CLOSED_FORMS.items()
     )),
    ("family", "quartic discriminant identity at 10 random pairs", _discriminant_identity),
    ("family", "rational_roots finds the quartic root -96b^2 at t in {1, 2, 3, 7, 1/2}",
     lambda: all(
         -96 * b * b in fabulous.fabulous_poly(a, b).rational_roots()
         for a, b in map(fabulous.parametrize, (1, 2, 3, 7, Fraction(1, 2)))
     )),
    ("family", "certificate of the base pair is all-true with a rational quartic root",
     _base_pair_certificate),
)


def _cmd_verify(args) -> int:
    failures = 0
    for suite, label, check in INVARIANTS:
        ok = check()
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {suite}: {label}")
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
    # the options of every command that _emit writes
    result = argparse.ArgumentParser(add_help=False)
    result.add_argument("--json", action="store_true", help="print the result as JSON")
    result.add_argument("--out", default=None, help="also save the printed bytes to this file")

    p_seq = sub.add_parser("seq", parents=[result], help="print sequence terms")
    p_seq.add_argument("--from", dest="start", type=_parse_int, required=True)
    p_seq.add_argument("--to", dest="to", type=_parse_int, required=True)
    p_seq.add_argument("--alt", action="store_true", help="use the order-7 definition")
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
    p_sweep.add_argument("--csv", default=None, help="also save the printed table to this file")
    p_sweep.add_argument("--checkpoint", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_group = sub.add_parser("group", help="subgroup machinery")
    group_sub = p_group.add_subparsers(dest="group_cmd", required=True)
    p_classify = group_sub.add_parser("classify")
    p_classify.add_argument("--level", type=_parse_int, choices=(2, 3), required=True)
    p_classify.set_defaults(fn=_cmd_group)
    p_hk = group_sub.add_parser("hk")
    p_hk.add_argument("--level", type=_parse_int, required=True)
    p_hk.set_defaults(fn=_cmd_group)

    p_density = sub.add_parser("density", help="column-space density")
    density_sub = p_density.add_subparsers(dest="density_cmd", required=True)
    p_analytic = density_sub.add_parser("analytic", parents=[result])
    p_analytic.add_argument("--full", action="store_true", help="full group instead of H_k")
    p_analytic.set_defaults(fn=_cmd_density)
    p_brute = density_sub.add_parser("brute", parents=[result])
    p_brute.add_argument("--level", type=_parse_int, required=True)
    p_brute.add_argument("--full", action="store_true")
    p_brute.set_defaults(fn=_cmd_density)

    p_family = sub.add_parser("family", parents=[result], help="certificate bundle for a parametrized pair")
    p_family.add_argument("--t", type=_parse_fraction, required=True)
    p_family.add_argument("--sweep", type=_parse_int, default=None)
    p_family.add_argument("--threads", type=_parse_positive_int, default=None)
    p_family.set_defaults(fn=_cmd_family)

    p_verify = sub.add_parser("verify", help="run every row of the invariant table")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with each token that starts with "-" and a digit or "." joined by
    "=" to the option before it.  argparse reads only -N and -N.N after a
    space as numbers; -11/2 or -1e1 would be taken for options."""
    out: list[str] = []
    for tok in argv:
        if out and re.match(r"-[\d.]", tok) and re.fullmatch(r"--[^=]+", out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(argv))
        if args.command == "seq" and args.start > args.to:
            parser.error(f"seq: --from {args.start} exceeds --to {args.to}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, aglgroup.ResourceBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # b_n passes the default 4300-digit limit on int -> str at n = 409; lift
    # it for this process, not in run(), so library callers keep their own
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
