"""Command-line front end: generation, correlation, distribution, verification.

Exit codes: 0 = all checks pass, 1 = mathematical mismatch, 2 = usage error, 3 = internal error.
Output is CSV by default (`--json` switches to a single JSON document) and
deterministic: rows sorted by tau ascending, distributions by value ascending.
"""

from __future__ import annotations

import argparse
import json
import sys
from array import array
from collections import Counter
from itertools import product
from operator import neg

from . import arith, blocks, closedform, gf2m
from .errors import ArithCorrError, RangeFormatError, check_tau, excerpt
from .gf2m import MAX_DEGREE, MIN_DEGREE, GF2m, find_primitive_polynomials, format_poly, make_field, parse_poly
from .sequences import m_sequence

# Timed on a 2-core x86-64 host with Python 3.11
ALL_SHIFTS_COST = (
    "The direct route over all shifts (acorr --all --method direct|all) does O(4^m) bit operations: about 17 s "
    "at m = 18, 5 min at m = 20, 2 h at m = 22 and 30 h at m = 24. dist and verify walk every shift once, by the "
    "direct route up to m = 14 and by the blocks scan above: dist --check takes about 0.6 s at m = 16, 1.9 s at "
    "m = 17 and 5.8 s at m = 18. verify also checks lemma 1's classical autocorrelation from one decimal "
    "product: about 0.7 s at m = 16, 1.8 s at m = 17, 6 s at m = 18 and 23 s at m = 19; above m = 17 the blocks "
    "scan at every tau dominates its time, about four times longer per degree."
)
# taus per slice of acorr rows built before writing
_ROW_SLICE = 4096


def _resolve_field(m: int, poly_text: str | None) -> GF2m:
    return make_field(m, None if poly_text is None else parse_poly(poly_text))


def _exhaustive_route(m: int) -> str:
    """The 2-adic route that runs at every tau, verify's distribution column and dist's:
    direct up to m = 14, the blocks scan above, where it costs less."""
    return "direct" if m <= 14 else "blocks"


def _column(route: str, seq, taus) -> array:
    """A(tau) for each tau of taus by the carry-free 2-adic route named, looked up at call time."""
    return (arith.arithmetic_autocorrs if route == "direct" else blocks.autocorrs_via_blocks)(seq, taus)


def cmd_gen(args) -> int:
    ctx = _resolve_field(args.m, args.poly)
    seq = m_sequence(ctx)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "gen",
                    "m": ctx.m,
                    "poly": format_poly(ctx.modulus),
                    "n": ctx.n,
                    "bits": str(seq),
                }
            )
        )
    elif args.format == "csv":
        print(seq.to_csv())
    else:
        print(seq)
    return 0


def cmd_acorr(args) -> int:
    ctx = _resolve_field(args.m, args.poly)
    if not args.all:
        check_tau(args.tau, 1, ctx.n)
    seq = m_sequence(ctx)
    methods = ["direct", "blocks", "closed"] if args.method == "all" else [args.method]
    taus = range(1, ctx.n) if args.all else [args.tau]
    route = {
        "direct": lambda: arith.arithmetic_autocorrs(seq, taus),
        "blocks": lambda: blocks.autocorrs_via_blocks(seq, taus),
        "closed": lambda: closedform.predict_acorrs(ctx, taus),
    }
    # the routes come as one array('i') column each, 4 bytes per tau, and the
    # rows become text one slice of taus at a time, so memory holds no Python
    # object per tau; the JSON text is what json.dumps of the whole document
    # would give
    columns = [route[k]() for k in methods]
    mismatch = any(column != columns[0] for column in columns[1:])
    if args.json:
        head = json.dumps({"command": "acorr", "m": ctx.m, "poly": format_poly(ctx.modulus), "methods": methods})
        print(f'{head[:-1]}, "rows": [', end="")
        sep, row = ", ", "{{" + ", ".join(f'"{k}": {{}}' for k in ["tau"] + methods) + "}}"
    else:
        sep, row = "\n", ",".join(["{}"] * (1 + len(methods)))
    for lo in range(0, len(taus), _ROW_SLICE):
        rows = map(row.format, taus[lo : lo + _ROW_SLICE], *(c[lo : lo + _ROW_SLICE] for c in columns))
        print((sep if lo else "") + sep.join(rows), end="")
    status = "fail" if mismatch else "pass"
    print(f'], "status": "{status}"}}' if args.json else "")
    return 1 if mismatch else 0


def cmd_dist(args) -> int:
    ctx = _resolve_field(args.m, args.poly)
    dist = Counter(_column(_exhaustive_route(ctx.m), m_sequence(ctx), range(1, ctx.n)))
    ok = dist == closedform.predict_distribution(ctx.m) if args.check else None
    if args.json:
        doc = {
            "command": "dist",
            "m": ctx.m,
            "poly": format_poly(ctx.modulus),
            "distribution": {str(v): dist[v] for v in sorted(dist)},
        }
        if args.check:
            doc["check"] = "pass" if ok else "fail"
        print(json.dumps(doc))
    else:
        for v in sorted(dist):
            print(f"{v},{dist[v]}")
        if args.check:
            print(f"check,{'pass' if ok else 'fail'}")
    return 0 if ok in (True, None) else 1


def _verify_field(ctx: GF2m, rows: list, mismatches: list) -> None:
    """Check one field, walking its shifts once per route, then append each
    check's row and mismatch records."""
    m, n = ctx.m, ctx.n
    poly = f"0x{ctx.modulus:x}"
    seq = m_sequence(ctx)
    # the taus each route checks, verify's coverage stated once: blocks and closed at every
    # tau, direct at every tau where it is the exhaustive 2-adic route and otherwise at 65
    # spread taus plus n - 1, in order; the distribution reads the exhaustive 2-adic column;
    # counting, eqs. (4)-(5) and lemma 1's patterns, to m = 8
    every = range(1, n)
    taus = {"direct": every, "blocks": every, "closed": every, "counting": every if m <= 8 else ()}
    source = _exhaustive_route(m)
    other = "blocks" if source == "direct" else "direct"
    if source == "blocks":
        taus["direct"] = sorted({*range(1, n, (n - 1) // 64), n - 1})
    checks = ["three_way", "lemma1"] + (["counting"] if taus["counting"] else []) + ["distribution"]
    bad = {check: [] for check in checks}

    def miss(check, kind, **detail):
        bad[check].append({"check": kind, "m": m, "poly": poly, **detail})

    # lemma 1: two-level classical autocorrelation, every tau from one decimal product;
    # the array is dropped before the route columns are allocated
    for tau, classical in enumerate(seq.classical_autocorrs()):
        if tau and classical != -1:
            miss("lemma1", "classical", tau=tau)

    # the routes come as columns, one value per tau of their table entry, so column[tau - 1]
    # is A(tau) from the exhaustive route; odd keeps the other route's values that differ
    column = _column(source, seq, taus[source])
    odd = {tau: value for tau, value in zip(taus[other], _column(other, seq, taus[other])) if value != column[tau - 1]}
    closeds = closedform.predict_acorrs(ctx, taus["closed"])
    if odd or column != closeds:
        for tau, value, closed in zip(taus[source], column, closeds):
            if value != closed or tau in odd:
                values = {source: value, other: odd.get(tau, value) if tau in taus[other] else None}
                miss("three_way", "three_way", tau=tau, direct=values["direct"], blocks=values["blocks"], closed=closed)
    quarter = 1 << (m - 2)
    for tau in taus["counting"]:
        # walked in pi-power order, the trace conditions of eqs. (4)-(5)
        # select exactly these windows: eq4[l] = N(0,0;l)+N(0,1;l),
        # eq5[l] = N(1,0;l)+N(1,1;l)
        eq4, eq5 = [0] * m, [0] * m
        for (alpha, l), c in blocks.block_type_counts(seq, seq.shift(tau)).items():
            (eq5 if alpha else eq4)[l] += c
        if sum(eq4) != quarter or sum(eq5) != quarter:
            miss("counting", "count_sums", tau=tau)
        for l in range(1, m):
            if closedform.lemma4_count(ctx, tau, l) != eq4[l]:
                miss("counting", "closed_count", tau=tau, l=l)
        if sum(l * c for l, c in enumerate(eq4)) != closedform.weighted_sum(ctx, tau):
            miss("counting", "weighted_sum", tau=tau)

    # lemma 1's pattern counts, and the full distribution against the closed form
    if taus["counting"]:
        for l in range(1, m + 1):
            for pattern in product((0, 1), repeat=l):
                expected = (1 << (m - l)) - 1 if not any(pattern) else 1 << (m - l)
                got = seq.pattern_count(pattern)
                if got != expected:
                    miss("lemma1", "pattern", pattern="".join(map(str, pattern)), expected=expected, got=got)
    if Counter(column) != closedform.predict_distribution(m):
        miss("distribution", "distribution")
    # modulo 2^n - 1, d(n - tau) = -2^tau * d(tau): the power of 2 rotates the
    # bits and the negation complements them, so A(n - tau) = -A(tau)
    if column != array("i", map(neg, reversed(column))):
        for tau, value, mirror in zip(range(1, n // 2 + 1), column, reversed(column)):
            if mirror != -value:
                miss("distribution", "antisymmetry", tau=tau, **{source: value}, mirror=mirror)

    for check, records in bad.items():
        row = {"check": check, "m": m, "poly": poly, "status": "fail" if records else "pass"}
        if check == "three_way":
            row["taus_checked"] = {route: len(taus[route]) for route in ("direct", "blocks", "closed")}
            row["sampled"] = min(row["taus_checked"].values()) < n - 1
        elif check == "lemma1":
            row["patterns_checked"] = bool(taus["counting"])
        elif check == "distribution":
            row["distribution_source"] = source
        rows.append(row)
        mismatches.extend(records)


def cmd_verify(args) -> int:
    try:
        lo_text, _, hi_text = args.m_range.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise RangeFormatError(f"malformed m-range {excerpt(args.m_range)}, expected A..B") from None
    if lo > hi:
        raise RangeFormatError(f"empty m-range {excerpt(args.m_range)}, expected A <= B")
    gf2m._check_degree(lo)
    gf2m._check_degree(hi)
    # one field at a time, so that no field's tables outlive its checks; --poly fits
    # one degree, so its fields are built first and a wrong range runs no check
    degrees = range(lo, hi + 1)
    if args.polys == "all":
        fields = (make_field(m, poly) for m in degrees for poly in find_primitive_polynomials(m, 3))
    else:
        fields = (_resolve_field(m, args.poly) for m in degrees)
        if args.poly is not None:
            fields = list(fields)
    rows, mismatches = [], []
    for ctx in fields:
        _verify_field(ctx, rows, mismatches)
    status = "fail" if mismatches else "pass"
    if args.json:
        parameters = {"m_range": args.m_range, "polys": args.polys or "default", "poly": args.poly}
        doc = {"command": "verify", "parameters": parameters}
        print(json.dumps(doc | {"rows": rows, "mismatches": mismatches, "status": status}))
    else:
        print("check,m,poly,status")
        for row in rows:
            print(f"{row['check']},{row['m']},{row['poly']},{row['status']}")
        for miss in mismatches:
            detail = ";".join(f"{k}={v}" for k, v in miss.items())
            print(f"mismatch,{detail}")
        print(f"status,{status}")
    return 1 if mismatches else 0


def _add_poly_flag(container) -> None:
    """Add --poly, which means the same in every command."""
    container.add_argument(
        "--poly",
        help="the modulus, a primitive polynomial of degree m, as hex mask (0xB) or exponent list (3,1,0); "
        "default: the smallest primitive mask of degree m",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithcorr",
        description="Arithmetic (2-adic) autocorrelation of binary m-sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an m-sequence")
    gen.add_argument("--m", type=int, required=True)
    _add_poly_flag(gen)
    output = gen.add_mutually_exclusive_group()
    # no default: argparse would let a --format equal to its default pass beside --json
    output.add_argument("--format", choices=["bits", "csv"])
    output.add_argument("--json", action="store_true")
    gen.set_defaults(func=cmd_gen)

    acorr = sub.add_parser("acorr", help="arithmetic autocorrelation at one or all shifts", epilog=ALL_SHIFTS_COST)
    acorr.add_argument("--m", type=int, required=True)
    _add_poly_flag(acorr)
    group = acorr.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", type=int)
    group.add_argument("--all", action="store_true")
    acorr.add_argument("--method", choices=["direct", "blocks", "closed", "all"], default="direct")
    acorr.add_argument("--json", action="store_true")
    acorr.set_defaults(func=cmd_acorr)

    dist = sub.add_parser("dist", help="full correlation distribution", epilog=ALL_SHIFTS_COST)
    dist.add_argument("--m", type=int, required=True)
    _add_poly_flag(dist)
    dist.add_argument("--check", action="store_true", help="compare against the closed form")
    dist.add_argument("--json", action="store_true")
    dist.set_defaults(func=cmd_dist)

    verify = sub.add_parser("verify", help="run the full verification suite", epilog=ALL_SHIFTS_COST)
    verify.add_argument("--m-range", required=True, help=f"degree range A..B, {MIN_DEGREE} <= A <= B <= {MAX_DEGREE}")
    moduli = verify.add_mutually_exclusive_group()
    _add_poly_flag(moduli)
    # no default: argparse would let a --polys equal to its default pass beside --poly
    moduli.add_argument(
        "--polys",
        choices=["default", "all"],
        help="all: up to three primitive polynomials of each degree, the smallest masks first "
        "(find_primitive_polynomials(m, 3)), not every one; default: one modulus per degree",
    )
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ArithCorrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not bad input: 1 stays the code for a mismatch
        sys.excepthook(*sys.exc_info())  # the traceback, on stderr
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
