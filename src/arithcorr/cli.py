"""Command-line front end: generation, correlation, distribution, verification.

Exit codes: 0 = all checks pass, 1 = mathematical mismatch, 2 = usage error.
Output is CSV by default (`--json` switches to a single JSON document) and
deterministic: rows sorted by tau ascending, distributions by value ascending.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from . import arith, blocks, closedform
from .errors import ArithCorrError, PolynomialFormatError, excerpt
from .gf2m import MIN_DEGREE, GF2m, find_primitive_polynomials, format_poly, make_field, parse_poly
from .sequences import m_sequence

POLY_TABLE_ENV = "ARITHCORR_POLY_TABLE"
# Largest degree `verify` accepts; its checks walk all 2^m - 2 shifts, so the cost
# at least doubles with each degree
VERIFY_MAX_DEGREE = 16
# Largest degree at which `verify` runs the blocks route at every tau; above it
# the blocks route runs on spread sample taus and the three_way row says so
THREE_WAY_EXHAUSTIVE_MAX_DEGREE = 14
# Timed on a 2-core x86-64 host with Python 3.11
ALL_SHIFTS_COST = (
    "The direct route over all shifts (acorr --all, dist) does O(4^m) bit operations: "
    "about 17 s at m = 18, 5 min at m = 20 and hours at m = 24."
)


@dataclass
class RunReport:
    """Outcome of a batch command: per-check rows plus any mismatches."""

    command: str
    parameters: dict
    rows: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if not self.mismatches else "fail"

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "rows": self.rows,
                "mismatches": self.mismatches,
                "status": self.status,
            }
        )


def _load_env_poly_table() -> dict[int, int]:
    """User polynomial table: UTF-8 lines `m,exponent-list`, '#' comments allowed.

    A file that does not decode, a malformed line or a second line for the
    same m raises PolynomialFormatError.
    """
    path = os.environ.get(POLY_TABLE_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise PolynomialFormatError(f"{path}: not UTF-8 ({exc.reason})") from None
    table = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(",")
        try:
            m = int(head)
        except ValueError:
            raise PolynomialFormatError(f"bad table line {excerpt(raw)}") from None
        if m in table:
            raise PolynomialFormatError(f"second table line for m={m}: {excerpt(raw)}")
        table[m] = parse_poly(rest)
    return table


def _resolve_field(m: int, poly_text: str | None) -> GF2m:
    if poly_text is not None:
        return make_field(m, parse_poly(poly_text))
    return make_field(m, _load_env_poly_table().get(m))


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
    seq = m_sequence(ctx)
    methods = ["direct", "blocks", "closed"] if args.method == "all" else [args.method]
    taus = range(1, ctx.n) if args.all else [args.tau]
    route = {
        "direct": lambda tau: arith.arithmetic_autocorr(seq, tau),
        "blocks": lambda tau: blocks.autocorr_via_blocks(seq, seq.shift(tau)),
        "closed": lambda tau: closedform.predict_acorr(ctx, tau),
    }
    routes = [route[k] for k in methods]
    keys = ["tau"] + methods

    # each row becomes text as soon as it is computed, so memory holds one
    # short string per tau; the JSON text is what json.dumps of the whole
    # document would give
    lines = []
    mismatch = False
    for tau in taus:
        values = [tau] + [f(tau) for f in routes]
        mismatch = mismatch or len(set(values[1:])) > 1
        if args.json:
            lines.append("{" + ", ".join(f'"{k}": {v}' for k, v in zip(keys, values)) + "}")
        else:
            lines.append(",".join(map(str, values)))
    if args.json:
        head = json.dumps({"command": "acorr", "m": ctx.m, "poly": format_poly(ctx.modulus), "methods": methods})
        status = "fail" if mismatch else "pass"
        print(f'{head[:-1]}, "rows": [{", ".join(lines)}], "status": "{status}"}}')
    else:
        print("\n".join(lines))
    return 1 if mismatch else 0


def cmd_dist(args) -> int:
    ctx = _resolve_field(args.m, args.poly)
    seq = m_sequence(ctx)
    dist = arith.distribution(seq)
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


def _sample_taus(n: int) -> list[int]:
    if n - 1 <= 64:
        return list(range(1, n))
    step = (n - 1) // 64
    taus = list(range(1, n, step))
    if taus[-1] != n - 1:
        taus.append(n - 1)
    return taus


def _verify_field(ctx: GF2m, report: RunReport) -> None:
    """Check one field in one pass over tau, then add each check's row and
    mismatch records to the report."""
    m, n = ctx.m, ctx.n
    poly = f"0x{ctx.modulus:x}"
    seq = m_sequence(ctx)
    checks = ["three_way", "lemma1"] + (["counting"] if m <= 8 else []) + ["distribution"]
    bad = {check: [] for check in checks}

    def miss(check, kind, **detail):
        bad[check].append({"check": kind, "m": m, "poly": poly, **detail})

    # the blocks route is sampled above THREE_WAY_EXHAUSTIVE_MAX_DEGREE, and
    # the three_way row says so; at m <= 8 it runs at every tau, and the
    # counting identities are read off the block counts of the same shift
    block_taus = set(range(1, n)) if m <= THREE_WAY_EXHAUSTIVE_MAX_DEGREE else set(_sample_taus(n))
    quarter = 1 << (m - 2)
    directs = array("i", [0]) * n
    for tau in range(1, n):
        directs[tau] = direct = arith.arithmetic_autocorr(seq, tau)
        closed = closedform.predict_acorr(ctx, tau)
        b = seq.shift(tau) if tau in block_taus else None
        via_blocks = None if b is None else blocks.autocorr_via_blocks(seq, b)
        if direct != closed or via_blocks not in (None, direct):
            miss("three_way", "three_way", tau=tau, direct=direct, blocks=via_blocks, closed=closed)
        if seq.classical_autocorr(tau) != -1:
            miss("lemma1", "classical", tau=tau)
        if m <= 8:
            # walked in pi-power order, the trace conditions of eqs. (4)-(5)
            # select exactly these windows: eq4[l] = N(0,0;l)+N(0,1;l),
            # eq5[l] = N(1,0;l)+N(1,1;l)
            eq4, eq5 = [0] * m, [0] * m
            for (alpha, _beta, l), c in blocks.block_type_counts(seq, b).items():
                (eq5 if alpha else eq4)[l] += c
            if sum(eq4) != quarter or sum(eq5) != quarter:
                miss("counting", "count_sums", tau=tau)
            for l in range(1, m):
                if closedform.lemma4_count(ctx, tau, l) != eq4[l]:
                    miss("counting", "closed_count", tau=tau, l=l)
            if sum(l * c for l, c in enumerate(eq4)) != closedform.weighted_sum(ctx, tau):
                miss("counting", "weighted_sum", tau=tau)

    # lemma 1's pattern counts, and the full distribution against the closed form
    if m <= 8:
        for l in range(1, m + 1):
            for pattern in product((0, 1), repeat=l):
                expected = (1 << (m - l)) - 1 if not any(pattern) else 1 << (m - l)
                got = seq.pattern_count(pattern)
                if got != expected:
                    miss("lemma1", "pattern", pattern="".join(map(str, pattern)), expected=expected, got=got)
    if Counter(directs[1:]) != closedform.predict_distribution(m):
        miss("distribution", "distribution")
    # modulo 2^n - 1, d(n - tau) = -2^tau * d(tau): the power of 2 rotates the
    # bits and the negation complements them, so A(n - tau) = -A(tau)
    for tau in range(1, n // 2 + 1):
        if directs[n - tau] != -directs[tau]:
            miss("distribution", "antisymmetry", tau=tau, direct=directs[tau], mirror=directs[n - tau])

    for check, records in bad.items():
        row = {"check": check, "m": m, "poly": poly, "status": "fail" if records else "pass"}
        if check == "three_way":
            row["taus_checked"] = {"direct": n - 1, "blocks": len(block_taus), "closed": n - 1}
            row["sampled"] = len(block_taus) < n - 1
        report.rows.append(row)
        report.mismatches.extend(records)


def cmd_verify(args) -> int:
    try:
        lo_text, _, hi_text = args.m_range.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        print(f"error: malformed m-range {excerpt(args.m_range)}, expected A..B", file=sys.stderr)
        return 2
    if not (MIN_DEGREE <= lo <= hi <= VERIFY_MAX_DEGREE):
        print(f"error: m-range {excerpt(args.m_range)} outside {MIN_DEGREE}..{VERIFY_MAX_DEGREE}", file=sys.stderr)
        return 2
    report = RunReport(
        command="verify", parameters={"m_range": args.m_range, "polys": args.polys}
    )
    env_table = _load_env_poly_table()
    for m in range(lo, hi + 1):
        if args.polys == "all":
            polys = find_primitive_polynomials(m, 3)
        else:
            polys = [env_table.get(m)]
        for poly in polys:
            _verify_field(make_field(m, poly), report)
    if args.json:
        print(report.to_json())
    else:
        print("check,m,poly,status")
        for row in report.rows:
            print(f"{row['check']},{row['m']},{row['poly']},{row['status']}")
        for miss in report.mismatches:
            detail = ";".join(f"{k}={v}" for k, v in miss.items())
            print(f"mismatch,{detail}")
        print(f"status,{report.status}")
    return 0 if report.status == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arithcorr",
        description="Arithmetic (2-adic) autocorrelation of binary m-sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an m-sequence")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--poly", help="modulus as hex mask (0xB) or exponent list (3,1,0)")
    gen.add_argument("--format", choices=["bits", "csv"], default="bits")
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=cmd_gen)

    acorr = sub.add_parser("acorr", help="arithmetic autocorrelation at one or all shifts", epilog=ALL_SHIFTS_COST)
    acorr.add_argument("--m", type=int, required=True)
    acorr.add_argument("--poly")
    group = acorr.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", type=int)
    group.add_argument("--all", action="store_true")
    acorr.add_argument("--method", choices=["direct", "blocks", "closed", "all"], default="direct")
    acorr.add_argument("--json", action="store_true")
    acorr.set_defaults(func=cmd_acorr)

    dist = sub.add_parser("dist", help="full correlation distribution", epilog=ALL_SHIFTS_COST)
    dist.add_argument("--m", type=int, required=True)
    dist.add_argument("--poly")
    dist.add_argument("--check", action="store_true", help="compare against the closed form")
    dist.add_argument("--json", action="store_true")
    dist.set_defaults(func=cmd_dist)

    verify = sub.add_parser("verify", help="run the full verification suite")
    verify.add_argument(
        "--m-range", required=True, help=f"degree range A..B, {MIN_DEGREE} <= A <= B <= {VERIFY_MAX_DEGREE}"
    )
    verify.add_argument("--polys", choices=["default", "all"], default="default")
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
