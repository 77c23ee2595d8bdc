"""The three benchmark workloads.

Each workload has a set-up (the work after `import arithcorr` that set-up time
counts) and a pass (the timed phase).  A pass returns its wall time, the
latency of each operation it timed, and the check of its outputs.  Passes
reach the library only through `cli.main(argv)` or public calls, looked up at
call time so that a tracer installed before the pass sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from array import array

import oracles


class CliWorkload:
    """One `cli.main(argv)` call per pass; its JSON report is the output checked."""

    def __init__(self, name: str, argv: list[str], fields: list[int], check):
        self.name = name
        self.argv = argv
        self.fields = fields
        self.check = check
        self.op_name = "cli.main call"

    def setup(self, lib) -> None:
        # ROADMAP keeps one of the two field constructors; use whichever exists
        build_field = getattr(lib, "make_field", None) or lib.GF2m
        for m in self.fields:
            lib.m_sequence(build_field(m))

    def run_pass(self, lib):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(self.argv)
        wall_ns = time.perf_counter_ns() - start
        try:
            doc = json.loads(out.getvalue())
        except ValueError:
            doc = {}
        check = self.check(rc, doc)
        if err.getvalue():
            check.notes.append(f"stderr: {err.getvalue().strip()[:200]}")
        return wall_ns / 1e9, [wall_ns], check


def verify_sweep() -> CliWorkload:
    lo, hi = 2, 16
    return CliWorkload(
        "verify_sweep",
        ["verify", "--m-range", f"{lo}..{hi}", "--json"],
        list(range(lo, hi + 1)),
        lambda rc, doc: oracles.check_verify(rc, doc, lo, hi),
    )


def acorr_all_m12() -> CliWorkload:
    m = 12
    return CliWorkload(
        "acorr_all_m12",
        ["acorr", "--m", str(m), "--all", "--method", "all", "--json"],
        [m],
        lambda rc, doc: oracles.check_acorr_all(rc, doc, m),
    )


def generate_pairs(seed: int, count: int) -> list[oracles.PairCase]:
    """Arbitrary period-2..64 sequences; one in eight `a` repeats a shorter block."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(2, 64)
        periods = [d for d in range(1, n) if n % d == 0]
        if rng.randrange(8) == 0:
            block = [rng.getrandbits(1) for _ in range(rng.choice(periods))]
            a = block * (n // len(block))
        else:
            a = [rng.getrandbits(1) for _ in range(n)]
        b = [rng.getrandbits(1) for _ in range(n)]
        length = rng.randint(1, min(4, n))
        cases.append(
            oracles.PairCase(
                a=tuple(a),
                b=tuple(b),
                t=rng.randint(1, n - 1),
                u=rng.randint(1, n - 1),
                c=rng.randint(0, n - 1),
                pattern=tuple(rng.getrandbits(1) for _ in range(length)),
            )
        )
    return cases


class RandomPairs:
    """A fixed batch of seeded cases per pass, each timed on its own."""

    name = "random_pairs"
    op_name = "case"
    CASES = 2000

    def __init__(self, seed: int):
        self.cases = generate_pairs(seed, self.CASES)
        self.expected = [oracles.expected_pair_outputs(c) for c in self.cases]

    def setup(self, lib) -> None:
        pass

    def run_pass(self, lib):
        BinarySequence = lib.BinarySequence
        autocorr, via_blocks = lib.arith.arithmetic_autocorr, lib.blocks.autocorr_via_blocks
        rejection = lib.errors.ArithCorrError

        def guard(fn, *args):
            try:
                return fn(*args)
            except rejection as exc:
                return ("reject", type(exc).__name__)
            except Exception as exc:  # any other exception is a failed operation
                return ("error", f"{type(exc).__name__}: {exc}")

        clock = time.perf_counter_ns
        outputs = []
        latency = array("q")
        start = clock()
        for case in self.cases:
            t0 = clock()
            try:
                a, b = BinarySequence(case.a), BinarySequence(case.b)
                out = (
                    guard(autocorr, a, case.t),
                    guard(autocorr, a.shift(case.t), case.u),
                    guard(via_blocks, a, b),
                    guard(a.classical_autocorr, case.c),
                    guard(a.pattern_count, case.pattern),
                )
            except Exception as exc:
                out = ("error", f"{type(exc).__name__}: {exc}")
            latency.append(clock() - t0)
            outputs.append(out)
        wall_ns = clock() - start
        return wall_ns / 1e9, latency, oracles.check_pairs(outputs, self.expected)


def make(name: str, seed: int):
    if name == "verify_sweep":
        return verify_sweep()
    if name == "acorr_all_m12":
        return acorr_all_m12()
    if name == "random_pairs":
        return RandomPairs(seed)
    raise KeyError(name)


NAMES = ["verify_sweep", "acorr_all_m12", "random_pairs"]
