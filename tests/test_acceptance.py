"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (zero tolerance).  Run with `pytest -s` to see
the per-criterion lines as they complete.
"""

import random
import time
from collections import Counter
from itertools import product

import pytest

from arithcorr.arith import arithmetic_autocorr, arithmetic_autocorrs
from arithcorr.blocks import autocorr_via_blocks
from arithcorr.closedform import lemma4_count, predict_distribution
from arithcorr.errors import ShiftEqualsSequence
from arithcorr.gf2m import find_primitive_polynomials, make_field
from arithcorr.sequences import BinarySequence, m_sequence
from conftest import fold_beta, gap_scan_block_counts, predict_acorr


def report(name, ok, extra=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, name


def test_criterion_1_distribution_reproduction():
    start = time.time()
    ok = True
    for m in range(2, 13):
        seq = m_sequence(make_field(m))
        if Counter(arithmetic_autocorrs(seq, range(1, seq.period))) != predict_distribution(m):
            ok = False
    report("1 distribution m=2..12", ok, f"{time.time() - start:.2f}s")


def three_way_mismatches(fields):
    mismatches = []
    for ctx in fields:
        seq = m_sequence(ctx)
        for tau in range(1, ctx.n):
            direct = arithmetic_autocorr(seq, tau)
            via_blocks = autocorr_via_blocks(seq, seq.shift(tau))
            closed = predict_acorr(ctx, tau)
            if not direct == via_blocks == closed:
                mismatches.append((ctx.m, hex(ctx.modulus), tau, direct, via_blocks, closed))
    return mismatches


def test_criterion_2_three_way_agreement():
    start = time.time()
    mismatches = three_way_mismatches(
        make_field(m, poly) for m in range(2, 15) for poly in (find_primitive_polynomials(m, 3) if m <= 12 else [None])
    )
    report(
        "2 three-way agreement m=2..12 x <=3 polys, m=13..14 default",
        not mismatches,
        f"{time.time() - start:.2f}s" if not mismatches else str(mismatches[:3]),
    )


@pytest.mark.slow
def test_criterion_2_three_way_agreement_m15_m16():
    # opt-in (pytest -m slow): verify samples the blocks route at these degrees
    start = time.time()
    mismatches = three_way_mismatches(make_field(m) for m in (15, 16))
    report(
        "2 three-way agreement at every tau, m=15..16 default",
        not mismatches,
        f"{time.time() - start:.2f}s" if not mismatches else str(mismatches[:3]),
    )


def test_criterion_3_chen_bound_attained():
    ok = True
    for m in range(2, 13):
        seq = m_sequence(make_field(m))
        dist = Counter(arithmetic_autocorrs(seq, range(1, seq.period)))
        bound = (1 << (m - 1)) - 1
        if any(abs(v) > bound for v in dist):
            ok = False
        if dist.get(bound) != 1 or dist.get(-bound) != 1:
            ok = False
    report("3 Chen bound holds and is attained, m<=12", ok)


def test_criterion_4_generic_shift_invariance():
    rng = random.Random(20260824)
    checked = 0
    failures = 0
    while checked < 10_000:
        n = rng.randint(2, 64)
        seq = BinarySequence(rng.randrange(2) for _ in range(n))
        t = rng.randint(1, n - 1)
        tau = rng.randint(1, n - 1)
        try:
            base = arithmetic_autocorr(seq, tau)
            shifted = arithmetic_autocorr(seq.shift(t), tau)
        except ShiftEqualsSequence:
            continue
        checked += 1
        if base != shifted:
            failures += 1
    report("4 shift invariance, 10000 random triples", failures == 0, f"{checked} checked")


def test_criterion_5_blocks_vs_direct_on_pairs():
    rng = random.Random(77001)
    checked = 0
    failures = 0
    while checked < 10_000:
        n = rng.randint(2, 64)
        a = BinarySequence(rng.randrange(2) for _ in range(n))
        b = BinarySequence(rng.randrange(2) for _ in range(n))
        if a == b:
            continue
        d = a.value - b.value
        direct = n - 2 * d.bit_count() if d > 0 else 2 * (-d).bit_count() - n
        checked += 1
        if autocorr_via_blocks(a, b) != direct:
            failures += 1
    report("5 blocks vs direct, 10000 random pairs", failures == 0, f"{checked} checked")


def test_criterion_6_counting_lemmas():
    start = time.time()
    ok = True
    for m in range(3, 9):
        ctx = make_field(m)
        seq = m_sequence(ctx)
        quarter = 1 << (m - 2)
        for tau in range(1, ctx.n):
            # eq4[l] = N(0,0;l)+N(0,1;l), eq5[l] = N(1,0;l)+N(1,1;l)
            eq4, eq5 = [0] * m, [0] * m
            for (alpha, l), c in fold_beta(gap_scan_block_counts(seq, seq.shift(tau))).items():
                (eq5 if alpha else eq4)[l] += c
            if sum(eq4) != quarter or sum(eq5) != quarter:
                ok = False
            for l in range(1, m):
                if lemma4_count(ctx, tau, l) != eq4[l]:
                    ok = False
    report("6 counting lemmas m=3..8", ok, f"{time.time() - start:.2f}s")


def test_criterion_7_classical_pseudorandomness():
    ok = True
    for m in range(2, 9):
        seq = m_sequence(make_field(m))
        for l in range(1, m + 1):
            for pattern in product((0, 1), repeat=l):
                expected = (1 << (m - l)) - 1 if not any(pattern) else 1 << (m - l)
                if seq.pattern_count(pattern) != expected:
                    ok = False
        for tau in range(1, seq.period):
            if seq.classical_autocorr(tau) != -1:
                ok = False
    report("7 pattern counts and classical autocorrelation m=2..8", ok)


def test_criterion_8_worked_micro_example():
    ctx = make_field(3, 0b1011)
    seq = m_sequence(ctx)
    ok = str(seq) == "1001011"
    expected = [-1, -3, 1, -1, 3, 1]
    for tau, want in zip(range(1, 7), expected):
        values = {
            arithmetic_autocorr(seq, tau),
            autocorr_via_blocks(seq, seq.shift(tau)),
            predict_acorr(ctx, tau),
        }
        if values != {want}:
            ok = False
    report("8 worked micro-example m=3", ok)
