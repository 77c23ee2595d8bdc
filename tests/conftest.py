"""Shared independent oracles: each re-derives a quantity by a different
route than the implementation under test."""

import random

import pytest

from arithcorr.blocks import block_type_counts
from arithcorr.gf2m import GF2m
from arithcorr.sequences import BinarySequence


def field_mul(ctx: GF2m, a: int, b: int) -> int:
    """a*b in ctx's field by shift-and-add, reducing a at each doubling.

    Shares no code with gf2m, whose products are a carry-less multiply
    followed by one polynomial reduction.
    """
    top = 1 << ctx.m
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= ctx.modulus
    return r


def field_pow(ctx: GF2m, a: int, k: int) -> int:
    """a^k by square-and-multiply (0^0 = 1)."""
    r = 1
    while k:
        if k & 1:
            r = field_mul(ctx, r, a)
        a = field_mul(ctx, a, a)
        k >>= 1
    return r


def field_inv(ctx: GF2m, a: int) -> int:
    """Multiplicative inverse, by exponentiation a^(2^m - 2)."""
    if a == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return field_pow(ctx, a, ctx.n - 1)


def trace_by_squaring(ctx: GF2m, a: int) -> int:
    """Trace by its defining sum a + a^2 + ... + a^(2^(m-1))."""
    acc = a
    cur = a
    for _ in range(ctx.m - 1):
        cur = field_mul(ctx, cur, cur)
        acc ^= cur
    assert acc in (0, 1)
    return acc


def lfsr_m_sequence(ctx: GF2m) -> BinarySequence:
    """m-sequence from the LFSR recurrence with taps read off the modulus.

    For f(x) = 1 + a_1 x + ... + a_(m-1) x^(m-1) + x^m the recurrence is
    s[i+m] = a_(m-1) s[i+m-1] + ... + a_1 s[i+1] + s[i]; the initial state
    comes from the trace definition.
    """
    m, n, f = ctx.m, ctx.n, ctx.modulus
    state = []
    x = 1
    for _ in range(m):
        state.append(ctx.trace(x))
        x = field_mul(ctx, x, 2)
    bits = list(state)
    for i in range(n - m):
        nxt = 0
        for j in range(m):
            if f >> j & 1:
                nxt ^= bits[i + j]
        bits.append(nxt)
    return BinarySequence(bits)


def naive_block_counts(a: BinarySequence, b: BinarySequence) -> dict:
    """O(n^2) window scan straight off the block-type definition."""
    n = a.period
    counts = {}
    for lam in range(n):
        for l in range(n):
            end = lam + l + 1
            if (
                a[lam] != b[lam]
                and a[end] != b[end]
                and all(a[lam + j] == b[lam + j] for j in range(1, l + 1))
            ):
                key = (a[lam], a[end], l)
                counts[key] = counts.get(key, 0) + 1
    return counts


def gap_scan_block_counts(a: BinarySequence, b: BinarySequence) -> dict:
    """O(n) scan of the bit tuples: one window per cyclic gap between unequal columns."""
    n = a.period
    abits, bbits = a.bits, b.bits
    pos = [i for i in range(n) if abits[i] != bbits[i]]
    counts = {}
    k = len(pos)
    for i in range(k):
        p = pos[i]
        q = pos[(i + 1) % k]
        key = (abits[p], abits[q], (q - p - 1) % n)
        counts[key] = counts.get(key, 0) + 1
    return counts


def g_of(counts: dict) -> int:
    """g = sum l*(N(0,0;l)+N(0,1;l)) + sum (N(1,0;l)+N(1,1;l))."""
    g = 0
    for (alpha, _beta, l), c in counts.items():
        g += l * c if alpha == 0 else c
    return g


def blocks_from_counts(a: BinarySequence, b: BinarySequence) -> int:
    """The blocks-route value n - 2*g read off the per-type window counts."""
    return a.period - 2 * g_of(block_type_counts(a, b))


def naive_pattern_count(seq: BinarySequence, pattern) -> int:
    """Window-by-window comparison of the bit tuple against the pattern."""
    bits, n, l = seq.bits, seq.period, len(pattern)
    return sum(all(bits[(i + j) % n] == pattern[j] for j in range(l)) for i in range(n))


def eq1_direct(a: BinarySequence, b: BinarySequence) -> int:
    """Signed correlation of a pair straight from the sigma difference."""
    n = a.period
    d = a.value - b.value
    assert d != 0
    if d > 0:
        return n - 2 * d.bit_count()
    return 2 * (-d).bit_count() - n


def random_sequence(rng: random.Random, n: int) -> BinarySequence:
    return BinarySequence(rng.randrange(2) for _ in range(n))


@pytest.fixture
def rng():
    return random.Random(0x2ADC)
