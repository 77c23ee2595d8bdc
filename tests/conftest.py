"""Shared independent oracles: each re-derives a quantity by a different
route than the implementation under test."""

import random

import pytest

from arithcorr.blocks import block_type_counts
from arithcorr.gf2m import GF2m, find_primitive_polynomials
from arithcorr.sequences import BinarySequence

# the fields whose all-shift loops are checked at every tau: every modulus up
# to m = 6, the default one up to m = 12
ALL_SHIFT_FIELDS = [(m, p) for m in range(2, 7) for p in find_primitive_polynomials(m, 1 << m)]
ALL_SHIFT_FIELDS += [(m, None) for m in range(7, 13)]
# taus the all-shift loops must reject at n = 7: the two edges, n + 1 and 2n - 1
# (which a shift of a doubled or tripled period would read as a rotation), a
# negative one (which an array index would wrap), a float and an int past 64 bits
BAD_TAUS_N7 = [0, 7, 8, 13, -1, 2.0, 10**30]
# each alone, after a good tau, and ranges that run past either edge
BAD_TAU_LISTS_N7 = [[tau] for tau in BAD_TAUS_N7] + [[1, tau] for tau in BAD_TAUS_N7]
BAD_TAU_LISTS_N7 += [range(0, 3), range(1, 8), range(6, -1, -1), range(13, 5, -1)]


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


def trace_walk_m_sequence(ctx: GF2m) -> BinarySequence:
    """m-sequence straight from its definition s_lambda = T(pi^lambda).

    Walks x <- x*pi over the whole period, reducing by hand, with one trace
    per element: O(n*m), against the jump-ahead rounds of m_sequence.
    """
    top = 1 << ctx.m
    digits = bytearray(ctx.n)
    x = 1
    for i in range(ctx.n):
        digits[i] = ctx.trace(x)
        x <<= 1
        if x & top:
            x ^= ctx.modulus
    return BinarySequence(digits)


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
    abits, bbits = tuple(a), tuple(b)
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
    bits, n, l = tuple(seq), seq.period, len(pattern)
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
