"""The structural route: block-type decomposition of a two-row matrix.

A window of l+2 cyclic columns has type [alpha, beta; l] when its first
column is (alpha, 1-alpha), its last is (beta, 1-beta) and the l interior
columns have equal rows.  The correlation is n - 2*g with
g = sum_l l*(N(0,0;l)+N(0,1;l)) + sum_l (N(1,0;l)+N(1,1;l)).

With x = a ^ b, each unequal column (a one of x) starts one window, and each
equal column lies inside the window of the nearest unequal column cyclically
before it.  So g counts each window with alpha = 1 once, and each equal
column once if its window has alpha = 0: g = popcount(x ^ p), where p holds
the alpha = 0 starts and the equal columns of their windows.  The kernel
spreads p from those starts over the equal columns q in doubling rounds,
p |= rot(p, s) & q and q &= rot(q, s) for s = 1, 2, 4, ..., and stops when
no run of s equal columns is left in q: after ceil(log2(G+1)) rounds, G the
longest run of equal columns (below m for an m-sequence and its shift, n-1
for a pair differing in one column).  `autocorrs_via_blocks` runs it on a
sequence and each of its shifts without building the shifted sequence.

`block_type_counts` keeps the per-type counts, which only the counting
identities of eqs. (4)-(5) read.  Going up in l, the windows with l interior
columns start at the ones of x still open that have a one of x at distance
l+1, and bit counts against a and rot(a, l+1) split them by (alpha, beta):
G+1 rounds.

All are carry-free: they use only &, |, ^, shifts and bit counts on the
row values, never the subtraction that the direct route rests on.
"""

from __future__ import annotations

from array import array

from .errors import EqualSequences, PeriodMismatch
from .sequences import BinarySequence, rotate_value


def _unequal_columns(a: BinarySequence, b: BinarySequence) -> int:
    """x = a ^ b, whose ones are the unequal columns of two rows of one period."""
    if b.period != a.period:
        raise PeriodMismatch(f"periods differ: {a.period} vs {b.period}")
    x = a.value ^ b.value
    if not x:
        raise EqualSequences("rows are identical")
    return x


def block_type_counts(a: BinarySequence, b: BinarySequence) -> dict[tuple[int, int, int], int]:
    """Counts N(alpha, beta; l), keyed (alpha, beta, l), for the matrix with rows a and b.

    Only nonzero counts appear; their sum is the number of unequal columns.
    """
    x = _unequal_columns(a, b)
    n = a.period
    top = a.value
    # two periods side by side: in the low n bits, x2 >> k reads as rot(x, k)
    # for every k <= n, and only the low n bits are ever kept
    x2 = x | (x << n)
    top2 = top | (top << n)
    counts: dict[tuple[int, int, int], int] = {}
    open_ = x
    l = 0
    while open_:
        closed = open_ & (x2 >> (l + 1))
        if closed:
            open_ ^= closed
            starts1 = closed & top
            ends_top = top2 >> (l + 1)
            for alpha, starts in ((0, closed ^ starts1), (1, starts1)):
                ends1 = starts & ends_top
                for beta, w in ((0, starts ^ ends1), (1, ends1)):
                    c = w.bit_count()
                    if c:
                        counts[(alpha, beta, l)] = c
        l += 1
    return counts


def _acorr(x: int, top: int, n: int) -> int:
    """n - 2*g for the n columns with unequal columns x and top row top."""
    if not x:
        raise EqualSequences("rows are identical")
    full = (1 << n) - 1
    p, q = x ^ (x & top), full ^ x  # the alpha = 0 starts; the equal columns
    s = 1
    while q:
        # q: the columns j with j-s+1..j all equal; bit j of a rotation left
        # by s is bit j-s, cyclically
        p |= (p << s | p >> (n - s)) & q
        q &= q << s | q >> (n - s)
        s <<= 1
    return n - 2 * (x ^ p).bit_count()


def autocorr_via_blocks(a: BinarySequence, b: BinarySequence) -> int:
    """A(M) = n - 2*g(M) for the matrix with rows a, b."""
    return _acorr(_unequal_columns(a, b), a.value, a.period)


def autocorrs_via_blocks(seq: BinarySequence, taus) -> array:
    """autocorr_via_blocks(seq, seq.shift(tau)) for each tau of taus, in order; each tau in 1..n-1."""
    v, n = seq.value, seq.period
    return array("i", (_acorr(v ^ rotate_value(v, tau, n), v, n) for tau in taus))
