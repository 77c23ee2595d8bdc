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
reads n + w linear columns (column j is cyclic column j mod n) and spreads p
from those starts over the equal columns q in doubling rounds,
p |= (p << s) & q and q &= q << s for s = 1, 2, 4, ..., until no run of s
equal columns is left in q: ceil(log2(G+1)) rounds, G the longest run of
equal columns.  When one of the first w columns is unequal, each later
column's window starts inside the n + w, so g is the popcount of x ^ p over
columns w..n+w-1.  `autocorrs_via_blocks` takes w = n.bit_length() and cuts
each shift from the period repeated over 2n + w columns; for an m-sequence
x is itself a shift of it (shift-and-add), with no run of m zeros.  A tau
whose first w columns are all equal is widened to w = n, which
`autocorr_via_blocks` takes for every pair.

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

from .errors import EqualSequences, PeriodMismatch, check_taus
from .sequences import BinarySequence


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


def _acorr(x: int, ntop: int, n: int, w: int, full: int) -> int:
    """n - 2*g from a pair's first n + w columns (ones: full), unequal columns x and top-row zeros ntop."""
    low = (1 << w) - 1
    if not x & low:
        # no window starts among the first w columns: widen to w = n, whose
        # first n columns hold every unequal column
        if w == n:
            raise EqualSequences("rows are identical")
        mask = (1 << n) - 1
        x, top, full = x & mask, ~ntop & mask, mask | mask << n
        return _acorr(x | x << n, full ^ (top | top << n), n, n, full)
    p, q = x & ntop, full ^ x  # the alpha = 0 starts; the equal columns
    s = 1
    while q:
        # q: the columns j with j-s+1..j all equal, j-s+1 >= 0
        p |= (p << s) & q
        q &= q << s
        s <<= 1
    y = x ^ p  # g is its popcount over columns w..n+w-1
    return n - 2 * (y.bit_count() - (y & low).bit_count())


def autocorr_via_blocks(a: BinarySequence, b: BinarySequence) -> int:
    """A(M) = n - 2*g(M) for the matrix with rows a, b."""
    x, n = _unequal_columns(a, b), a.period
    full = (1 << 2 * n) - 1
    return _acorr(x | x << n, full ^ (a.value | a.value << n), n, n, full)


def autocorrs_via_blocks(seq: BinarySequence, taus) -> array:
    """autocorr_via_blocks(seq, seq.shift(tau)) for each tau of taus, in order; each tau in 1..n-1."""
    v, n = seq.value, seq.period
    w = n.bit_length()
    full = (1 << (n + w)) - 1
    # 2n + w columns of the period repeated: (v3 >> tau) & full is the tau-shift's first n + w
    v3 = (v | v << n | v << 2 * n) & ((1 << (2 * n + w)) - 1)
    top = v3 & full
    ntop = full ^ top
    return array("i", (_acorr(top ^ ((v3 >> tau) & full), ntop, n, w, full) for tau in check_taus(taus, n)))
