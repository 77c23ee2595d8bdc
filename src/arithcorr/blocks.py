"""The structural route: block-type decomposition of a two-row matrix.

A window of l+2 cyclic columns has type [alpha, beta; l] when its first
column is (alpha, 1-alpha), its last is (beta, 1-beta) and the l interior
columns have equal rows.  The correlation is n - 2*g where g weights the
type counts.

Counting is bit-parallel on the rows' 2-adic values.  The ones of
x = a ^ b are the unequal columns, and each one starts exactly one window,
which ends at the next one of x.  Going up in l, `open` holds the starts
whose window has not ended yet; the windows with l interior columns start
at the ones of open & rot(x, l+1), which then leave `open`.  Four bit
counts against a and rot(a, l+1) split them by (alpha, beta).  The loop
stops once `open` is empty, after G+1 rounds for G the longest run of
equal columns, which is below m when a and b are an m-sequence and one of
its shifts.  The cost is O((G+1)*n/w) for w-bit machine words: small for
m-sequences, and worst for a single unequal column (G = n-1), which at
n = 2^16 - 1 takes about 90 ms where a scan of the gaps between unequal
columns takes about 3 ms.

The route is carry-free: it uses only &, |, ^, shifts and bit counts on the
row values, never the subtraction that the direct route rests on.
"""

from __future__ import annotations

from .errors import EqualSequences, PeriodMismatch
from .sequences import BinarySequence


def block_type_counts(a: BinarySequence, b: BinarySequence) -> dict[tuple[int, int, int], int]:
    """Counts N(alpha, beta; l), keyed (alpha, beta, l), for the matrix with rows a and b.

    Only nonzero counts appear; their sum is the number of unequal columns.
    """
    n = a.period
    if b.period != n:
        raise PeriodMismatch(f"periods differ: {n} vs {b.period}")
    top = a.value
    x = top ^ b.value
    if not x:
        raise EqualSequences("rows are identical")
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


def g_of(counts: dict[tuple[int, int, int], int]) -> int:
    """g = sum l*(N(0,0;l)+N(0,1;l)) + sum (N(1,0;l)+N(1,1;l))."""
    g = 0
    for (alpha, _beta, l), c in counts.items():
        g += l * c if alpha == 0 else c
    return g


def autocorr_via_blocks(a: BinarySequence, b: BinarySequence) -> int:
    """A(M) = n - 2*g(M) for the matrix with rows a, b."""
    return a.period - 2 * g_of(block_type_counts(a, b))
