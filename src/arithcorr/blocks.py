"""The structural route: block-type decomposition of a two-row matrix.

A window of l+2 cyclic columns has type [alpha, beta; l] when its first
column is (alpha, 1-alpha), its last is (beta, 1-beta) and the l interior
columns have equal rows.  The correlation is n - 2*g where g weights the
type counts.  Counting is done by collecting unequal-column positions and
measuring cyclic gaps between consecutive ones: each adjacent pair of
unequal columns contributes exactly one window, so the scan is O(n)
instead of the O(n^2) naive window search.
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
    abits, bbits = a.bits, b.bits
    pos = [i for i in range(n) if abits[i] != bbits[i]]
    if not pos:
        raise EqualSequences("rows are identical")
    counts: dict[tuple[int, int, int], int] = {}
    k = len(pos)
    for i in range(k):
        p = pos[i]
        q = pos[(i + 1) % k]
        key = (abits[p], abits[q], (q - p - 1) % n)
        counts[key] = counts.get(key, 0) + 1
    return counts


def g_of(counts: dict[tuple[int, int, int], int]) -> int:
    """g = sum l*(N(0,0;l)+N(0,1;l)) + sum (N(1,0;l)+N(1,1;l))."""
    g = 0
    for (alpha, _beta, l), c in counts.items():
        g += l * c if alpha == 0 else c
    return g


def autocorr_via_blocks(a: BinarySequence, b: BinarySequence) -> int:
    """A(M) = n - 2*g(M) for the matrix with rows a, b.

    When no column equals (1,0) the rows are swapped and the result
    negated (row swap negates the correlation).
    """
    n = a.period
    if b.period != n:
        raise PeriodMismatch(f"periods differ: {n} vs {b.period}")
    abits, bbits = a.bits, b.bits
    if not any(abits[i] == 1 and bbits[i] == 0 for i in range(n)):
        if a.bits == b.bits:
            raise EqualSequences("rows are identical")
        return -autocorr_via_blocks(b, a)
    return n - 2 * g_of(block_type_counts(a, b))
