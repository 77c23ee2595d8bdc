"""The direct route: 2-adic subtraction of sigma values.

Sign convention: for d = sigma(seq) - sigma(shift), the correlation is
n - 2*w2(d) when d > 0 and 2*w2(-d) - n when d < 0.  The full distribution
is sign-symmetric, so only per-tau signed values depend on this choice.
"""

from __future__ import annotations

from array import array
from collections import Counter

from .errors import ShiftEqualsSequence, check_tau
from .sequences import BinarySequence, rotate_value


def _corr(s: int, tau: int, n: int) -> int:
    """The correlation of the period with value s and length n at shift tau."""
    r = rotate_value(s, tau, n)
    # the larger minus the smaller, so no n-bit difference is negated
    if s > r:
        return n - 2 * (s - r).bit_count()
    if s < r:
        return 2 * (r - s).bit_count() - n
    raise ShiftEqualsSequence(f"shift by tau={tau} equals the sequence")


def arithmetic_autocorr(seq: BinarySequence, tau: int) -> int:
    """Arithmetic autocorrelation of seq at shift tau, in [-(n-2), n-2]."""
    check_tau(tau, 1, seq.period)
    return _corr(seq.value, tau, seq.period)


def arithmetic_autocorrs(seq: BinarySequence, taus) -> array:
    """arithmetic_autocorr(seq, tau) for each tau of taus, in order; each tau in 1..n-1."""
    s, n = seq.value, seq.period
    return array("i", (_corr(s, tau, n) for tau in taus))


def distribution(seq: BinarySequence) -> dict[int, int]:
    """Multiset of arithmetic_autocorr(seq, tau) over tau = 1..n-1."""
    return dict(Counter(arithmetic_autocorrs(seq, range(1, seq.period))))
