"""The direct route: 2-adic subtraction of sigma values.

Sign convention: for d = sigma(seq) - sigma(shift), the correlation is
n - 2*w2(d) when d > 0 and 2*w2(-d) - n when d < 0, w2(|d|) being
d.bit_count().  The full distribution is sign-symmetric, so only per-tau
signed values depend on this choice.
"""

from __future__ import annotations

from array import array
from collections import Counter

from .errors import ShiftEqualsSequence, check_tau, check_taus
from .sequences import BinarySequence


def _corr(s: int, s2: int, full: int, tau: int, n: int) -> int:
    """The correlation at shift tau of the period s of length n; s2 = s | s << n, full = 2^n - 1."""
    d = s - ((s2 >> tau) & full)  # the low n bits of s2 >> tau: sigma of the tau-shift
    if d > 0:
        return n - 2 * d.bit_count()
    if d < 0:
        return 2 * d.bit_count() - n
    raise ShiftEqualsSequence(f"shift by tau={tau} equals the sequence")


def arithmetic_autocorr(seq: BinarySequence, tau: int) -> int:
    """Arithmetic autocorrelation of seq at shift tau, in [-(n-2), n-2]."""
    s, n = seq.value, seq.period
    check_tau(tau, 1, n)
    return _corr(s, s | s << n, (1 << n) - 1, tau, n)


def arithmetic_autocorrs(seq: BinarySequence, taus) -> array:
    """arithmetic_autocorr(seq, tau) for each tau of taus, in order; each tau in 1..n-1."""
    s, n = seq.value, seq.period
    s2, full = s | s << n, (1 << n) - 1
    return array("i", (_corr(s, s2, full, tau, n) for tau in check_taus(taus, n)))


def distribution(seq: BinarySequence) -> dict[int, int]:
    """Multiset of arithmetic_autocorr(seq, tau) over tau = 1..n-1."""
    return dict(Counter(arithmetic_autocorrs(seq, range(1, seq.period))))
