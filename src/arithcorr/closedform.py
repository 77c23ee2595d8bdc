"""The number-theoretic route: correlation predicted from (1 + pi^tau)^-1.

Writing (1 + pi^tau)^-1 = b_0 + b_1*pi + ... + pi^e over the polynomial
basis, the correlation of an m-sequence at shift tau is +-(2^(m-e) - 1)
with the sign decided by b_0.  The per-l window counts admit closed forms
whose brute-force counterparts (trace-condition enumerations over the
nonzero field elements) are kept as independently testable intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import LOutOfRange, NonIntegerCount, TauOutOfRange
from .gf2m import GF2m
from .sequences import m_sequence


@dataclass(frozen=True)
class TauProfile:
    """Expansion data and predicted correlation for one shift."""

    tau: int
    e: int
    b0: int
    predicted_A: int


def predict_acorr(ctx: GF2m, tau: int) -> TauProfile:
    """Closed-form correlation at shift tau from the inverse expansion."""
    e, b = ctx.expand_inverse_one_plus_pi_tau(tau)
    b0 = b[0] if b else 0
    magnitude = (1 << (ctx.m - e)) - 1
    return TauProfile(tau=tau, e=e, b0=b0, predicted_A=magnitude if b0 else -magnitude)


def predict_distribution(m: int) -> dict[int, int]:
    """Full correlation distribution: +-(2^k - 1) with multiplicity 2^(m-k-1).

    Independent of which primitive polynomial defines the field.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    dist = {}
    for k in range(1, m):
        value = (1 << k) - 1
        mult = 1 << (m - k - 1)
        dist[value] = mult
        dist[-value] = mult
    return dist


def lemma4_count(ctx: GF2m, tau: int, l: int) -> int:
    """Closed-form count N(0,0;l) + N(0,1;l) for the m-sequence vs its tau-shift.

    The case formulas carry prefactors like 2^(m-l-3) that are fractional
    for small m but always cancel; evaluated as exact rationals, and a
    result that is not an integer raises NonIntegerCount.
    """
    if not 1 <= l <= ctx.m - 1:
        raise LOutOfRange(f"l={l} outside 1..{ctx.m - 1}")
    e, b = ctx.expand_inverse_one_plus_pi_tau(tau)
    b0 = b[0] if b else 0
    sign = -1 if b0 else 1  # (-1)^b0
    if l == ctx.m - 1:
        result = Fraction(1 + sign, 2)
    else:
        pref = Fraction(1 << ctx.m, 1 << (l + 3))
        if l <= e - 2:
            result = pref
        elif l == e - 1:
            result = pref * (1 - sign)
        else:
            result = pref * (1 + sign)
    if result.denominator != 1:
        raise NonIntegerCount(f"non-integer count {result} for m={ctx.m}, tau={tau}, l={l}")
    return int(result)


@lru_cache(maxsize=64)
def _mseq_bits(ctx: GF2m) -> tuple[int, ...]:
    return m_sequence(ctx).bits


def _brute_count(ctx: GF2m, tau: int, l: int, first: int) -> int:
    # Conditions are traces of pi-powers, which are exactly the m-sequence
    # bits; enumerating x = pi^t in pi-power order is walking t over 0..n-1.
    if not 1 <= tau <= ctx.n - 1:
        raise TauOutOfRange(f"tau={tau} outside 1..{ctx.n - 1}")
    if l < 0:
        raise LOutOfRange(f"l={l} must be nonnegative")
    s = _mseq_bits(ctx)
    n = ctx.n
    count = 0
    for t in range(n):
        if s[t] != first or s[(t + tau) % n] != 1 - first:
            continue
        if s[(t + l + 1) % n] ^ s[(t + l + 1 + tau) % n] != 1:
            continue
        if any(s[(t + lam) % n] != s[(t + lam + tau) % n] for lam in range(1, l + 1)):
            continue
        count += 1
    return count


def brute_count_eq4(ctx: GF2m, tau: int, l: int) -> int:
    """Exhaustive count of N(0,0;l) + N(0,1;l): T(x)=0, T(pi^tau x)=1, plus window conditions."""
    return _brute_count(ctx, tau, l, first=0)


def brute_count_eq5(ctx: GF2m, tau: int, l: int) -> int:
    """Exhaustive count of N(1,0;l) + N(1,1;l): T(x)=1, T(pi^tau x)=0, plus window conditions."""
    return _brute_count(ctx, tau, l, first=1)


def weighted_sum(ctx: GF2m, tau: int) -> int:
    """sum over l of l * (N(0,0;l) + N(0,1;l)), in closed form.

    g(tau) = 2^(m-2) + this value, and A = n - 2*g(tau).
    """
    e, b = ctx.expand_inverse_one_plus_pi_tau(tau)
    b0 = b[0] if b else 0
    m = ctx.m
    if b0 == 0:
        return (1 << (m - 2)) + (1 << (m - e - 1)) - 1
    return (1 << (m - 2)) - (1 << (m - e - 1))
