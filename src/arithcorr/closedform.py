"""The number-theoretic route: correlation predicted from (1 + pi^tau)^-1.

Writing (1 + pi^tau)^-1 = b_0 + b_1*pi + ... + pi^e over the polynomial
basis, the correlation of an m-sequence at shift tau is +-(2^(m-e) - 1)
with the sign decided by b_0.  The field hands the element over as an int
(bit i is b_i), so e is its bit length minus one and b_0 its low bit.  The
per-l window counts have closed forms; the counts they predict are the
block-type counts of blocks.block_type_counts for the m-sequence against
its tau-shift, which is what the counting check compares them with.
"""

from __future__ import annotations

from array import array

from .errors import LOutOfRange, NonIntegerCount, check_taus, excerpt_repr
from .gf2m import GF2m, _check_degree


def _expansion(ctx: GF2m, tau: int) -> tuple[int, int]:
    """(e, b0): the top exponent and constant bit of (1 + pi^tau)^-1."""
    el = ctx.expand_inverse_one_plus_pi_tau(tau)
    return el.bit_length() - 1, el & 1


def predict_acorr(ctx: GF2m, tau: int) -> int:
    """Closed-form correlation at shift tau from the inverse expansion."""
    e, b0 = _expansion(ctx, tau)
    magnitude = (1 << (ctx.m - e)) - 1
    return magnitude if b0 else -magnitude


def predict_acorrs(ctx: GF2m, taus) -> array:
    """predict_acorr(ctx, tau) for each tau of taus, in order; each tau in 1..n-1."""
    log, antilog = ctx._zech_tables()
    n, m = ctx.n, ctx.m
    out = array("i")
    for tau in check_taus(taus, n):
        el = antilog[n - log[antilog[tau] ^ 1]]  # as in ctx.expand_inverse_one_plus_pi_tau
        magnitude = (1 << (m + 1 - el.bit_length())) - 1
        out.append(magnitude if el & 1 else -magnitude)
    return out


def predict_distribution(m: int) -> dict[int, int]:
    """Full correlation distribution: +-(2^k - 1) with multiplicity 2^(m-k-1).

    Independent of which primitive polynomial defines the field; m outside
    the supported degrees raises DegreeOutOfRange.
    """
    _check_degree(m)
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
    for small m but always cancel; evaluated as an exact integer quotient,
    and a remainder raises NonIntegerCount.
    """
    if not isinstance(l, int) or not 1 <= l <= ctx.m - 1:
        raise LOutOfRange(f"l={excerpt_repr(l)} outside 1..{ctx.m - 1}")
    e, b0 = _expansion(ctx, tau)
    sign = -1 if b0 else 1  # (-1)^b0
    if l == ctx.m - 1:
        num, den = 1 + sign, 2
    else:
        if l <= e - 2:
            k = 1
        elif l == e - 1:
            k = 1 - sign
        else:
            k = 1 + sign
        num, den = k << ctx.m, 1 << (l + 3)
    if num % den:
        raise NonIntegerCount(f"non-integer count {num}/{den} for m={ctx.m}, tau={tau}, l={l}")
    return num // den


def weighted_sum(ctx: GF2m, tau: int) -> int:
    """sum over l of l * (N(0,0;l) + N(0,1;l)), in closed form.

    g(tau) = 2^(m-2) + this value, and A = n - 2*g(tau).
    """
    e, b0 = _expansion(ctx, tau)
    m = ctx.m
    if b0 == 0:
        return (1 << (m - 2)) + (1 << (m - e - 1)) - 1
    return (1 << (m - 2)) - (1 << (m - e - 1))
