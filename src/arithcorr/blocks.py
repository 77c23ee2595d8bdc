"""The structural route: block-type decomposition of a two-row matrix.

A window of l+2 cyclic columns has type [alpha, beta; l] when its first
column is (alpha, 1-alpha), its last is (beta, 1-beta) and the l interior
columns have equal rows.  The correlation is n - 2*g with
g = sum_l l*(N(0,0;l)+N(0,1;l)) + sum_l (N(1,0;l)+N(1,1;l)).

With x = a ^ b, each unequal column (a one of x) starts one window, and each
equal column lies inside the window of the nearest unequal column cyclically
before it.  So g counts each window with alpha = 1 once, and each equal
column once if its window has alpha = 0: g = popcount(x ^ p), where p holds
the alpha = 0 starts and the equal columns of their windows.

The pair kernel reads two periods side by side, 2n linear columns, and
spreads p from those starts over the equal columns q in doubling rounds,
p |= (p << s) & q and q &= q << s for s = 1, 2, 4, ..., until q is empty:
ceil(log2(G+1)) rounds, G the longest run of equal columns.  The first n
columns hold every unequal column, so g is the popcount of x ^ p over the
last n.  `autocorrs_via_blocks` runs it per tau when asked for fewer than
n/4 taus.

Asked for more, it scans the columns once for every tau, with the taus as
bit lanes: at column c the lanes' bottom bits form r = rot(s, c), bit tau
being s_(c+tau), and the top bit s_c is one constant.  r rolls from column to
column: r >> 1, with s_c put back in lane n-1.  The label q marks the
lanes whose last unequal column has top bit 0.  A top-0 column does
q |= r and counts the lanes q ^ r; a top-1 column does q &= r and counts
mask ^ q ^ r.  Carry-save adders (Harley-Seal) add each column's counted
lanes into the bit planes of every lane's g, about five operations per
column, and the planes go into 4-byte slots, lane tau in slot tau, as
`classical_autocorrs` strides its decimal slots, 4096 lanes at a time, so
that the scan holds about twice its result at its peak.  A warm-up over the first
n.bit_length() columns sets q; a requested lane that meets no unequal column
there is scanned again with a warm-up of n, and one that still meets none is
a shift equal to seq.  An m-sequence never needs the second scan: x is a
shift of it (shift-and-add), with no run of m zeros.  On m-sequences the
scan costs as much as the kernel on 0.12-0.19 n taus at m = 12..16 and
0.3-0.45 n at m = 6..10, hence n/4.

`block_type_counts` counts the windows by (alpha, l), summed over beta, the
split that the counting identities of eqs. (4)-(5) and g read.  Going up in
l, the windows with l interior columns start at the ones of x still open that
have a one of x at distance l+1, and bit counts against a split them by alpha
only: G+1 rounds.

All are carry-free along a row: they use only &, |, ^, shifts and bit counts
on the row values, never the subtraction that the direct route rests on.
The scan's adders carry between the bit planes of one lane's count, never
between columns.  The direct route gets no such scan: a bit-serial
subtraction is the same label scan, its borrow the label, and the two
routes would stop being independent.
"""

from __future__ import annotations

import sys
from array import array

from .errors import EqualSequences, PeriodMismatch, check_taus
from .sequences import BinarySequence

# ASCII binary digits to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
# the lanes moved into 4-byte slots at a time, so the transposition holds
# 16 KiB slot vectors beside the result, a multiple of 8 so a plane splits at a byte
_LANES = 4096


def _unequal_columns(a: BinarySequence, b: BinarySequence) -> int:
    """x = a ^ b, whose ones are the unequal columns of two rows of one period."""
    if b.period != a.period:
        raise PeriodMismatch(f"periods differ: {a.period} vs {b.period}")
    x = a.value ^ b.value
    if not x:
        raise EqualSequences("rows are identical")
    return x


def block_type_counts(a: BinarySequence, b: BinarySequence) -> dict[tuple[int, int], int]:
    """Counts N(alpha, 0; l) + N(alpha, 1; l), keyed (alpha, l), for the matrix with rows a and b.

    Only nonzero counts appear; their sum is the number of unequal columns.
    """
    x = _unequal_columns(a, b)
    n = a.period
    # two periods side by side: in the low n bits, x2 >> k reads as rot(x, k)
    # for every k <= n, and only the low n bits are ever kept
    x2 = x | (x << n)
    counts: dict[tuple[int, int], int] = {}
    open_ = x
    l = 0
    while open_:
        closed = open_ & (x2 >> (l + 1))
        if closed:
            open_ ^= closed
            ones = (closed & a.value).bit_count()  # the windows that start with alpha = 1
            for alpha, c in ((0, closed.bit_count() - ones), (1, ones)):
                if c:
                    counts[(alpha, l)] = c
        l += 1
    return counts


def _acorr(x: int, ntop: int, n: int, full: int) -> int:
    """n - 2*g from a pair's unequal columns x over one period and its top-row zeros ntop over two (ones: full)."""
    if not x:
        raise EqualSequences("rows are identical")
    x |= x << n
    p, q = x & ntop, full ^ x  # the alpha = 0 starts; the equal columns
    s = 1
    while q:
        # q: the columns j with j-s+1..j all equal, j-s+1 >= 0
        p |= (p << s) & q
        q &= q << s
        s <<= 1
    return n - 2 * ((x ^ p) >> n).bit_count()  # g: the popcount over columns n..2n-1


def autocorr_via_blocks(a: BinarySequence, b: BinarySequence) -> int:
    """A(M) = n - 2*g(M) for the matrix with rows a, b."""
    x, n = _unequal_columns(a, b), a.period
    full = (1 << 2 * n) - 1
    return _acorr(x, full ^ (a.value | a.value << n), n, full)


def _scan(v: int, n: int, warm: int) -> tuple[array, int]:
    """A of the pair (v, v shifted by tau) in item tau, for every lane tau = 0..n-1,
    from one scan over the columns, and the lanes that meet an unequal column among
    the first `warm`; item tau is right for each of those."""
    mask, hb = (1 << n) - 1, 1 << (n - 1)
    r = v  # bit tau: the bottom row's bit at the column, s_(col+tau), rolled one column on
    q = seen = 0  # q: the lanes whose last unequal column has top bit 0
    for col in range(warm):
        if v >> col & 1:
            seen |= mask ^ r
            q &= r
            r = r >> 1 | hb
        else:
            seen |= r
            q |= r
            r >>= 1
    # the counted columns warm..warm+n-1, read off the period rotated by warm,
    # which r now is; acc[k] is bit k of each lane's g, pend[k] a vector of
    # weight 2^k that waits for a partner to go through a carry-save adder with acc[k]
    acc, pend = [0] * (n.bit_length() + 1), [0] * (n.bit_length() + 1)
    for top in reversed(format(r, f"0{n}b")):
        if top == "1":
            q &= r
            c = mask ^ q ^ r  # the unequal lanes, and the equal ones that q holds
            r = r >> 1 | hb
        else:
            q |= r
            c = q ^ r  # the equal lanes that q holds
            r >>= 1
        k = 0
        while c:
            p = pend[k]
            if not p:
                pend[k] = c
                break
            pend[k] = 0
            a = acc[k]
            u = a ^ p
            acc[k] = u ^ c
            c = (a & p) | (u & c)  # the carries of a + p + c, of weight 2^(k+1)
            k += 1
    for k, p in enumerate(pend):  # the vectors left waiting, by ripple carry
        while p:
            a = acc[k]
            acc[k] = a ^ p
            p &= a
            k += 1
    # bit plane k into 4-byte slots, lane tau in slot tau, _LANES lanes at a
    # time, and n - 2g per slot, offset by 2^31 so that no slot borrows from the
    # next; flipping bit 31 then leaves each slot's A in two's complement
    for k, plane in enumerate(acc):
        acc[k] = plane.to_bytes(-(-n // 8), "little")
    acorrs = array("i", [0]) * n
    for lo in range(0, n, _LANES):
        w = min(_LANES, n - lo)
        slots = bytearray(4 * w)
        packed = int.from_bytes((n + (1 << 31)).to_bytes(4, "little") * w, "little")
        for k, plane in enumerate(acc):
            bits = int.from_bytes(plane[lo // 8 : (lo + w + 7) // 8], "little")
            slots[::4] = format(bits, f"0{w}b").encode().translate(_BIT_BYTES)[::-1]
            packed -= int.from_bytes(slots, "little") << (k + 1)
        flip = int.from_bytes(b"\0\0\0\x80" * w, "little")
        acorrs[lo : lo + w] = array("i", (packed ^ flip).to_bytes(4 * w, "little"))
    if sys.byteorder == "big":
        acorrs.byteswap()
    return acorrs, seen


def autocorrs_via_blocks(seq: BinarySequence, taus) -> array:
    """autocorr_via_blocks(seq, seq.shift(tau)) for each tau of taus, in order; each tau in 1..n-1."""
    v, n = seq.value, seq.period
    taus = check_taus(taus, n)
    if 4 * len(taus) < n:
        # few taus: the pair kernel on each
        mask, full = (1 << n) - 1, (1 << 2 * n) - 1
        v2 = v | v << n
        ntop = full ^ v2
        return array("i", (_acorr(v ^ ((v2 >> tau) & mask), ntop, n, full) for tau in taus))
    for warm in (n.bit_length(), n):
        acorrs, seen = _scan(v, n, warm)
        unseen = ~seen & ((1 << n) - 2)
        if not unseen or not any(unseen >> tau & 1 for tau in taus):
            return acorrs[1:] if taus == range(1, n) else array("i", map(acorrs.__getitem__, taus))
    # a lane that meets no unequal column in n is a shift equal to seq
    raise EqualSequences("rows are identical")
