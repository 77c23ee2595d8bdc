"""Periodic binary sequences and the classical pseudorandomness checks.

A BinarySequence is one period held as its 2-adic value
sigma = sum of s_lambda * 2^lambda together with the period n: bit lambda
of `value` is s_lambda.  That pair is the whole state.  A cyclic shift is a
rotation of the value, pattern counts AND rotations of the value and its
complement, and iteration (so `tuple(seq)`), the string and the CSV export
are derived from the value on demand.
"""

from __future__ import annotations

from array import array
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal

from .errors import InvalidSequence, PatternTooLong, check_tau
from .gf2m import GF2m, _polypowmod

# The values that count as bits (True and False are 1 and 0 as keys)
_BITS = {0: 0, 1: 1, "0": 0, "1": 1}
# bytes 0/1 to the ASCII digits int(..., 2) reads
_ASCII_DIGITS = bytes.maketrans(b"\0\1", b"01")
# classical_autocorrs' arithmetic: exact, and libmpdec multiplies by a number-theoretic transform
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX)
# bits per slice of CSV rows built before joining
_CSV_SLICE = 4096


def rotate_value(value: int, tau: int, n: int) -> int:
    """sigma of the tau-shift: bit lambda of the result is bit lambda+tau of value."""
    return (value >> tau) | ((value & ((1 << tau) - 1)) << (n - tau))


def _bit_bytes(bits) -> bytes:
    """One byte 0 or 1 per item of bits; anything but a key of _BITS raises InvalidSequence."""
    try:
        return bytes(map(_BITS.__getitem__, bits))
    except (KeyError, TypeError):  # not a bit, unhashable, or not iterable
        raise InvalidSequence("bits must be 0, 1, '0' or '1'") from None


def _pack(digits) -> int:
    """The int whose bit i is digits[i], for a bytes-like of 0s and 1s."""
    return int(digits[::-1].translate(_ASCII_DIGITS), 2)


class BinarySequence:
    """One period of bits 0, 1, "0" or "1", index 0 first; immutable, cyclically indexed."""

    __slots__ = ("value", "period")

    def __init__(self, bits):
        digits = _bit_bytes(bits)
        if len(digits) < 2:
            raise InvalidSequence("period must be at least 2")
        object.__setattr__(self, "value", _pack(digits))
        object.__setattr__(self, "period", len(digits))

    @classmethod
    def _from_value(cls, value: int, period: int) -> "BinarySequence":
        # trusted internal constructor: value already lies in [0, 2^period)
        seq = object.__new__(cls)
        object.__setattr__(seq, "value", value)
        object.__setattr__(seq, "period", period)
        return seq

    def __setattr__(self, name, value):
        raise AttributeError("BinarySequence is immutable")

    def shift(self, tau: int) -> "BinarySequence":
        """Cyclic shift: bit lambda of the result is bit lambda+tau of self."""
        n = self.period
        check_tau(tau, 0, n)
        if tau == 0:
            return self
        return BinarySequence._from_value(rotate_value(self.value, tau, n), n)

    def pattern_count(self, pattern) -> int:
        """Number of cyclic positions where the window equals the pattern."""
        pattern = _bit_bytes(pattern)
        n = self.period
        l = len(pattern)
        if l == 0:
            raise InvalidSequence("pattern must be nonempty")
        if l > n:
            raise PatternTooLong(f"pattern length {l} exceeds period {n}")
        full = (1 << n) - 1
        ones = self.value
        zeros = ones ^ full
        # bit i survives while the window starting at i matches pattern[:j+1]
        hits = full
        for j, b in enumerate(pattern):
            hits &= rotate_value(ones if b else zeros, j, n)
        return hits.bit_count()

    def classical_autocorr(self, tau: int) -> int:
        """sum over lambda of (-1)^(s_lambda + s_(lambda+tau))."""
        n = self.period
        check_tau(tau, 0, n)
        hd = (self.value ^ rotate_value(self.value, tau, n)).bit_count()
        return n - 2 * hd

    def classical_autocorrs(self) -> array:
        """classical_autocorr(tau) for tau = 0..n-1, read off one decimal product.

        Each bit goes into a decimal slot of k = len(str(n)) digits; no count
        exceeds n, so none carries into the next slot.  The packed bits times
        their slot-reversal, high half added onto low half, holds in slot
        n-1-tau (the tau-th from the left) the count c(tau) of i with
        s_i = s_(i+tau) = 1; C(tau) = n - 4w + 4c(tau) for the weight w = c(0).
        """
        n = self.period
        k = len(str(n))
        width = k * n
        # the t-th k digits from the left hold s_(n-1-t) in `ones`, s_t in `reversal`
        bits = format(self.value, f"0{n}b").encode()
        slots = bytearray(b"0") * width
        slots[k - 1 :: k] = bits
        ones = Decimal(slots.decode())
        slots[k - 1 :: k] = bits[::-1]
        reversal = Decimal(slots.decode())
        del bits, slots
        product = _EXACT.multiply(ones, reversal)
        del ones, reversal
        text = str(product)
        del product
        # a sparse sequence's product has fewer than k n digits and no high half
        split = max(0, len(text) - width)
        low, high = Decimal(text[split:]), Decimal(text[:split] or 0)
        del text
        text = str(_EXACT.add(low, high)).zfill(width)
        base = n - 4 * int(text[:k])
        return array("i", (base + 4 * int(text[i : i + k]) for i in range(0, width, k)))

    def to_csv(self) -> str:
        """CSV export, header `lambda,bit` then one row per index."""
        # joined a slice at a time: one string object per bit costs about
        # 60 bytes, the joined text about 10
        text = str(self)
        lines = ["lambda,bit"]
        for lo in range(0, len(text), _CSV_SLICE):
            lines.append("\n".join(f"{i},{b}" for i, b in enumerate(text[lo : lo + _CSV_SLICE], lo)))
        return "\n".join(lines)

    def __len__(self):
        return self.period

    def __getitem__(self, i: int) -> int:
        return (self.value >> (i % self.period)) & 1

    def __iter__(self):
        return map(int, str(self))

    def __eq__(self, other):
        if not isinstance(other, BinarySequence):
            return NotImplemented
        return self.value == other.value and self.period == other.period

    def __hash__(self):
        return hash((self.value, self.period))

    def __str__(self):
        return format(self.value, f"0{self.period}b")[::-1]

    def __repr__(self):
        return f"BinarySequence({self})"


def m_sequence(ctx: GF2m) -> BinarySequence:
    """The m-sequence (T(pi^0), T(pi^1), ..., T(pi^(n-1))) for the given field.

    The first m terms are T(pi^i) by definition.  The trace is linear, so for
    a = x^L mod f the terms s_(L+i) = T(pi^L * pi^i) = sum over the set bits j
    of a of s_(i+j); once L terms are known, this gives the next L - m + 1 at
    once, as the XOR of the known value shifted right by each such j.  About
    m doubling rounds of at most m shifts of an n-bit int build one period.
    """
    m, n, f = ctx.m, ctx.n, ctx.modulus
    value = sum(ctx.trace(1 << i) << i for i in range(m))
    length = m
    while length < n:
        count = min(length - m + 1, n - length)
        a = _polypowmod(2, length, f)
        block = 0
        for j in range(a.bit_length()):
            if a >> j & 1:
                block ^= value >> j
        value |= (block & ((1 << count) - 1)) << length
        length += count
    return BinarySequence._from_value(value, n)
