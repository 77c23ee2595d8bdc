"""Periodic binary sequences and the classical pseudorandomness checks.

A BinarySequence is one period held as its 2-adic value
sigma = sum of s_lambda * 2^lambda together with the period n: bit lambda
of `value` is s_lambda.  That pair is the whole state.  A cyclic shift is a
rotation of the value, pattern counts AND rotations of the value and its
complement, and iteration (so `tuple(seq)`), the string and the CSV export
are derived from the value on demand.
"""

from __future__ import annotations

import sys
from array import array

from .errors import InvalidSequence, PatternTooLong, check_tau
from .gf2m import GF2m, _polypowmod

# The values that count as bits (True and False are 1 and 0 as keys)
_BITS = {0: 0, 1: 1, "0": 0, "1": 1}
# bytes 0/1 to the ASCII digits int(..., 2) reads
_ASCII_DIGITS = bytes.maketrans(b"\0\1", b"01")
# and back
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")
# classical_autocorrs multiplies in blocks of n/_BLOCKS slots: at n = 65535 its
# transient is 0.8 MiB, against 1.6 MiB for one n-slot product, in about the
# same time
_BLOCKS = 4
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
        """classical_autocorr(tau) for tau = 0..n-1, read off big-int products.

        Each bit goes into a slot of 2 bytes, or 4 bytes when n >= 2^16: no
        count exceeds n, so a count never carries into the next slot.  The
        packed bits times their slot-reversal holds, in slot k, the acyclic
        count L[k] of positions where s_i = s_(i+n-1-k) = 1; the cyclic count
        is c(tau) = L[n-1-tau] + L[tau-1], and C(tau) = n - 4w + 4c(tau) for
        the weight w = L[n-1].  Only the low half L[0..n-1] is formed, from
        the _BLOCKS * (_BLOCKS + 1) / 2 products of n/_BLOCKS-slot blocks that
        reach it; the cost is O(M(n * slot)), for M(b) the cost of multiplying
        two b-byte ints, in place of n rotations and bit counts.
        """
        n = self.period
        slot, typecode = (2, "H") if n < 1 << 16 else (4, "I")
        # read little-endian, slot i holds s_i in `ones` and s_(n-1-i) in `reversal`
        digits = format(self.value, f"0{n}b").encode().translate(_DIGIT_BYTES)
        ones = bytearray(slot * n)
        ones[::slot] = digits[::-1]
        reversal = bytearray(slot * n)
        reversal[::slot] = digits
        del digits
        # block i of ones times block j of the reversal starts at block i + j,
        # so the pairs with i + j >= _BLOCKS reach only the high half
        width = slot * -(-n // _BLOCKS)
        low = 0
        for d in reversed(range(_BLOCKS)):
            diagonal = sum(
                int.from_bytes(ones[i * width : (i + 1) * width], "little")
                * int.from_bytes(reversal[(d - i) * width : (d - i + 1) * width], "little")
                for i in range(d + 1)
            )
            low = (low << 8 * width) + diagonal
            del diagonal
        del ones, reversal
        raw = low.to_bytes(width * (_BLOCKS + 1), "little")
        del low
        counts = array(typecode)
        counts.frombytes(memoryview(raw)[: slot * n])
        del raw
        if sys.byteorder != "little":
            counts.byteswap()
        base = n - 4 * counts[n - 1]
        corrs = array("i", [n])
        # tau = 1..n-1 pairs L[n-1-tau] with L[tau-1]
        corrs.extend(base + 4 * (a + b) for a, b in zip(counts[n - 2 :: -1], counts))
        return corrs

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
