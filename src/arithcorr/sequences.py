"""Periodic binary sequences and the classical pseudorandomness checks.

A BinarySequence holds one full period of bits.  Bit storage follows the
2-adic convention: index 0 is the least significant digit of the integer
value, so the `value` property is a reinterpretation, not a conversion.
"""

from __future__ import annotations

from .errors import PatternTooLong, TauOutOfRange, excerpt
from .gf2m import GF2m


def rotate_value(value: int, tau: int, n: int) -> int:
    """sigma of the tau-shift: bit lambda of the result is bit lambda+tau of value."""
    if tau == 0:
        return value
    return (value >> tau) | ((value & ((1 << tau) - 1)) << (n - tau))


class BinarySequence:
    """One period of a binary sequence; immutable, cyclically indexed."""

    __slots__ = ("bits", "_value")

    def __init__(self, bits):
        bits = tuple(int(b) for b in bits)
        if len(bits) < 2:
            raise ValueError("period must be at least 2")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_value", None)

    def __setattr__(self, name, value):
        raise AttributeError("BinarySequence is immutable")

    @classmethod
    def from_string(cls, text: str) -> "BinarySequence":
        """Parse a '0'/'1' string, index 0 leftmost."""
        if not set(text) <= {"0", "1"}:
            raise ValueError(f"not a binary string: {excerpt(text)}")
        return cls(int(c) for c in text)

    @property
    def period(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> int:
        """The 2-adic value sigma = sum of bits[lambda] * 2^lambda."""
        if self._value is None:
            v = 0
            for i, b in enumerate(self.bits):
                v |= b << i
            object.__setattr__(self, "_value", v)
        return self._value

    def shift(self, tau: int) -> "BinarySequence":
        """Cyclic shift: bit lambda of the result is bit lambda+tau of self."""
        n = self.period
        if not 0 <= tau <= n - 1:
            raise TauOutOfRange(f"tau={tau} outside 0..{n - 1}")
        if tau == 0:
            return self
        return BinarySequence(self.bits[tau:] + self.bits[:tau])

    def pattern_count(self, pattern) -> int:
        """Number of cyclic positions where the window equals the pattern."""
        pattern = tuple(int(b) for b in pattern)
        n = self.period
        l = len(pattern)
        if l == 0:
            raise ValueError("pattern must be nonempty")
        if l > n:
            raise PatternTooLong(f"pattern length {l} exceeds period {n}")
        bits = self.bits
        count = 0
        for i in range(n):
            if all(bits[(i + j) % n] == pattern[j] for j in range(l)):
                count += 1
        return count

    def classical_autocorr(self, tau: int) -> int:
        """sum over lambda of (-1)^(s_lambda + s_(lambda+tau))."""
        n = self.period
        if not 0 <= tau <= n - 1:
            raise TauOutOfRange(f"tau={tau} outside 0..{n - 1}")
        hd = (self.value ^ rotate_value(self.value, tau, n)).bit_count()
        return n - 2 * hd

    def to_csv(self) -> str:
        """CSV export, header `lambda,bit` then one row per index."""
        lines = ["lambda,bit"]
        lines.extend(f"{i},{b}" for i, b in enumerate(self.bits))
        return "\n".join(lines)

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i % len(self.bits)]

    def __iter__(self):
        return iter(self.bits)

    def __eq__(self, other):
        if not isinstance(other, BinarySequence):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __str__(self):
        return "".join(str(b) for b in self.bits)

    def __repr__(self):
        return f"BinarySequence({self})"


def m_sequence(ctx: GF2m) -> BinarySequence:
    """The m-sequence (T(pi^0), T(pi^1), ..., T(pi^(n-1))) for the given field.

    Iterates x <- x*pi with the reduction done by hand, so one period costs
    O(n*m) bit operations plus n trace inner products.
    """
    m, mod, n = ctx.m, ctx.modulus, ctx.n
    top = 1 << m
    bits = []
    x = 1
    for _ in range(n):
        bits.append(ctx.trace(x))
        x <<= 1
        if x & top:
            x ^= mod
    return BinarySequence(bits)
