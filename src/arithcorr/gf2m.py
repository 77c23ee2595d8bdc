"""Arithmetic in GF(2^m) behind a verified primitive modulus.

Both GF(2)[x] polynomials and field elements are stored as plain ints:
bit i is the coefficient of x^i (respectively pi^i, for pi a root of
the modulus).  Addition is XOR, and a field element doubles as the
coefficient vector over the polynomial basis {1, pi, ..., pi^(m-1)}.
"""

from __future__ import annotations

from array import array
from itertools import islice

from .errors import (
    DegreeMismatch,
    DegreeOutOfRange,
    NotIrreducible,
    NotPrimitive,
    PolynomialFormatError,
    check_tau,
    excerpt,
    excerpt_repr,
)

MIN_DEGREE = 2
MAX_DEGREE = 24


def _check_degree(m: int) -> None:
    if not isinstance(m, int) or not MIN_DEGREE <= m <= MAX_DEGREE:
        raise DegreeOutOfRange(f"m={excerpt_repr(m)} outside {MIN_DEGREE}..{MAX_DEGREE}")


def parse_poly(text: str) -> int:
    """Parse a polynomial given as a hex bitmask ("0xB") or exponent list ("3,1,0").

    A degree above MAX_DEGREE raises DegreeOutOfRange; an exponent is checked
    before its bit is set, so a huge exponent never builds a huge mask.
    """
    text = text.strip()
    if not text:
        raise PolynomialFormatError("empty polynomial string")
    if text.lower().startswith("0x"):
        try:
            mask = int(text, 16)
        except ValueError:
            raise PolynomialFormatError(f"bad hex polynomial {excerpt(text)}") from None
        if not mask:
            raise PolynomialFormatError(f"zero polynomial {excerpt(text)}")
        if mask.bit_length() - 1 > MAX_DEGREE:
            raise DegreeOutOfRange(f"degree {mask.bit_length() - 1} above {MAX_DEGREE}")
        return mask
    mask = 0
    for part in text.split(","):
        try:
            exp = int(part)
        except ValueError:
            raise PolynomialFormatError(f"bad exponent {excerpt(part)} in {excerpt(text)}") from None
        if exp < 0:
            raise PolynomialFormatError(f"negative exponent in {excerpt(text)}")
        if exp > MAX_DEGREE:
            raise DegreeOutOfRange(f"exponent {excerpt_repr(exp)} above {MAX_DEGREE}")
        if mask >> exp & 1:
            raise PolynomialFormatError(f"repeated exponent {exp} in {excerpt(text)}")
        mask |= 1 << exp
    return mask


def format_poly(mask: int) -> str:
    """Render a polynomial bitmask as a descending exponent list ("3,1,0")."""
    if mask <= 0:
        raise PolynomialFormatError("cannot format the zero polynomial")
    return ",".join(str(i) for i in range(mask.bit_length() - 1, -1, -1) if mask >> i & 1)


def _clmul(a: int, b: int) -> int:
    # carry-less product of two GF(2)[x] polynomials
    r = 0
    while b:
        lsb = b & -b
        r ^= a << (lsb.bit_length() - 1)
        b ^= lsb
    return r


def _polymod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    da = a.bit_length() - 1
    while da >= df and a:
        a ^= f << (da - df)
        da = a.bit_length() - 1
    return a


def _polymulmod(a: int, b: int, f: int) -> int:
    return _polymod(_clmul(a, b), f)


def _polypowmod(a: int, k: int, f: int) -> int:
    r = 1
    a = _polymod(a, f)
    while k:
        if k & 1:
            r = _polymulmod(r, a, f)
        a = _polymulmod(a, a, f)
        k >>= 1
    return r


def _polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (adequate for n < 2^25)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(f: int) -> bool:
    """Whether f is irreducible over GF(2), via the Frobenius (Rabin) test."""
    if f < 2:  # zero, one or a negative int: no polynomial of degree >= 1
        return False
    m = f.bit_length() - 1
    if m == 1:
        return True
    if not f & 1:  # divisible by x
        return False
    u = 2  # the polynomial x
    for _ in range(m):
        u = _polymulmod(u, u, f)
    if u != 2:
        return False
    for p in prime_factors(m):
        u = 2
        for _ in range(m // p):
            u = _polymulmod(u, u, f)
        if _polygcd(u ^ 2, f) != 1:
            return False
    return True


def is_primitive(f: int) -> bool:
    """Whether f is irreducible and its root generates the multiplicative group.

    Checks x^((2^m - 1)/p) != 1 mod f for every prime divisor p of 2^m - 1.
    """
    if not (f & 1 and is_irreducible(f)):  # x is irreducible, but its root is 0
        return False
    m = f.bit_length() - 1
    n = (1 << m) - 1
    for p in prime_factors(n):
        if _polypowmod(2, n // p, f) == 1:
            return False
    return True


def find_primitive_polynomials(m: int, count: int) -> list[int]:
    """Up to `count` primitive polynomials of degree m, smallest bitmasks first.

    Returns fewer than `count` when GF(2^m) has fewer primitive polynomials
    (m = 3 and m = 4 have only two each; m = 2 has one).  A negative or
    fractional count raises ValueError.
    """
    _check_degree(m)
    return list(islice(filter(is_primitive, range((1 << m) | 1, 1 << (m + 1), 2)), count))


class GF2m:
    """GF(2^m) with a verified primitive modulus.

    The field itself never changes; the log/antilog tables behind
    expand_inverse_one_plus_pi_tau are filled in on its first call, so
    construction costs no O(2^m) walk.  Elements are ints in [0, 2^m),
    bit i holding the coefficient of pi^i.
    """

    __slots__ = ("m", "modulus", "n", "_trace_mask", "_log", "_antilog")

    def __init__(self, m: int, poly: int):
        _check_degree(m)
        if not isinstance(poly, int) or poly < 1:
            raise DegreeMismatch(f"modulus is not a positive int, expected a polynomial of degree {m}")
        if poly.bit_length() - 1 != m:
            raise DegreeMismatch(f"polynomial {format_poly(poly)} has degree {poly.bit_length() - 1}, expected {m}")
        if not is_primitive(poly):
            raise (NotPrimitive if is_irreducible(poly) else NotIrreducible)(format_poly(poly))
        self.m = m
        self.modulus = poly
        self.n = (1 << m) - 1
        self._trace_mask = self._basis_traces()
        self._log = self._antilog = None

    def _basis_traces(self) -> int:
        # t_i = T(pi^i), a bit, by the defining sum of m-1 successive squarings
        mask = 0
        for i in range(self.m):
            cur = 1 << i
            acc = cur
            for _ in range(self.m - 1):
                cur = _polymulmod(cur, cur, self.modulus)
                acc ^= cur
            mask |= acc << i
        return mask

    def trace(self, a: int) -> int:
        """T(a) in {0,1}, as an inner product against the precomputed basis traces."""
        return (a & self._trace_mask).bit_count() & 1

    def _zech_tables(self) -> tuple[array, array]:
        # antilog[k] = pi^k and log[pi^k] = k, from one x <- x*pi walk;
        # the narrowest unsigned typecode that holds n
        if self._antilog is None:
            n, top, mod = self.n, 1 << self.m, self.modulus
            typecode = "H" if n < 1 << 16 else "I"
            antilog = array(typecode, [0]) * n
            log = array(typecode, [0]) * (n + 1)
            x = 1
            for k in range(n):
                antilog[k] = x
                log[x] = k
                x <<= 1
                if x & top:
                    x ^= mod
            self._log, self._antilog = log, antilog
        return self._log, self._antilog

    def expand_inverse_one_plus_pi_tau(self, tau: int) -> int:
        """The element (1 + pi^tau)^-1, as an int in this field's format.

        Bit i is the coefficient b_i of pi^i over the polynomial basis, and
        the top set bit is pi^e with 1 <= e <= m-1.  With Zech's logarithm
        1 + pi^tau = pi^Z(tau), the inverse is pi^(n - Z(tau)): two lookups
        in tables built on the first call.
        """
        check_tau(tau, 1, self.n)
        log, antilog = self._zech_tables()
        # 1 + pi^tau != 1, so Z(tau) = log[...] lies in 1..n-1
        return antilog[self.n - log[antilog[tau] ^ 1]]

    def __repr__(self):
        return f"GF2m(m={self.m}, poly={format_poly(self.modulus)})"


def make_field(m: int, poly: int | None = None) -> GF2m:
    """GF2m(m, poly), which validates poly; by default the smallest primitive mask of degree m."""
    return GF2m(m, find_primitive_polynomials(m, 1)[0] if poly is None else poly)
