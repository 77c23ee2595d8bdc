import time

import pytest

import arithcorr
from arithcorr import errors
from arithcorr.gf2m import (
    find_primitive_polynomials,
    format_poly,
    is_irreducible,
    is_primitive,
    make_field,
    parse_poly,
    prime_factors,
)
from arithcorr.sequences import m_sequence
from conftest import field_inv, field_mul, field_pow, trace_by_squaring


class TestParsing:
    def test_hex_and_exponent_forms_agree(self):
        assert parse_poly("0xB") == parse_poly("3,1,0") == 0b1011

    def test_format_roundtrip(self):
        assert format_poly(0x11D) == "8,4,3,2,0"
        assert parse_poly(format_poly(0x11D)) == 0x11D

    @pytest.mark.parametrize("bad", ["", "0xZZ", "3,x,0", "-1,0", "3,3,0", "0x0", "0x000"])
    def test_bad_strings_raise(self, bad):
        with pytest.raises(errors.PolynomialFormatError):
            parse_poly(bad)

    def test_max_degree_accepted(self):
        assert parse_poly("24,0") == parse_poly("0x1000001") == (1 << 24) | 1

    @pytest.mark.parametrize(
        "text", ["9" * 5000 + ",0", "0x" + "z" * 5000, "-1," + "0" * 5000, "3,3," + "0" * 5000]
    )
    def test_error_quotes_bounded_prefix(self, text):
        with pytest.raises(errors.PolynomialFormatError) as info:
            parse_poly(text)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("text", ["25,0", "0,25", "0x2000001"])
    def test_degree_above_max_rejected(self, text):
        with pytest.raises(errors.DegreeOutOfRange):
            parse_poly(text)


class TestMakeField:
    def test_m3_standard(self):
        ctx = make_field(3, parse_poly("3,1,0"))
        assert ctx.n == 7
        # exhaustively: x generates all 7 nonzero elements
        seen = set()
        x = 1
        for _ in range(7):
            seen.add(x)
            x = field_mul(ctx, x, 2)
        assert seen == set(range(1, 8))

    def test_reducible_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        with pytest.raises(errors.NotIrreducible):
            make_field(4, 0b10101)

    def test_irreducible_not_primitive_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5
        assert is_irreducible(0b11111)
        with pytest.raises(errors.NotPrimitive):
            make_field(4, 0b11111)

    def test_m2_only_quadratic(self):
        ctx = make_field(2, 0b111)
        assert ctx.n == 3

    def test_degree_out_of_range(self):
        with pytest.raises(errors.DegreeOutOfRange):
            make_field(1, 0b11)
        for m in (25, "3", 3.0, None, []):
            with pytest.raises(errors.DegreeOutOfRange):
                make_field(m)
            with pytest.raises(errors.DegreeOutOfRange):
                find_primitive_polynomials(m, 1)

    def test_degree_mismatch(self):
        with pytest.raises(errors.DegreeMismatch):
            make_field(4, parse_poly("3,1,0"))

    @pytest.mark.parametrize("poly", [-11, 0, 11.0, "0xB"])
    def test_not_a_positive_mask_rejected_promptly(self, poly):
        # checked before any polynomial arithmetic, which never ends on a negative int
        start = time.perf_counter()
        with pytest.raises(errors.DegreeMismatch):
            make_field(3, poly)
        assert time.perf_counter() - start < 1.0


class TestDefaultModuli:
    def test_defaults_are_smallest_primitive_masks(self):
        # every default is the smallest primitive mask, so `verify --polys all`
        # checks the default field first; changing one would change the
        # default output of gen, acorr, dist and verify
        expected = [
            0x7, 0xB, 0x13, 0x25, 0x43, 0x83, 0x11D, 0x211, 0x409, 0x805, 0x1053, 0x201B, 0x402B, 0x8003,
            0x1002D, 0x20009, 0x40027, 0x80027, 0x100009, 0x200005, 0x400003, 0x800021, 0x100001B,
        ]
        defaults = [make_field(m).modulus for m in range(2, 25)]
        assert defaults == expected
        assert defaults == [find_primitive_polynomials(m, 1)[0] for m in range(2, 25)]


class TestArithmetic:
    """The conftest field oracles, pinned to hand-checked values."""

    def test_mul_reduction(self):
        ctx = make_field(3)
        # pi * pi^2 = pi^3 = 1 + pi
        assert field_mul(ctx, 0b010, 0b100) == 0b011

    def test_mul_identity_and_zero(self):
        ctx = make_field(5)
        for a in range(32):
            assert field_mul(ctx, a, 1) == a
            assert field_mul(ctx, a, 0) == 0

    def test_inv_examples(self):
        ctx = make_field(3)
        assert field_inv(ctx, 0b011) == 0b110  # (1+pi)^-1 = pi + pi^2
        assert field_inv(ctx, 1) == 1
        assert field_inv(make_field(2), 0b10) == 0b11

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            field_inv(make_field(3), 0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
    def test_inv_is_inverse(self, m):
        ctx = make_field(m)
        for a in range(1, 1 << m):
            assert field_mul(ctx, a, field_inv(ctx, a)) == 1

    def test_pow_examples(self):
        ctx = make_field(3)
        assert field_pow(ctx, 2, 7) == 1
        assert field_pow(ctx, 2, 3) == 0b011
        assert field_pow(ctx, 0, 0) == 1
        assert field_pow(ctx, 5, 0) == 1

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 11])
    def test_primitivity_of_pi(self, m):
        ctx = make_field(m)
        for k in range(1, ctx.n):
            assert field_pow(ctx, 2, k) != 1
        assert field_pow(ctx, 2, ctx.n) == 1


class TestTrace:
    def test_frozen_values(self):
        ctx = make_field(3)
        assert ctx.trace(1) == 1
        assert ctx.trace(0b010) == 0
        assert ctx.trace(0) == 0

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_squaring_definition(self, m):
        ctx = make_field(m)
        for a in range(1 << m):
            assert ctx.trace(a) == trace_by_squaring(ctx, a)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_additive_and_frobenius(self, m):
        ctx = make_field(m)
        for a in range(1 << m):
            assert ctx.trace(field_mul(ctx, a, a)) == ctx.trace(a)
            for b in range(1 << m):
                assert ctx.trace(a ^ b) == ctx.trace(a) ^ ctx.trace(b)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 10])
    def test_balance(self, m):
        ctx = make_field(m)
        ones = sum(ctx.trace(a) for a in range(1 << m))
        assert ones == 1 << (m - 1)


class TestExpansion:
    # bit i is b_i, the top bit pi^e: 6 = pi + pi^2, 3 = 1 + pi, 5 = 1 + pi^2
    @pytest.mark.parametrize("tau, el", [(1, 6), (5, 3), (3, 5)])
    def test_frozen_m3(self, tau, el):
        assert make_field(3).expand_inverse_one_plus_pi_tau(tau) == el

    def test_tau_out_of_range(self):
        ctx = make_field(3)
        for tau in (0, 7, -1, 2.0, "2", None):
            with pytest.raises(errors.TauOutOfRange):
                ctx.expand_inverse_one_plus_pi_tau(tau)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_bijection_onto_field_minus_01(self, m):
        ctx = make_field(m)
        seen = {ctx.expand_inverse_one_plus_pi_tau(tau) for tau in range(1, ctx.n)}
        assert seen == set(range(2, 1 << m))


def oracle_expansion(ctx, tau):
    """(1 + pi^tau)^-1 by the square-and-multiply oracles."""
    return field_inv(ctx, field_pow(ctx, 2, tau) ^ 1)


def spread_taus(n, count=200):
    step = max(1, (n - 1) // count)
    return sorted(set(range(1, n, step)) | {n - 1})


class TestZechExpansion:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_every_tau_matches_pow_inv(self, m):
        for poly in find_primitive_polynomials(m, 3):
            ctx = make_field(m, poly)
            for tau in range(1, ctx.n):
                assert ctx.expand_inverse_one_plus_pi_tau(tau) == oracle_expansion(ctx, tau)

    @pytest.mark.parametrize("m", range(13, 19))
    def test_spread_taus_match_pow_inv(self, m):
        ctx = make_field(m)
        for tau in spread_taus(ctx.n):
            assert ctx.expand_inverse_one_plus_pi_tau(tau) == oracle_expansion(ctx, tau)

    @pytest.mark.parametrize("m", [3, 16, 17])
    def test_tables_built_on_first_use(self, m):
        # field and sequence set-up must not pay for the O(2^m) table walk
        ctx = make_field(m)
        m_sequence(ctx)
        assert ctx._antilog is None and ctx._log is None
        ctx.expand_inverse_one_plus_pi_tau(1)
        assert len(ctx._antilog) == ctx.n
        # narrowest unsigned typecode holding n = 2^m - 1
        assert ctx._antilog.typecode == ("H" if m <= 16 else "I")


class TestPrimitiveSearch:
    def test_m3_has_exactly_two(self):
        assert find_primitive_polynomials(3, 5) == [0b1011, 0b1101]

    def test_zero_count_finds_none(self):
        assert find_primitive_polynomials(4, 0) == []

    @pytest.mark.parametrize("count", [-1, 2.5])
    def test_bad_count_raises(self, count):
        with pytest.raises(ValueError):
            find_primitive_polynomials(4, count)

    @pytest.mark.parametrize("m", [5, 8, 12])
    def test_found_polys_build_fields(self, m):
        polys = find_primitive_polynomials(m, 3)
        assert len(polys) == 3
        for poly in polys:
            assert make_field(m, poly).n == (1 << m) - 1

    def test_prime_factors(self):
        assert prime_factors(4095) == [3, 5, 7, 13]
        assert prime_factors(127) == [127]

    def test_primitivity_predicate(self):
        assert is_primitive(0b1011)
        assert not is_primitive(0b11111)
        # below degree 2: zero, one and negative ints are no polynomials; x is
        # irreducible but its root 0 generates nothing; x + 1's root 1 generates GF(2)*
        for f, irreducible, primitive in [(-11, False, False), (-1, False, False), (0, False, False),
                                          (1, False, False), (0b10, True, False), (0b11, True, True)]:
            assert (is_irreducible(f), is_primitive(f)) == (irreducible, primitive)

    def test_is_primitive_matches_walk_definition(self):
        # f of degree m is primitive when the walk x <- x*pi mod f, from 1,
        # first returns to 1 after exactly 2^m - 1 steps
        def steps_back_to_one(f):
            top = 1 << (f.bit_length() - 1)
            x = 1
            for step in range(1, top):
                x <<= 1
                if x & top:
                    x ^= f
                if x == 1:
                    return step
            return None

        masks = range(1 << 2, 1 << 11)
        by_walk = [f for f in masks if steps_back_to_one(f) == (1 << (f.bit_length() - 1)) - 1]
        assert [f for f in masks if is_primitive(f)] == by_walk
        assert len(by_walk) == 159

    @pytest.mark.parametrize("m", range(2, 11))
    def test_matches_sympy(self, m):
        # an independent oracle: sympy's GF(p)[x] irreducibility test, and
        # the count phi(2^m - 1) / m of primitive polynomials of degree m
        sympy = pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p

        for mask in range(1 << m, 1 << (m + 1)):
            coeffs = [mask >> i & 1 for i in range(m, -1, -1)]
            assert is_irreducible(mask) == gf_irreducible_p(coeffs, 2, ZZ)
        assert len(find_primitive_polynomials(m, 1 << m)) == sympy.totient((1 << m) - 1) // m


def test_package_names_resolve():
    for name in arithcorr.__all__:
        assert getattr(arithcorr, name) is not None
    assert "GF2m" not in arithcorr.__all__
