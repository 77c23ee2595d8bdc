from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcorr import errors
from arithcorr.gf2m import MAX_DEGREE, find_primitive_polynomials, make_field
from arithcorr.sequences import BinarySequence, m_sequence, rotate_value
from conftest import lfsr_m_sequence, naive_pattern_count, random_sequence, trace_walk_m_sequence


class TestConstruction:
    def test_string_and_back(self):
        seq = BinarySequence("1001011")
        assert str(seq) == "1001011"
        assert tuple(seq) == (1, 0, 0, 1, 0, 1, 1)
        assert BinarySequence((True, False, "0", 1, 0, "1", True)) == seq

    def test_rejects_short_or_nonbinary(self):
        with pytest.raises(ValueError):
            BinarySequence([1])
        with pytest.raises(ValueError):
            BinarySequence([0, 2])
        with pytest.raises(ValueError):
            BinarySequence("10a")
        with pytest.raises(ValueError) as info:
            BinarySequence("2" * 5000)
        assert len(str(info.value)) < 100

    def test_errors_are_typed(self):
        # a bit is 0, 1, "0" or "1": not "01", " 1", an Arabic-Indic one, None
        # or a list, and the bits must come as an iterable
        for bad in ([1], [0, 2], [0, -1], ["0", "x"], "10a", ["01", "1"], [" 1", "0"], ["\u0661", "0"],
                    [None, 1], [[1], 0], [1.5, 0], 5, None):
            with pytest.raises(errors.InvalidSequence) as info:
                BinarySequence(bad)
            assert isinstance(info.value, errors.ArithCorrError)
        with pytest.raises(errors.ArithCorrError):
            BinarySequence("101").pattern_count(())

    def test_value_is_the_state(self):
        seq = BinarySequence("1001011")
        assert seq.value == 0b1101001
        assert seq.period == len(seq) == 7
        assert seq == BinarySequence(seq)
        assert hash(seq) == hash(BinarySequence(seq))
        # leading zeros of the period are part of it
        assert BinarySequence("10") != BinarySequence("100")

    def test_cyclic_indexing(self):
        seq = BinarySequence("1001011")
        assert seq[7] == seq[0] == 1
        assert seq[-1] == seq[6] == 1

    def test_immutable(self):
        seq = BinarySequence("101")
        with pytest.raises(AttributeError):
            seq.value = 0

    def test_csv_export(self):
        assert BinarySequence("011").to_csv() == "lambda,bit\n0,0\n1,1\n2,1"

    def test_csv_export_past_one_slice(self):
        # 16383 rows span four of to_csv's join slices
        seq = m_sequence(make_field(14))
        lines = seq.to_csv().split("\n")
        assert lines[0] == "lambda,bit"
        assert len(lines) == seq.period + 1
        assert lines[1] == f"0,{seq[0]}" and lines[-1] == f"{seq.period - 1},{seq[-1]}"
        assert lines[1:] == [f"{i},{seq[i]}" for i in range(seq.period)]


class TestMSequence:
    def test_m3(self):
        assert str(m_sequence(make_field(3))) == "1001011"

    def test_m2(self):
        assert str(m_sequence(make_field(2))) == "011"

    @pytest.mark.parametrize("m", range(2, MAX_DEGREE + 1))
    def test_balance(self, m):
        ctx = make_field(m)
        value = m_sequence(ctx).value
        assert value.bit_count() == 1 << (m - 1)
        assert value < 1 << ctx.n
        assert [value >> i & 1 for i in range(m)] == [ctx.trace(1 << i) for i in range(m)]

    @pytest.mark.parametrize("m", range(2, 11))
    def test_agrees_with_trace_walk_for_every_primitive_poly(self, m):
        for poly in find_primitive_polynomials(m, 1 << m):
            ctx = make_field(m, poly)
            assert m_sequence(ctx) == trace_walk_m_sequence(ctx)

    @pytest.mark.parametrize("m", range(11, 19))
    def test_agrees_with_trace_walk_for_the_default_modulus(self, m):
        ctx = make_field(m)
        assert m_sequence(ctx) == trace_walk_m_sequence(ctx)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_agrees_with_lfsr_recurrence(self, m):
        ctx = make_field(m)
        assert m_sequence(ctx) == lfsr_m_sequence(ctx)

    def test_lfsr_agreement_on_alternate_polys(self):
        for m in (4, 5, 6):
            for poly in find_primitive_polynomials(m, 2):
                ctx = make_field(m, poly)
                assert m_sequence(ctx) == lfsr_m_sequence(ctx)


class TestShift:
    def test_examples(self):
        seq = BinarySequence("1001011")
        assert str(seq.shift(1)) == "0010111"
        assert str(seq.shift(5)) == "1110010"
        assert seq.shift(0) is seq

    def test_out_of_range(self):
        seq = BinarySequence("1001011")
        for tau in (-1, 7, 2.0, "2", None):
            with pytest.raises(errors.TauOutOfRange):
                seq.shift(tau)

    def test_composition(self, rng):
        seq = random_sequence(rng, 17)
        for t1 in range(17):
            for t2 in range(17):
                assert seq.shift(t1).shift(t2) == seq.shift((t1 + t2) % 17)

    def test_rotate_value_matches_shift(self, rng):
        for n in (2, 5, 16, 33):
            seq = random_sequence(rng, n)
            for tau in range(n):
                assert rotate_value(seq.value, tau, n) == seq.shift(tau).value


class TestPatternCount:
    def test_frozen_m3(self):
        seq = m_sequence(make_field(3))
        assert seq.pattern_count((0, 0, 0)) == 0
        assert seq.pattern_count((1, 1)) == 2
        assert seq.pattern_count((1,)) == 4
        assert seq.pattern_count("11") == seq.pattern_count([True, True]) == 2

    @pytest.mark.parametrize("m", range(2, 9))
    def test_uniform_pattern_distribution(self, m):
        seq = m_sequence(make_field(m))
        for l in range(1, m + 1):
            for pattern in product((0, 1), repeat=l):
                expected = (1 << (m - l)) - 1 if not any(pattern) else 1 << (m - l)
                assert seq.pattern_count(pattern) == expected

    def test_errors(self):
        seq = BinarySequence("101")
        with pytest.raises(errors.PatternTooLong):
            seq.pattern_count((1, 0, 1, 0))
        with pytest.raises(ValueError):
            seq.pattern_count(())
        for bad in ((1, 2), "x", None, ["\u0661"], ("01",), (" 1",), (None, 1)):
            with pytest.raises(errors.InvalidSequence):
                seq.pattern_count(bad)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=64), st.data())
    def test_matches_naive_window_loop(self, bits, data):
        seq = BinarySequence(bits)
        pattern = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=len(bits)))
        assert seq.pattern_count(pattern) == naive_pattern_count(seq, pattern)


class TestClassicalAutocorr:
    def test_tau_zero_is_period(self):
        seq = m_sequence(make_field(4))
        assert seq.classical_autocorr(0) == 15

    def test_out_of_range(self):
        seq = m_sequence(make_field(4))
        for tau in (-1, 15, 2.0, "2", None):
            with pytest.raises(errors.TauOutOfRange):
                seq.classical_autocorr(tau)

    def test_int_past_the_digit_limit_is_typed(self):
        # repr of this tau raises ValueError; the error names its size instead
        with pytest.raises(errors.TauOutOfRange, match=r"^tau=<int of 16610 bits> outside 0\.\.14$"):
            m_sequence(make_field(4)).classical_autocorr(10**5000)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_ideal_for_m_sequences(self, m):
        seq = m_sequence(make_field(m))
        for tau in range(1, seq.period):
            assert seq.classical_autocorr(tau) == -1

    def test_matches_naive_sum(self, rng):
        for n in (2, 7, 20):
            seq = random_sequence(rng, n)
            for tau in range(n):
                naive = sum((-1) ** (seq[i] ^ seq[i + tau]) for i in range(n))
                assert seq.classical_autocorr(tau) == naive


class TestClassicalAutocorrs:
    @settings(max_examples=300)
    # periods up to 1200 reach slots of 1 to 4 decimal digits; drawn as one
    # int, since a list strategy rarely draws more than a few dozen items
    @given(st.integers(2, 1200).flatmap(lambda n: st.integers(0, (1 << n) - 1).map(lambda v: format(v, f"0{n}b"))))
    def test_matches_per_tau(self, bits):
        seq = BinarySequence(bits)
        corrs = seq.classical_autocorrs()
        assert corrs.typecode == "i"
        assert list(corrs) == [seq.classical_autocorr(tau) for tau in range(seq.period)]

    @pytest.mark.parametrize(
        "m", [*range(2, 19), *(pytest.param(m, marks=pytest.mark.slow) for m in range(19, 23))]
    )
    def test_two_level_for_m_sequences(self, m):
        corrs = m_sequence(make_field(m)).classical_autocorrs()
        assert len(corrs) == (1 << m) - 1
        assert corrs[0] == (1 << m) - 1
        assert set(corrs[1:]) == {-1}

    @pytest.mark.parametrize("n", [n for k in range(1, 5) for n in (10**k - 1, 10**k, 10**k + 1)])
    def test_decimal_slot_width_edge(self, n):
        # the slot width len(str(n)) grows by one digit between 10^k - 1 and
        # 10^k; a sparse sequence's product is shorter than the n slots it is
        # folded into
        for bits in ("1" * n, "1" + "0" * (n - 1), "1" + "0" * (n // 2) + "1" + "0" * (n - n // 2 - 2)):
            seq = BinarySequence(bits)
            assert list(seq.classical_autocorrs()) == [seq.classical_autocorr(tau) for tau in range(n)]


@pytest.mark.parametrize("m", range(2, 7))
def test_shift_linearity(m):
    # XOR of two distinct shifts is the zero sequence or another shift
    seq = m_sequence(make_field(m))
    n = seq.period
    shifts = {tuple(seq.shift(t)) for t in range(n)}
    for t1 in range(n):
        for t2 in range(n):
            combo = tuple(a ^ b for a, b in zip(seq.shift(t1), seq.shift(t2)))
            assert combo == (0,) * n or combo in shifts
