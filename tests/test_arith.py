import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithcorr import errors
from arithcorr.arith import arithmetic_autocorr, arithmetic_autocorrs, distribution
from arithcorr.gf2m import make_field
from arithcorr.sequences import BinarySequence, m_sequence
from conftest import ALL_SHIFT_FIELDS, BAD_TAU_LISTS_N7, eq1_direct

bit_lists = st.lists(st.integers(0, 1), min_size=2, max_size=64)
bits_and_tau = bit_lists.flatmap(lambda bits: st.tuples(st.just(bits), st.integers(1, len(bits) - 1)))


class TestSigmaWeight:
    def test_sigma_frozen(self):
        assert BinarySequence("1001011").value == 105
        assert BinarySequence("0010111").value == 116
        assert BinarySequence([0] * 9).value == 0


class TestArithmeticAutocorr:
    def test_frozen_m3(self):
        seq = BinarySequence("1001011")
        assert arithmetic_autocorr(seq, 1) == -1
        assert arithmetic_autocorr(seq, 2) == -3
        assert arithmetic_autocorr(seq, 5) == 3

    def test_tau_out_of_range(self):
        seq = BinarySequence("1001011")
        for tau in (0, 7, 2.0, "2", None):
            with pytest.raises(errors.TauOutOfRange):
                arithmetic_autocorr(seq, tau)

    def test_shift_equals_sequence(self):
        with pytest.raises(errors.ShiftEqualsSequence):
            arithmetic_autocorr(BinarySequence("0101"), 2)

    # the examples cover sigma(shift) above sigma, below it, and equal to it
    @settings(max_examples=300)
    @example(([1, 0, 0, 1, 0, 1, 1], 1))
    @example(([1, 0, 0, 1, 0, 1, 1], 5))
    @example(([0, 1, 0, 1], 2))
    @given(bits_and_tau)
    def test_matches_subtract_then_negate(self, case):
        bits, tau = case
        seq = BinarySequence(bits)
        shifted = seq.shift(tau)
        if shifted == seq:
            with pytest.raises(errors.ShiftEqualsSequence):
                arithmetic_autocorr(seq, tau)
        else:
            assert arithmetic_autocorr(seq, tau) == eq1_direct(seq, shifted)

    @given(bit_lists, st.data())
    def test_bound(self, bits, data):
        seq = BinarySequence(bits)
        tau = data.draw(st.integers(1, seq.period - 1))
        try:
            v = arithmetic_autocorr(seq, tau)
        except errors.ShiftEqualsSequence:
            return
        assert abs(v) <= seq.period - 2

    @settings(max_examples=300)
    @given(bit_lists, st.data())
    def test_shift_invariance(self, bits, data):
        seq = BinarySequence(bits)
        n = seq.period
        t = data.draw(st.integers(1, n - 1))
        tau = data.draw(st.integers(1, n - 1))
        try:
            base = arithmetic_autocorr(seq, tau)
        except errors.ShiftEqualsSequence:
            return
        assert arithmetic_autocorr(seq.shift(t), tau) == base

    @pytest.mark.parametrize("m", range(2, 13))
    def test_chen_bound(self, m):
        seq = m_sequence(make_field(m))
        bound = (1 << (m - 1)) - 1
        assert all(abs(v) <= bound for v in distribution(seq))


class TestDistribution:
    def test_frozen_small(self):
        assert distribution(m_sequence(make_field(2))) == {1: 1, -1: 1}
        assert distribution(m_sequence(make_field(3))) == {1: 2, -1: 2, 3: 1, -3: 1}
        assert distribution(m_sequence(make_field(4))) == {
            1: 4, -1: 4, 3: 2, -3: 2, 7: 1, -7: 1,
        }

    @pytest.mark.parametrize("m", range(2, 11))
    def test_total_multiplicity(self, m):
        dist = distribution(m_sequence(make_field(m)))
        assert sum(dist.values()) == (1 << m) - 2

    def test_propagates_shift_equals_sequence(self):
        with pytest.raises(errors.ShiftEqualsSequence):
            distribution(BinarySequence("0101"))


class TestArithmeticAutocorrs:
    """The all-shifts loop against the per-tau call as its oracle."""

    @pytest.mark.parametrize("m, poly", ALL_SHIFT_FIELDS)
    def test_matches_per_tau(self, m, poly):
        seq = m_sequence(make_field(m, poly))
        taus = range(1, seq.period)
        assert list(arithmetic_autocorrs(seq, taus)) == [arithmetic_autocorr(seq, tau) for tau in taus]

    def test_spread_taus_m15(self):
        seq = m_sequence(make_field(15))
        n = seq.period
        taus = sorted({*range(1, n, (n - 1) // 64), n - 1})
        assert len(taus) == 66
        assert list(arithmetic_autocorrs(seq, taus)) == [arithmetic_autocorr(seq, tau) for tau in taus]

    def test_empty_taus(self):
        assert list(arithmetic_autocorrs(BinarySequence("1001011"), [])) == []

    # period 4 from the block 01, period 6 from the block 110: a shift by the
    # block length equals the sequence
    @pytest.mark.parametrize("bits", ["0101", "110110"])
    def test_raises_like_per_tau(self, bits):
        seq = BinarySequence(bits)
        taus = range(1, seq.period)
        with pytest.raises(errors.ArithCorrError) as one:
            for tau in taus:
                arithmetic_autocorr(seq, tau)
        with pytest.raises(errors.ArithCorrError) as every:
            arithmetic_autocorrs(seq, taus)
        assert type(every.value) is type(one.value) is errors.ShiftEqualsSequence
        # both name the first such tau
        assert str(every.value) == str(one.value)

    @pytest.mark.parametrize("taus", BAD_TAU_LISTS_N7)
    def test_bad_tau_rejected(self, taus):
        with pytest.raises(errors.TauOutOfRange):
            arithmetic_autocorrs(m_sequence(make_field(3)), taus)
