from collections import Counter
from fractions import Fraction

import pytest

from arithcorr import errors
from arithcorr.arith import arithmetic_autocorr, arithmetic_autocorrs
from arithcorr.blocks import autocorr_via_blocks, block_type_counts
from arithcorr.closedform import lemma4_count, predict_acorrs, predict_distribution, weighted_sum
from arithcorr.gf2m import GF2m, find_primitive_polynomials, make_field
from arithcorr.sequences import m_sequence
from conftest import ALL_SHIFT_FIELDS, BAD_TAU_LISTS_N7, fold_beta, gap_scan_block_counts, predict_acorr


def eq4_count(counts, l):
    """N(0,0;l) + N(0,1;l) read off window counts keyed (alpha, l)."""
    return counts.get((0, l), 0)


def shift_pairs(ctx):
    """(tau, m-sequence, its tau-shift) for every tau of the field."""
    seq = m_sequence(ctx)
    return ((tau, seq, seq.shift(tau)) for tau in range(1, ctx.n))


class TestPredictAcorr:
    @pytest.mark.parametrize(
        "tau, e, b0, value",
        [(1, 2, 0, -1), (5, 1, 1, 3), (3, 2, 1, 1)],
    )
    def test_frozen_m3(self, tau, e, b0, value):
        ctx = make_field(3)
        el = ctx.expand_inverse_one_plus_pi_tau(tau)
        assert (el.bit_length() - 1, el & 1, predict_acorr(ctx, tau)) == (e, b0, value)

    def test_tau_out_of_range(self):
        for tau in (0, 2.0, "2", None):
            with pytest.raises(errors.TauOutOfRange):
                predict_acorr(make_field(3), tau)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_magnitude_is_power_of_two_minus_one(self, m):
        ctx = make_field(m)
        allowed = {(1 << k) - 1 for k in range(1, m)}
        for tau in range(1, ctx.n):
            assert abs(predict_acorr(ctx, tau)) in allowed


class TestPredictAcorrs:
    """The all-shifts loop against the per-tau call as its oracle."""

    @pytest.mark.parametrize("m, poly", ALL_SHIFT_FIELDS)
    def test_matches_per_tau(self, m, poly):
        ctx = make_field(m, poly)
        taus = range(1, ctx.n)
        assert list(predict_acorrs(ctx, taus)) == [predict_acorr(ctx, tau) for tau in taus]

    def test_spread_taus_m15(self):
        ctx = make_field(15)
        n = ctx.n
        taus = sorted({*range(1, n, (n - 1) // 64), n - 1})
        assert len(taus) == 66
        assert list(predict_acorrs(ctx, taus)) == [predict_acorr(ctx, tau) for tau in taus]

    def test_empty_taus(self):
        assert list(predict_acorrs(make_field(3), [])) == []

    def test_reads_taus_once(self):
        ctx = make_field(4)
        assert list(predict_acorrs(ctx, iter([3, 1]))) == [predict_acorr(ctx, 3), predict_acorr(ctx, 1)]

    @pytest.mark.parametrize("taus", BAD_TAU_LISTS_N7)
    def test_bad_tau_rejected(self, taus):
        with pytest.raises(errors.TauOutOfRange):
            predict_acorrs(make_field(3), taus)


class TestPredictDistribution:
    def test_frozen_small(self):
        assert predict_distribution(2) == {1: 1, -1: 1}
        assert predict_distribution(3) == {1: 2, -1: 2, 3: 1, -3: 1}
        assert predict_distribution(4) == {1: 4, -1: 4, 3: 2, -3: 2, 7: 1, -7: 1}

    @pytest.mark.parametrize("m", range(2, 17))
    def test_symmetric_with_full_mass(self, m):
        dist = predict_distribution(m)
        assert sum(dist.values()) == (1 << m) - 2
        assert all(dist[v] == dist[-v] for v in dist)

    def test_rejects_small_m(self):
        for m in (1, 25, "3", 3.0, None):
            with pytest.raises(errors.DegreeOutOfRange):
                predict_distribution(m)

    @pytest.mark.parametrize("m", [17, 18])
    def test_closed_form_above_verify_cap(self, m):
        ctx = make_field(m)
        counts = Counter(predict_acorr(ctx, tau) for tau in range(1, ctx.n))
        assert counts == predict_distribution(m)


class TestLemma4:
    def test_frozen_m3(self):
        ctx = make_field(3)
        assert lemma4_count(ctx, 1, 2) == 1
        assert lemma4_count(ctx, 1, 1) == 0

    def test_l_out_of_range(self):
        ctx = make_field(3)
        for l in (0, 3, 2.0):
            with pytest.raises(errors.LOutOfRange):
                lemma4_count(ctx, 1, l)
        # a long l is quoted by its first 40 digits
        with pytest.raises(errors.LOutOfRange, match=r"^l=1(0{39})\.\.\. outside 1\.\.2$"):
            lemma4_count(ctx, 1, 10**300)

    def test_non_integer_count_is_typed(self, monkeypatch):
        # e = 3 cannot occur for m = 3; with l = 1 it leaves the prefactor
        # 2^(m-l-3) = 1/2 uncancelled
        monkeypatch.setattr(GF2m, "expand_inverse_one_plus_pi_tau", lambda self, tau: 8)
        with pytest.raises(errors.NonIntegerCount):
            lemma4_count(make_field(3), 1, 1)

    def test_e1_cases(self):
        # l >= e branch: the fractional prefactor 2^(m-l-3) is multiplied by
        # 1 + (-1)^b0, so b0=0 doubles it and b0=1 kills it
        ctx = make_field(5)
        seen = set()
        for tau in range(1, ctx.n):
            el = ctx.expand_inverse_one_plus_pi_tau(tau)
            if el >> 1 == 1:
                assert lemma4_count(ctx, tau, 1) == (0 if el & 1 else 4)
                seen.add(el & 1)
        assert seen == {0, 1}

    @pytest.mark.parametrize("m", range(3, 9))
    def test_matches_brute_force(self, m):
        ctx = make_field(m)
        for tau, a, b in shift_pairs(ctx):
            counts = fold_beta(gap_scan_block_counts(a, b))
            for l in range(1, m):
                assert lemma4_count(ctx, tau, l) == eq4_count(counts, l)


class TestBruteCounts:
    """The trace-condition counts of eqs. (4)-(5): walked in pi-power order
    they are the block-type counts of the m-sequence against its tau-shift."""

    def test_frozen_m3(self):
        seq = m_sequence(make_field(3))
        counts = block_type_counts(seq, seq.shift(1))
        assert eq4_count(counts, 2) == 1
        assert eq4_count(counts, 0) == 1

    def test_zero_for_l_ge_m(self):
        for m in range(2, 11):
            for poly in find_primitive_polynomials(m, 3):
                for _tau, a, b in shift_pairs(make_field(m, poly)):
                    assert all(l < m for (_, l) in block_type_counts(a, b))

    @pytest.mark.parametrize("m", range(2, 11))
    def test_sums_are_quarter_field(self, m):
        quarter = 1 << (m - 2)
        for poly in find_primitive_polynomials(m, 3):
            for _tau, a, b in shift_pairs(make_field(m, poly)):
                sums = [0, 0]
                for (alpha, _), c in block_type_counts(a, b).items():
                    sums[alpha] += c
                assert sums == [quarter, quarter]


class TestWeightedSum:
    def test_frozen_m3(self):
        ctx = make_field(3)
        assert weighted_sum(ctx, 1) == 2
        assert weighted_sum(ctx, 5) == 0

    def test_frozen_m4(self):
        ctx = make_field(4)
        for tau in range(1, ctx.n):
            if ctx.expand_inverse_one_plus_pi_tau(tau) in (0b101, 0b111):  # e = 2, b0 = 1
                assert weighted_sum(ctx, tau) == 2
                break
        else:
            pytest.fail("no tau with e=2, b0=1 for m=4")

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_brute_force(self, m):
        ctx = make_field(m)
        for tau, a, b in shift_pairs(ctx):
            counts = fold_beta(gap_scan_block_counts(a, b))
            assert weighted_sum(ctx, tau) == sum(l * eq4_count(counts, l) for l in range(m))


@pytest.mark.parametrize("m", range(2, 9))
def test_three_way_agreement(m):
    ctx = make_field(m)
    seq = m_sequence(ctx)
    for tau in range(1, ctx.n):
        direct = arithmetic_autocorr(seq, tau)
        via_blocks = autocorr_via_blocks(seq, seq.shift(tau))
        closed = predict_acorr(ctx, tau)
        assert direct == via_blocks == closed


@pytest.mark.parametrize("m", range(2, 11))
def test_empirical_distribution_poly_independent(m):
    predicted = predict_distribution(m)
    for poly in find_primitive_polynomials(m, 3):
        seq = m_sequence(make_field(m, poly))
        assert Counter(arithmetic_autocorrs(seq, range(1, seq.period))) == predicted


@pytest.mark.parametrize("m", range(2, 13))
def test_remark_correspondence(m):
    # sign follows b0, magnitude follows e
    ctx = make_field(m)
    seq = m_sequence(ctx)
    for tau in range(1, ctx.n):
        value = arithmetic_autocorr(seq, tau)
        el = ctx.expand_inverse_one_plus_pi_tau(tau)
        assert abs(value) == (1 << (m + 1 - el.bit_length())) - 1
        assert (value > 0) == (el & 1 == 1)


@pytest.mark.parametrize("m", range(3, 11))
def test_absolute_value_counts(m):
    # number of tau with |A| = 2^k - 1 is 2^(m-k)
    seq = m_sequence(make_field(m))
    dist = Counter(arithmetic_autocorrs(seq, range(1, seq.period)))
    for k in range(1, m):
        value = (1 << k) - 1
        assert dist[value] + dist[-value] == 1 << (m - k)


def test_partial_sum_identity():
    # sum over l of l * 2^-l for l = 1..d equals 2 - (d+2)/2^d
    for d in range(1, 31):
        total = sum(Fraction(l, 1 << l) for l in range(1, d + 1))
        assert total == 2 - Fraction(d + 2, 1 << d)
