from collections import Counter
from dataclasses import astuple
from fractions import Fraction

import pytest

from arithcorr import errors
from arithcorr.arith import arithmetic_autocorr, distribution
from arithcorr.blocks import autocorr_via_blocks
from arithcorr.closedform import (
    TauProfile,
    brute_count_eq4,
    brute_count_eq5,
    lemma4_count,
    predict_acorr,
    predict_distribution,
    weighted_sum,
)
from arithcorr.gf2m import GF2m, find_primitive_polynomials, make_field
from arithcorr.sequences import m_sequence


class TestPredictAcorr:
    @pytest.mark.parametrize(
        "tau, e, b0, value",
        [(1, 2, 0, -1), (5, 1, 1, 3), (3, 2, 1, 1)],
    )
    def test_frozen_m3(self, tau, e, b0, value):
        profile = predict_acorr(make_field(3), tau)
        assert profile == TauProfile(tau=tau, e=e, b0=b0, predicted_A=value)

    def test_tau_out_of_range(self):
        with pytest.raises(errors.TauOutOfRange):
            predict_acorr(make_field(3), 0)

    def test_field_order(self):
        assert astuple(predict_acorr(make_field(3), 5)) == (5, 1, 1, 3)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_magnitude_is_power_of_two_minus_one(self, m):
        ctx = make_field(m)
        allowed = {(1 << k) - 1 for k in range(1, m)}
        for tau in range(1, ctx.n):
            assert abs(predict_acorr(ctx, tau).predicted_A) in allowed


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
        with pytest.raises(ValueError):
            predict_distribution(1)

    @pytest.mark.parametrize("m", [17, 18])
    def test_closed_form_above_verify_cap(self, m):
        ctx = make_field(m)
        counts = Counter(predict_acorr(ctx, tau).predicted_A for tau in range(1, ctx.n))
        assert counts == predict_distribution(m)


class TestLemma4:
    def test_frozen_m3(self):
        ctx = make_field(3)
        assert lemma4_count(ctx, 1, 2) == 1
        assert lemma4_count(ctx, 1, 1) == 0

    def test_l_out_of_range(self):
        ctx = make_field(3)
        for l in (0, 3):
            with pytest.raises(errors.LOutOfRange):
                lemma4_count(ctx, 1, l)

    def test_non_integer_count_is_typed(self, monkeypatch):
        # e = 3 cannot occur for m = 3; with l = 1 it leaves the prefactor
        # 2^(m-l-3) = 1/2 uncancelled
        monkeypatch.setattr(GF2m, "expand_inverse_one_plus_pi_tau", lambda self, tau: (3, (0, 0, 0)))
        with pytest.raises(errors.NonIntegerCount):
            lemma4_count(make_field(3), 1, 1)

    def test_e1_cases(self):
        # l >= e branch: the fractional prefactor 2^(m-l-3) is multiplied by
        # 1 + (-1)^b0, so b0=0 doubles it and b0=1 kills it
        ctx = make_field(5)
        seen = set()
        for tau in range(1, ctx.n):
            e, b = ctx.expand_inverse_one_plus_pi_tau(tau)
            if e == 1:
                assert lemma4_count(ctx, tau, 1) == (0 if b[0] else 4)
                seen.add(b[0])
        assert seen == {0, 1}

    @pytest.mark.parametrize("m", range(3, 9))
    def test_matches_brute_force(self, m):
        ctx = make_field(m)
        for tau in range(1, ctx.n):
            for l in range(1, m):
                assert lemma4_count(ctx, tau, l) == brute_count_eq4(ctx, tau, l)


class TestBruteCounts:
    def test_frozen_m3(self):
        ctx = make_field(3)
        assert brute_count_eq4(ctx, 1, 2) == 1
        assert brute_count_eq4(ctx, 1, 0) == 1

    def test_zero_for_l_ge_m(self):
        ctx = make_field(4)
        for tau in range(1, ctx.n):
            for l in range(4, 8):
                assert brute_count_eq4(ctx, tau, l) == 0
                assert brute_count_eq5(ctx, tau, l) == 0

    @pytest.mark.parametrize("m", range(2, 11))
    def test_sums_are_quarter_field(self, m):
        ctx = make_field(m)
        quarter = 1 << (m - 2)
        for tau in range(1, ctx.n):
            assert sum(brute_count_eq4(ctx, tau, l) for l in range(m)) == quarter
            assert sum(brute_count_eq5(ctx, tau, l) for l in range(m)) == quarter


class TestWeightedSum:
    def test_frozen_m3(self):
        ctx = make_field(3)
        assert weighted_sum(ctx, 1) == 2
        assert weighted_sum(ctx, 5) == 0

    def test_frozen_m4(self):
        ctx = make_field(4)
        for tau in range(1, ctx.n):
            e, b = ctx.expand_inverse_one_plus_pi_tau(tau)
            if b[0] == 1 and e == 2:
                assert weighted_sum(ctx, tau) == 2
                break
        else:
            pytest.fail("no tau with e=2, b0=1 for m=4")

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_brute_force(self, m):
        ctx = make_field(m)
        for tau in range(1, ctx.n):
            brute = sum(l * brute_count_eq4(ctx, tau, l) for l in range(m))
            assert weighted_sum(ctx, tau) == brute


@pytest.mark.parametrize("m", range(2, 9))
def test_three_way_agreement(m):
    ctx = make_field(m)
    seq = m_sequence(ctx)
    for tau in range(1, ctx.n):
        direct = arithmetic_autocorr(seq, tau)
        via_blocks = autocorr_via_blocks(seq, seq.shift(tau))
        closed = predict_acorr(ctx, tau).predicted_A
        assert direct == via_blocks == closed


@pytest.mark.parametrize("m", range(2, 11))
def test_empirical_distribution_poly_independent(m):
    predicted = predict_distribution(m)
    for poly in find_primitive_polynomials(m, 3):
        seq = m_sequence(make_field(m, poly))
        assert distribution(seq) == predicted


@pytest.mark.parametrize("m", range(2, 13))
def test_remark_correspondence(m):
    # sign follows b0, magnitude follows e
    ctx = make_field(m)
    seq = m_sequence(ctx)
    for tau in range(1, ctx.n):
        value = arithmetic_autocorr(seq, tau)
        e, b = ctx.expand_inverse_one_plus_pi_tau(tau)
        assert abs(value) == (1 << (m - e)) - 1
        assert (value > 0) == (b[0] == 1)


@pytest.mark.parametrize("m", range(3, 11))
def test_absolute_value_counts(m):
    # number of tau with |A| = 2^k - 1 is 2^(m-k)
    dist = distribution(m_sequence(make_field(m)))
    for k in range(1, m):
        value = (1 << k) - 1
        assert dist[value] + dist[-value] == 1 << (m - k)


def test_partial_sum_identity():
    # sum over l of l * 2^-l for l = 1..d equals 2 - (d+2)/2^d
    for d in range(1, 31):
        total = sum(Fraction(l, 1 << l) for l in range(1, d + 1))
        assert total == 2 - Fraction(d + 2, 1 << d)
