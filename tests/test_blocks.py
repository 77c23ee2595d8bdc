import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcorr import errors
from arithcorr.blocks import autocorr_via_blocks, block_type_counts
from arithcorr.gf2m import find_primitive_polynomials, make_field
from arithcorr.sequences import BinarySequence, m_sequence
from conftest import (
    blocks_from_counts,
    eq1_direct,
    g_of,
    gap_scan_block_counts,
    naive_block_counts,
    random_sequence,
)

bit_lists = st.lists(st.integers(0, 1), min_size=2, max_size=64)


def distinct_pair(bits_a, bits_b):
    a = BinarySequence(bits_a)
    b = BinarySequence(bits_b)
    return (a, b) if a.bits != b.bits else None


def flip(seq: BinarySequence, p: int) -> BinarySequence:
    bits = list(seq.bits)
    bits[p] ^= 1
    return BinarySequence(bits)


def one_column_acorr(n: int, top_bit: int) -> int:
    """A for a pair that differs only in a column whose top bit is top_bit:
    its window holds all n - 1 equal columns, so g = n - 1 or 1."""
    return n - 2 * (n - 1) if top_bit == 0 else n - 2


class TestBlockTypeCounts:
    def test_frozen_m3_tau1(self):
        seq = m_sequence(make_field(3))
        table = block_type_counts(seq, seq.shift(1))
        assert table == {(1, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1, (0, 1, 2): 1}

    def test_all_columns_unequal(self):
        a = BinarySequence.from_string("1111")
        b = BinarySequence.from_string("0000")
        table = block_type_counts(a, b)
        assert all(l == 0 for (_, _, l) in table)
        assert sum(table.values()) == 4

    # a single unequal column is the longest gap, n-1, and its window wraps
    # onto itself: rot(x, n) == x
    @pytest.mark.parametrize("a, b", [("10", "11"), ("0110", "0100"), ("1011001", "0011001"), ("0" * 64, "0" * 63 + "1")])
    def test_one_unequal_column(self, a, b):
        a, b = BinarySequence.from_string(a), BinarySequence.from_string(b)
        (p,) = [i for i in range(a.period) if a[i] != b[i]]
        assert block_type_counts(a, b) == {(a[p], a[p], a.period - 1): 1}
        assert block_type_counts(a, b) == naive_block_counts(a, b)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_matches_gap_scan_oracle(self, m):
        for poly in find_primitive_polynomials(m, 3):
            seq = m_sequence(make_field(m, poly))
            for tau in range(1, seq.period):
                b = seq.shift(tau)
                assert block_type_counts(seq, b) == gap_scan_block_counts(seq, b)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_no_blocks_at_l_ge_m_for_m_sequences(self, m):
        seq = m_sequence(make_field(m))
        for tau in range(1, seq.period):
            table = block_type_counts(seq, seq.shift(tau))
            assert all(l < m for (_, _, l) in table)

    def test_equal_sequences_rejected(self):
        seq = BinarySequence.from_string("1010")
        with pytest.raises(errors.EqualSequences):
            block_type_counts(seq, seq)

    def test_period_mismatch_rejected(self):
        with pytest.raises(errors.PeriodMismatch):
            block_type_counts(BinarySequence.from_string("101"), BinarySequence.from_string("1011"))

    @settings(max_examples=200)
    @given(bit_lists, st.data())
    def test_matches_naive_window_scan(self, bits_a, data):
        bits_b = data.draw(st.lists(st.integers(0, 1), min_size=len(bits_a), max_size=len(bits_a)))
        pair = distinct_pair(bits_a, bits_b)
        if pair is None:
            return
        a, b = pair
        assert block_type_counts(a, b) == naive_block_counts(a, b)
        assert block_type_counts(a, b) == gap_scan_block_counts(a, b)

    @settings(max_examples=100)
    @given(bit_lists, st.data())
    def test_count_conservation(self, bits_a, data):
        bits_b = data.draw(st.lists(st.integers(0, 1), min_size=len(bits_a), max_size=len(bits_a)))
        pair = distinct_pair(bits_a, bits_b)
        if pair is None:
            return
        a, b = pair
        unequal = sum(1 for x, y in zip(a.bits, b.bits) if x != y)
        assert sum(block_type_counts(a, b).values()) == unequal


class TestG:
    def test_frozen_m3(self):
        seq = m_sequence(make_field(3))
        assert g_of(block_type_counts(seq, seq.shift(1))) == 4
        assert g_of(block_type_counts(seq, seq.shift(5))) == 2

    def test_empty_table(self):
        assert g_of({}) == 0


class TestAutocorrViaBlocks:
    def test_frozen_m3(self):
        seq = m_sequence(make_field(3))
        assert autocorr_via_blocks(seq, seq.shift(1)) == -1
        assert autocorr_via_blocks(seq, seq.shift(5)) == 3

    def test_two_column_example(self):
        assert autocorr_via_blocks(BinarySequence([1, 0]), BinarySequence([0, 1])) == 0

    def test_swap_negates(self):
        seq = m_sequence(make_field(4))
        for tau in range(1, seq.period):
            b = seq.shift(tau)
            assert autocorr_via_blocks(seq, b) == -autocorr_via_blocks(b, seq)

    def test_equal_sequences_rejected(self):
        seq = BinarySequence.from_string("1010")
        with pytest.raises(errors.EqualSequences):
            autocorr_via_blocks(seq, seq)

    def test_period_mismatch_rejected(self):
        with pytest.raises(errors.PeriodMismatch):
            autocorr_via_blocks(BinarySequence.from_string("101"), BinarySequence.from_string("1011"))

    @pytest.mark.parametrize("m", range(2, 13))
    def test_matches_counts_oracle(self, m):
        for poly in find_primitive_polynomials(m, 3):
            seq = m_sequence(make_field(m, poly))
            for tau in range(1, seq.period):
                b = seq.shift(tau)
                assert autocorr_via_blocks(seq, b) == blocks_from_counts(seq, b)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_one_unequal_column(self, n, rng):
        a = random_sequence(rng, n)
        for p in range(n):
            b = flip(a, p)
            assert autocorr_via_blocks(a, b) == one_column_acorr(n, a[p])
            assert autocorr_via_blocks(b, a) == one_column_acorr(n, b[p])

    def test_one_unequal_column_m16(self):
        a = m_sequence(make_field(16))
        n = a.period
        positions = [0, 1, 2, 15, 16, n // 2, n - 2, n - 1]
        assert {a[p] for p in positions} == {0, 1}
        for p in positions:
            b = flip(a, p)
            assert autocorr_via_blocks(a, b) == one_column_acorr(n, a[p])
            assert autocorr_via_blocks(b, a) == one_column_acorr(n, b[p])

    @settings(max_examples=400)
    @given(bit_lists, st.data())
    def test_random_and_near_equal_pairs(self, bits_a, data):
        n = len(bits_a)
        if data.draw(st.booleans()):
            flips = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
            bits_b = [bit ^ (i in flips) for i, bit in enumerate(bits_a)]
        else:
            bits_b = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        pair = distinct_pair(bits_a, bits_b)
        if pair is None:
            return
        a, b = pair
        assert autocorr_via_blocks(a, b) == blocks_from_counts(a, b) == eq1_direct(a, b)

    def test_only_01_columns_falls_back(self):
        # a <= b everywhere with at least one strict (0,1) column
        a = BinarySequence.from_string("0011")
        b = BinarySequence.from_string("1011")
        assert autocorr_via_blocks(a, b) == eq1_direct(a, b)

    @settings(max_examples=400)
    @given(bit_lists, st.data())
    def test_matches_direct_route(self, bits_a, data):
        bits_b = data.draw(st.lists(st.integers(0, 1), min_size=len(bits_a), max_size=len(bits_a)))
        pair = distinct_pair(bits_a, bits_b)
        if pair is None:
            return
        a, b = pair
        assert autocorr_via_blocks(a, b) == eq1_direct(a, b)

    @settings(max_examples=100)
    @given(bit_lists, st.data())
    def test_matrix_shift_invariance(self, bits_a, data):
        bits_b = data.draw(st.lists(st.integers(0, 1), min_size=len(bits_a), max_size=len(bits_a)))
        pair = distinct_pair(bits_a, bits_b)
        if pair is None:
            return
        a, b = pair
        base = autocorr_via_blocks(a, b)
        t = data.draw(st.integers(0, a.period - 1))
        assert autocorr_via_blocks(a.shift(t), b.shift(t)) == base


@pytest.mark.parametrize("m", range(2, 13))
def test_sum_rules_for_m_sequences(m):
    # per-side totals over l both equal 2^(m-2)
    seq = m_sequence(make_field(m))
    quarter = 1 << (m - 2)
    for tau in range(1, seq.period):
        table = block_type_counts(seq, seq.shift(tau))
        top = sum(c for (alpha, _, _), c in table.items() if alpha == 1)
        bottom = sum(c for (alpha, _, _), c in table.items() if alpha == 0)
        assert top == quarter
        assert bottom == quarter
