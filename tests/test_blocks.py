import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcorr import blocks, errors
from arithcorr.arith import arithmetic_autocorrs
from arithcorr.blocks import autocorr_via_blocks, autocorrs_via_blocks, block_type_counts
from arithcorr.gf2m import find_primitive_polynomials, make_field
from arithcorr.sequences import BinarySequence, m_sequence
from conftest import (
    ALL_SHIFT_FIELDS,
    BAD_TAU_LISTS_N7,
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
    return (a, b) if a != b else None


def flip(seq: BinarySequence, p: int) -> BinarySequence:
    bits = list(seq)
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
        a = BinarySequence("1111")
        b = BinarySequence("0000")
        table = block_type_counts(a, b)
        assert all(l == 0 for (_, _, l) in table)
        assert sum(table.values()) == 4

    # a single unequal column is the longest gap, n-1, and its window wraps
    # onto itself: rot(x, n) == x
    @pytest.mark.parametrize("a, b", [("10", "11"), ("0110", "0100"), ("1011001", "0011001"), ("0" * 64, "0" * 63 + "1")])
    def test_one_unequal_column(self, a, b):
        a, b = BinarySequence(a), BinarySequence(b)
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
        seq = BinarySequence("1010")
        with pytest.raises(errors.EqualSequences):
            block_type_counts(seq, seq)

    def test_period_mismatch_rejected(self):
        with pytest.raises(errors.PeriodMismatch):
            block_type_counts(BinarySequence("101"), BinarySequence("1011"))

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
        unequal = sum(1 for x, y in zip(a, b) if x != y)
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
        seq = BinarySequence("1010")
        with pytest.raises(errors.EqualSequences):
            autocorr_via_blocks(seq, seq)

    def test_period_mismatch_rejected(self):
        with pytest.raises(errors.PeriodMismatch):
            autocorr_via_blocks(BinarySequence("101"), BinarySequence("1011"))

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
        positions = [0, 1, 2, 15, 16, n // 2, n - 2, n - 1, str(a).index("1")]
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
        a = BinarySequence("0011")
        b = BinarySequence("1011")
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


class TestAutocorrsViaBlocks:
    """The all-shifts loop against the per-pair call as its oracle."""

    @staticmethod
    def forbid(monkeypatch, name):
        """Make blocks.<name> fail the test when called."""
        def fail(*args):
            raise AssertionError(f"blocks.{name} called")

        monkeypatch.setattr(blocks, name, fail)

    @staticmethod
    def warm_ups(monkeypatch):
        """The warm-up width of each scan, in call order."""
        scan, seen = blocks._scan, []

        def spy(v, n, warm):
            seen.append(warm)
            return scan(v, n, warm)

        monkeypatch.setattr(blocks, "_scan", spy)
        return seen

    @pytest.mark.parametrize("m, poly", ALL_SHIFT_FIELDS)
    def test_matches_per_pair(self, m, poly):
        seq = m_sequence(make_field(m, poly))
        taus = range(1, seq.period)
        assert list(autocorrs_via_blocks(seq, taus)) == [autocorr_via_blocks(seq, seq.shift(tau)) for tau in taus]

    def test_spread_taus_m15(self, monkeypatch):
        # 66 taus, below n/4: one pair kernel each, and no scan
        seq = m_sequence(make_field(15))
        n = seq.period
        taus = sorted({*range(1, n, (n - 1) // 64), n - 1})
        assert len(taus) == 66
        expected = [autocorr_via_blocks(seq, seq.shift(tau)) for tau in taus]
        self.forbid(monkeypatch, "_scan")
        assert list(autocorrs_via_blocks(seq, taus)) == expected

    def test_empty_taus(self):
        assert list(autocorrs_via_blocks(BinarySequence("1001011"), [])) == []

    # period 4 from the block 01, period 6 from the block 110: a shift by the
    # block length equals the sequence
    @pytest.mark.parametrize("bits", ["0101", "110110"])
    def test_raises_like_per_pair(self, bits):
        seq = BinarySequence(bits)
        taus = range(1, seq.period)
        with pytest.raises(errors.ArithCorrError) as one:
            for tau in taus:
                autocorr_via_blocks(seq, seq.shift(tau))
        with pytest.raises(errors.ArithCorrError) as every:
            autocorrs_via_blocks(seq, taus)
        assert type(every.value) is type(one.value) is errors.EqualSequences

    # fewer than n/4 taus run the pair kernel: of period 12 from the block 110,
    # a shift by 3 or 9 equals the sequence, and 1 and 2 do not
    @pytest.mark.parametrize("taus, equal", [([3], True), ([1, 9], True), ([2, 1], False)])
    def test_few_taus_raise_like_per_pair(self, taus, equal, monkeypatch):
        seq = BinarySequence("110" * 4)
        self.forbid(monkeypatch, "_scan")
        if equal:
            with pytest.raises(errors.EqualSequences):
                autocorrs_via_blocks(seq, taus)
        else:
            assert list(autocorrs_via_blocks(seq, taus)) == [eq1_direct(seq, seq.shift(tau)) for tau in taus]

    @pytest.mark.parametrize("taus", BAD_TAU_LISTS_N7)
    def test_bad_tau_rejected(self, taus):
        with pytest.raises(errors.TauOutOfRange):
            autocorrs_via_blocks(m_sequence(make_field(3)), taus)

    # every n mod 4, and sequences whose shifts by a multiple of a proper divisor
    # of n equal them; sparse and dense periods leave long runs of equal
    # columns, so that many taus meet no unequal column in the warm-up
    @pytest.mark.parametrize("residue", range(4))
    @settings(max_examples=75, deadline=None)
    @given(st.sampled_from(["random", "sparse", "dense", "periodic"]), st.data())
    def test_scan_matches_per_pair(self, residue, kind, data):
        # n = 4k + residue in 2..300
        n = data.draw(st.integers(1 if residue < 2 else 0, (300 - residue) // 4).map(lambda k: 4 * k + residue))
        if kind == "random":
            bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        elif kind == "periodic":
            d = data.draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
            bits = data.draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)) * (n // d)
        else:
            few = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
            bits = [(i in few) ^ (kind == "dense") for i in range(n)]
        seq = BinarySequence(bits)
        if data.draw(st.booleans()):
            taus = range(1, n)
        else:
            taus = data.draw(st.permutations(range(1, n)))[: data.draw(st.integers(-(-n // 4), n - 1))]
        shifts = [seq.shift(tau) for tau in taus]
        if seq in shifts:
            with pytest.raises(errors.EqualSequences):
                autocorrs_via_blocks(seq, taus)
            return
        per_pair = [autocorr_via_blocks(seq, b) for b in shifts]
        assert list(autocorrs_via_blocks(seq, taus)) == per_pair == [eq1_direct(seq, b) for b in shifts]

    def test_every_tau_never_runs_the_pair_kernel(self, monkeypatch):
        seq = m_sequence(make_field(12))
        taus = range(1, seq.period)
        expected = arithmetic_autocorrs(seq, taus)
        self.forbid(monkeypatch, "_acorr")
        assert autocorrs_via_blocks(seq, taus) == expected

    def test_both_sides_of_the_crossover_agree(self, monkeypatch, rng):
        # n = 40: 10 taus scan every lane, 9 run the pair kernel once each
        seq = BinarySequence("1101" + "0" * 35 + "1")
        taus = rng.sample(range(1, 40), 10)
        expected = [eq1_direct(seq, seq.shift(tau)) for tau in taus]
        warms = self.warm_ups(monkeypatch)
        assert list(autocorrs_via_blocks(seq, taus)) == expected
        assert warms == [6]
        assert list(autocorrs_via_blocks(seq, taus[:9])) == expected[:9]
        assert warms == [6]

    def test_widens_taus_without_an_early_unequal_column(self, monkeypatch):
        # n = 16, warm-up 5: x has ones at columns 15 and 15 - tau, so taus
        # 1..10 meet none among the first 5 columns and the scan runs again
        # with a warm-up of n; taus 11..15 alone need no second scan
        seq = BinarySequence("0" * 15 + "1")
        taus = range(1, 16)
        expected = [eq1_direct(seq, seq.shift(tau)) for tau in taus]
        seen = self.warm_ups(monkeypatch)
        assert list(autocorrs_via_blocks(seq, taus)) == expected
        assert seen == [5, 16]
        assert list(autocorrs_via_blocks(seq, taus[10:])) == expected[10:]
        assert seen == [5, 16, 5]

    @pytest.mark.parametrize("m", range(2, 11))
    def test_m_sequences_never_widen(self, m, monkeypatch):
        # s ^ rot(s, tau) is a shift of the m-sequence, which has no run of m
        # zeros, so the first m = n.bit_length() columns always hold an unequal column
        seq = m_sequence(make_field(m))
        seen = self.warm_ups(monkeypatch)
        autocorrs_via_blocks(seq, range(1, seq.period))
        assert seen == [m]


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
