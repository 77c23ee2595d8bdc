import contextlib
import io
import json
import os
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcorr import arith, blocks, cli, closedform
from arithcorr.cli import main
from arithcorr.gf2m import make_field
from arithcorr.sequences import BinarySequence, m_sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def closed_off_at(monkeypatch, *bad_taus):
    """Make the closed route's all-shift loop, which acorr and verify call, read one
    more than the closed form at each of bad_taus."""
    predict = closedform.predict_acorrs

    def off(ctx, taus):
        return array("i", (value + (tau in bad_taus) for tau, value in zip(taus, predict(ctx, taus))))

    monkeypatch.setattr(closedform, "predict_acorrs", off)


class TestGen:
    def test_m3_bits(self, capsys):
        code, out, _ = run(capsys, "gen", "--m", "3")
        assert code == 0
        assert out == "1001011\n"

    def test_m2_bits(self, capsys):
        code, out, _ = run(capsys, "gen", "--m", "2")
        assert code == 0
        assert out == "011\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "gen", "--m", "2", "--format", "csv")
        assert code == 0
        assert out == "lambda,bit\n0,0\n1,1\n2,1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gen", "--m", "3", "--json")
        doc = json.loads(out)
        assert (code, doc["bits"], doc["n"], doc["poly"]) == (0, "1001011", 7, "3,1,0")

    def test_degree_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "--m", "4", "--poly", "3,1,0")
        assert code == 2
        assert "DegreeMismatch" in err

    def test_reducible_poly_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "--m", "4", "--poly", "4,2,0")
        assert code == 2
        assert "NotIrreducible" in err

    @pytest.mark.parametrize("poly", ["4000000,0", "0x" + "f" * 200_000])
    def test_huge_degree_exits_2_promptly(self, capsys, poly):
        start = time.perf_counter()
        code, _, err = run(capsys, "gen", "--m", "5", "--poly", poly)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "DegreeOutOfRange" in err

    @pytest.mark.parametrize("poly", ["0x0", "0x000"])
    def test_zero_poly_named(self, capsys, poly):
        code, out, err = run(capsys, "gen", "--m", "3", "--poly", poly)
        assert (code, out) == (2, "")
        assert err == f"error: PolynomialFormatError: zero polynomial '{poly}'\n"

    def test_long_bad_poly_error_is_short(self, capsys):
        code, _, err = run(capsys, "gen", "--m", "3", "--poly", "9" * 5000 + ",0")
        assert code == 2
        assert "PolynomialFormatError" in err
        assert len(err.encode()) < 300

    def test_format_excludes_json(self, capsys):
        code, out, err = run(capsys, "gen", "--m", "3", "--json", "--format", "csv")
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err

    def test_poly_table_env_is_ignored(self, capsys, tmp_path, monkeypatch):
        # the modulus is named only by --poly; no environment variable is read
        table = tmp_path / "polys.txt"
        table.write_text("1,1,0\n")
        monkeypatch.setenv("ARITHCORR_POLY_TABLE", str(table))
        assert run(capsys, "gen", "--m", "3") == (0, "1001011\n", "")


class TestAcorr:
    def test_single_tau_all_methods(self, capsys):
        code, out, _ = run(capsys, "acorr", "--m", "3", "--tau", "5", "--method", "all")
        assert code == 0
        assert out == "5,3,3,3\n"

    def test_all_taus_direct(self, capsys):
        code, out, _ = run(capsys, "acorr", "--m", "3", "--all", "--method", "direct")
        assert code == 0
        assert out == "1,-1\n2,-3\n3,1\n4,-1\n5,3\n6,1\n"

    def test_tau_zero_exits_2(self, capsys):
        code, _, err = run(capsys, "acorr", "--m", "3", "--tau", "0")
        assert code == 2
        assert "TauOutOfRange" in err

    @pytest.mark.parametrize("tau", [0, 7])
    def test_tau_out_of_range_same_for_every_method(self, capsys, tau):
        for method in ["direct", "blocks", "closed", "all"]:
            code, out, err = run(capsys, "acorr", "--m", "3", "--tau", str(tau), "--method", method)
            assert (code, out) == (2, "")
            assert err == f"error: TauOutOfRange: tau={tau} outside 1..6\n"

    @pytest.mark.parametrize("command", ["acorr", "dist"])
    def test_threads_is_unknown(self, capsys, command):
        argv = [command, "--m", "3", "--threads", "2"] + (["--all"] if command == "acorr" else [])
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "--threads" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "acorr", "--m", "3", "--tau", "1", "--method", "all", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "pass"
        assert doc["rows"] == [{"tau": 1, "direct": -1, "blocks": -1, "closed": -1}]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_rows_written_in_slices(self, capsys, monkeypatch, as_json):
        # m = 4 has 14 taus: slices of 4, 4, 4 and 2 rows give the text of one slice
        argv = ["acorr", "--m", "4", "--all", "--method", "all"] + (["--json"] if as_json else [])
        _, whole, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "_ROW_SLICE", 4)
        code, sliced, _ = run(capsys, *argv)
        assert (code, sliced) == (0, whole)
        if as_json:
            assert whole == json.dumps(json.loads(whole)) + "\n"
        else:
            assert whole.splitlines()[::13] == ["1,-1,-1,-1", "14,1,1,1"]

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        closed_off_at(monkeypatch, 2)
        code, out, _ = run(capsys, "acorr", "--m", "3", "--all", "--method", "all", "--json")
        doc = json.loads(out)
        assert (code, doc["status"]) == (1, "fail")
        assert doc["rows"][1] == {"tau": 2, "direct": -3, "blocks": -3, "closed": -2}


class TestDist:
    def test_m3_check(self, capsys):
        code, out, _ = run(capsys, "dist", "--m", "3", "--check")
        assert code == 0
        assert out == "-3,1\n-1,2\n1,2\n3,1\ncheck,pass\n"

    def test_m4_check(self, capsys):
        code, out, _ = run(capsys, "dist", "--m", "4", "--check")
        assert code == 0
        assert out.endswith("check,pass\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dist", "--m", "4", "--check", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["check"] == "pass"
        assert doc["distribution"]["7"] == 1

    @pytest.mark.parametrize("m, route", [(14, "direct"), (15, "blocks")])
    def test_reads_the_exhaustive_route(self, capsys, monkeypatch, m, route):
        # dist counts the column verify's distribution row reads: direct up to m = 14, blocks above
        calls = []
        for module, name, key in [(arith, "arithmetic_autocorrs", "direct"), (blocks, "autocorrs_via_blocks", "blocks")]:
            bulk = getattr(module, name)
            monkeypatch.setattr(module, name, lambda seq, taus, key=key, bulk=bulk: calls.append(key) or bulk(seq, taus))
        code, out, _ = run(capsys, "dist", "--m", str(m), "--check")
        assert (code, out.splitlines()[-1], calls) == (0, "check,pass", [route])


# each bad `verify --m-range` and the one error line it gives
BAD_M_RANGES = {
    "5": "RangeFormatError: malformed m-range '5', expected A..B",
    "5..": "RangeFormatError: malformed m-range '5..', expected A..B",
    "a..b": "RangeFormatError: malformed m-range 'a..b', expected A..B",
    "1..3": "DegreeOutOfRange: m=1 outside 2..24",
    "9..8": "RangeFormatError: empty m-range '9..8', expected A <= B",
    "2..25": "DegreeOutOfRange: m=25 outside 2..24",
}


# an over-long integer input, by the option that takes it, and the one error
# line it gives: the value is quoted by its first 40 characters
NINES = "9" * 300
LONG_INT_ERRORS = {
    "m-range": (["verify", "--m-range", f"2..{NINES}"], f"DegreeOutOfRange: m={NINES[:40]}... outside 2..24"),
    "m": (["gen", "--m", NINES], f"DegreeOutOfRange: m={NINES[:40]}... outside 2..24"),
    "poly": (["gen", "--m", "3", "--poly", NINES], f"DegreeOutOfRange: exponent {NINES[:40]}... above 24"),
    "tau": (["acorr", "--m", "3", "--tau", NINES], f"TauOutOfRange: tau={NINES[:40]}... outside 1..6"),
}


@pytest.mark.parametrize("argv, line", LONG_INT_ERRORS.values(), ids=LONG_INT_ERRORS.keys())
def test_long_int_error_quotes_a_prefix(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


class TestVerify:
    def test_small_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-range", "2..5")
        assert code == 0
        assert out.endswith("status,pass\n")

    def test_all_polys(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-range", "3..4", "--polys", "all")
        assert code == 0
        # two primitive polynomials exist for each of m=3 and m=4
        assert out.count("three_way") == 4

    def test_poly_rows_match_polys_all(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-range", "3..3", "--poly", "3,2,0", "--json")
        _, all_out, _ = run(capsys, "verify", "--m-range", "3..3", "--polys", "all", "--json")
        doc = json.loads(out)
        rows = doc["rows"]
        assert code == 0
        assert doc["parameters"] == {"m_range": "3..3", "polys": "default", "poly": "3,2,0"}
        assert json.loads(all_out)["parameters"]["poly"] is None
        assert len(rows) == 4
        assert rows == [r for r in json.loads(all_out)["rows"] if r["poly"] == "0xd"]

    def test_poly_of_other_degree_exits_2(self, capsys, monkeypatch):
        # the --poly fields are built before the first check, so m = 3 is not verified
        calls = []
        monkeypatch.setattr(cli, "_verify_field", lambda *args: calls.append(args))
        code, out, err = run(capsys, "verify", "--m-range", "3..4", "--poly", "3,2,0")
        assert (code, out, calls) == (2, "", [])
        assert err == "error: DegreeMismatch: polynomial 3,2,0 has degree 3, expected 4\n"

    def test_poly_excludes_polys(self, capsys):
        for polys in ("all", "default"):
            code, out, err = run(capsys, "verify", "--m-range", "3..3", "--poly", "3,2,0", "--polys", polys)
            assert (code, out) == (2, "")
            assert "not allowed with argument" in err

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-range", "2..3", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "pass"
        assert doc["mismatches"] == []

    @pytest.mark.parametrize("bad", list(BAD_M_RANGES))
    def test_malformed_range_exits_2(self, capsys, bad):
        code, out, err = run(capsys, "verify", "--m-range", bad)
        assert (code, out) == (2, "")
        assert err == f"error: {BAD_M_RANGES[bad]}\n"

    # blocks and closed run at every tau at every m; m = 14 is the last degree
    # with the direct route at every tau, m = 15 samples it at 66 of its 32766
    # taus; m = 17 (slow) is the first degree with 'I'-typecode Zech tables
    @pytest.mark.parametrize(
        "m, direct, sampled",
        [(5, 30, False), (14, 16382, False), (15, 66, True), pytest.param(17, 66, True, marks=pytest.mark.slow)],
    )
    def test_three_way_coverage(self, capsys, m, direct, sampled):
        code, out, _ = run(capsys, "verify", "--m-range", f"{m}..{m}", "--json")
        doc = json.loads(out)
        (row,) = [r for r in doc["rows"] if r["check"] == "three_way"]
        n = (1 << m) - 1
        assert (code, doc["status"]) == (0, "pass")
        assert row["taus_checked"] == {"direct": direct, "blocks": n - 1, "closed": n - 1}
        assert row["sampled"] is sampled

    def test_distribution_source(self, capsys):
        # the distribution reads the route that runs at every tau: direct up to m = 14, blocks above
        code, out, _ = run(capsys, "verify", "--m-range", "14..15", "--json")
        doc = json.loads(out)
        assert (code, doc["status"]) == (0, "pass")
        sources = {r["m"]: r["distribution_source"] for r in doc["rows"] if r["check"] == "distribution"}
        assert sources == {14: "direct", 15: "blocks"}
        assert all("distribution_source" not in r for r in doc["rows"] if r["check"] != "distribution")

    def test_counting_stops_after_m8(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-range", "8..9", "--json")
        doc = json.loads(out)
        assert (code, doc["status"]) == (0, "pass")
        assert [r["m"] for r in doc["rows"] if r["check"] == "counting"] == [8]
        assert sorted({r["m"] for r in doc["rows"]}) == [8, 9]
        # lemma 1's pattern counts run with the counting check
        assert [(r["m"], r["patterns_checked"]) for r in doc["rows"] if r["check"] == "lemma1"] == [
            (8, True),
            (9, False),
        ]

    def test_three_way_csv_unchanged(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-range", "5..5")
        assert code == 0
        assert out.splitlines()[:2] == ["check,m,poly,status", "three_way,5,0x25,pass"]

    def test_direct_route_once_per_tau(self, capsys, monkeypatch):
        # the direct route runs once per field, over every tau; only the
        # counting check reads block counts, once per tau; the blocks route
        # computes g without them
        calls = {"direct": [], "blocks": 0}
        direct, counts = arith.arithmetic_autocorrs, blocks.block_type_counts

        def counted_direct(seq, taus):
            calls["direct"].append(list(taus))
            return direct(seq, taus)

        def counted_blocks(a, b):
            calls["blocks"] += 1
            return counts(a, b)

        monkeypatch.setattr(arith, "arithmetic_autocorrs", counted_direct)
        monkeypatch.setattr(blocks, "block_type_counts", counted_blocks)
        code, _, _ = run(capsys, "verify", "--m-range", "5..5")
        assert code == 0
        assert calls["direct"] == [list(range(1, 31))]
        assert calls["blocks"] == 30

    @pytest.fixture
    def broken_routes(self, monkeypatch):
        """Closed form off at tau = 2, classical autocorrelation at tau = 3,
        and the eq. (4) count at tau = 4, l = 2, in every field."""
        classical, lemma4 = BinarySequence.classical_autocorrs, closedform.lemma4_count

        def broken_classical(self):
            corrs = classical(self)
            corrs[3] += 1
            return corrs

        closed_off_at(monkeypatch, 2)
        monkeypatch.setattr(BinarySequence, "classical_autocorrs", broken_classical)
        monkeypatch.setattr(
            closedform, "lemma4_count", lambda ctx, tau, l: lemma4(ctx, tau, l) + ((tau, l) == (4, 2))
        )

    def test_failing_run_csv_frozen(self, capsys, broken_routes):
        code, out, err = run(capsys, "verify", "--m-range", "3..5")
        assert (code, err) == (1, "")
        assert out == FAILING_VERIFY_CSV

    def test_failing_run_json_frozen(self, capsys, broken_routes):
        code, out, err = run(capsys, "verify", "--m-range", "3..5", "--json")
        assert (code, err) == (1, "")
        assert out == json.dumps(FAILING_VERIFY_DOC) + "\n"

    def test_failing_counting_pattern_distribution_frozen(self, capsys, monkeypatch):
        predict, weighted = closedform.predict_distribution, closedform.weighted_sum
        pattern_count, counts = BinarySequence.pattern_count, blocks.block_type_counts

        def extra_window(a, b):
            # a window with no interior columns leaves g, and so the blocks
            # route, unchanged, but the eq. (4) windows no longer sum to 2^(m-2)
            c = counts(a, b)
            return {**c, (0, 0): c.get((0, 0), 0) + 1} if b == a.shift(3) else c

        monkeypatch.setattr(closedform, "weighted_sum", lambda ctx, tau: weighted(ctx, tau) + (tau == 5))
        monkeypatch.setattr(BinarySequence, "pattern_count", lambda self, p: pattern_count(self, p) + (p == (1, 1)))
        monkeypatch.setattr(blocks, "block_type_counts", extra_window)
        monkeypatch.setattr(closedform, "predict_distribution", lambda m: predict(m) if m == 3 else {})
        code, out, err = run(capsys, "verify", "--m-range", "3..4")
        assert (code, err) == (1, "")
        assert out == FAILING_COUNTS_CSV

    def test_antisymmetry_failure_recorded(self, capsys, monkeypatch):
        # with the sign of A(12) flipped at m = 4 (n = 15), A(15 - 3) = -A(3)
        # fails once, reported at the smaller tau
        direct = arith.arithmetic_autocorr
        directs = arith.arithmetic_autocorrs

        def flipped_at_12(seq, taus):
            values = directs(seq, taus)
            for i, tau in enumerate(taus):
                if tau == 12:
                    values[i] = -values[i]
            return values

        monkeypatch.setattr(arith, "arithmetic_autocorrs", flipped_at_12)
        code, out, err = run(capsys, "verify", "--m-range", "4..4", "--json")
        doc = json.loads(out)
        assert (code, err) == (1, "")
        (row,) = [r for r in doc["rows"] if r["check"] == "distribution"]
        assert row["status"] == "fail"
        a3 = direct(m_sequence(make_field(4)), 3)
        assert [r for r in doc["mismatches"] if r["check"] == "antisymmetry"] == [
            {"check": "antisymmetry", "m": 4, "poly": "0x13", "tau": 3, "direct": a3, "mirror": a3}
        ]

    def test_blocks_failure_recorded(self, capsys, monkeypatch):
        via_blocks = blocks.autocorrs_via_blocks

        def off_at_3(seq, taus):
            values = via_blocks(seq, taus)
            for i, tau in enumerate(taus):
                values[i] += tau == 3
            return values

        monkeypatch.setattr(blocks, "autocorrs_via_blocks", off_at_3)
        code, out, err = run(capsys, "verify", "--m-range", "4..4", "--json")
        a3 = arith.arithmetic_autocorr(m_sequence(make_field(4)), 3)
        assert (code, err) == (1, "")
        assert json.loads(out)["mismatches"] == [
            {"check": "three_way", "m": 4, "poly": "0x13", "tau": 3, "direct": a3, "blocks": a3 + 1, "closed": a3}
        ]

    def test_direct_null_where_not_run(self, capsys, monkeypatch):
        # m = 15 samples the direct route at 1, 512, 1023, ...: tau = 2 is not among them
        closed_off_at(monkeypatch, 2, 512)
        code, out, _ = run(capsys, "verify", "--m-range", "15..15", "--json")
        records = json.loads(out)["mismatches"]
        assert code == 1
        assert [(r["tau"], r["direct"] == r["blocks"], r["direct"] is None) for r in records] == [
            (2, False, True),
            (512, True, False),
        ]

    def test_blocks_failure_recorded_above_m14(self, capsys, monkeypatch):
        # at m = 15 blocks is the exhaustive column: one wrong value fails the
        # three-way check, the distribution and, at 32767 - 512, antisymmetry
        via_blocks = blocks.autocorrs_via_blocks

        def off_at_512(seq, taus):
            values = via_blocks(seq, taus)
            for i, tau in enumerate(taus):
                values[i] += tau == 512
            return values

        monkeypatch.setattr(blocks, "autocorrs_via_blocks", off_at_512)
        code, out, err = run(capsys, "verify", "--m-range", "15..15", "--json")
        doc = json.loads(out)
        a = arith.arithmetic_autocorr(m_sequence(make_field(15)), 512)
        assert (code, err) == (1, "")
        (row,) = [r for r in doc["rows"] if r["check"] == "distribution"]
        assert (row["status"], row["distribution_source"]) == ("fail", "blocks")
        poly = row["poly"]
        assert doc["mismatches"] == [
            {"check": "three_way", "m": 15, "poly": poly, "tau": 512, "direct": a, "blocks": a + 1, "closed": a},
            {"check": "distribution", "m": 15, "poly": poly},
            {"check": "antisymmetry", "m": 15, "poly": poly, "tau": 512, "blocks": a + 1, "mirror": -a},
        ]


# `verify --m-range 3..5` with the routes broken as in `broken_routes`
FAILING_VERIFY_CSV = """\
check,m,poly,status
three_way,3,0xb,fail
lemma1,3,0xb,fail
counting,3,0xb,fail
distribution,3,0xb,pass
three_way,4,0x13,fail
lemma1,4,0x13,fail
counting,4,0x13,fail
distribution,4,0x13,pass
three_way,5,0x25,fail
lemma1,5,0x25,fail
counting,5,0x25,fail
distribution,5,0x25,pass
mismatch,check=three_way;m=3;poly=0xb;tau=2;direct=-3;blocks=-3;closed=-2
mismatch,check=classical;m=3;poly=0xb;tau=3
mismatch,check=closed_count;m=3;poly=0xb;tau=4;l=2
mismatch,check=three_way;m=4;poly=0x13;tau=2;direct=1;blocks=1;closed=2
mismatch,check=classical;m=4;poly=0x13;tau=3
mismatch,check=closed_count;m=4;poly=0x13;tau=4;l=2
mismatch,check=three_way;m=5;poly=0x25;tau=2;direct=1;blocks=1;closed=2
mismatch,check=classical;m=5;poly=0x25;tau=3
mismatch,check=closed_count;m=5;poly=0x25;tau=4;l=2
status,fail
"""

# `verify --m-range 3..4` with the counts, one pattern count and the m = 4
# distribution broken as in `test_failing_counting_pattern_distribution_frozen`
FAILING_COUNTS_CSV = """\
check,m,poly,status
three_way,3,0xb,pass
lemma1,3,0xb,fail
counting,3,0xb,fail
distribution,3,0xb,pass
three_way,4,0x13,pass
lemma1,4,0x13,fail
counting,4,0x13,fail
distribution,4,0x13,fail
mismatch,check=pattern;m=3;poly=0xb;pattern=11;expected=2;got=3
mismatch,check=count_sums;m=3;poly=0xb;tau=3
mismatch,check=weighted_sum;m=3;poly=0xb;tau=5
mismatch,check=pattern;m=4;poly=0x13;pattern=11;expected=4;got=5
mismatch,check=count_sums;m=4;poly=0x13;tau=3
mismatch,check=weighted_sum;m=4;poly=0x13;tau=5
mismatch,check=distribution;m=4;poly=0x13
status,fail
"""

FAILING_VERIFY_DOC = {
    "command": "verify",
    "parameters": {"m_range": "3..5", "polys": "default", "poly": None},
    "rows": [
        {"check": "three_way", "m": 3, "poly": "0xb", "status": "fail",
         "taus_checked": {"direct": 6, "blocks": 6, "closed": 6}, "sampled": False},
        {"check": "lemma1", "m": 3, "poly": "0xb", "status": "fail", "patterns_checked": True},
        {"check": "counting", "m": 3, "poly": "0xb", "status": "fail"},
        {"check": "distribution", "m": 3, "poly": "0xb", "status": "pass", "distribution_source": "direct"},
        {"check": "three_way", "m": 4, "poly": "0x13", "status": "fail",
         "taus_checked": {"direct": 14, "blocks": 14, "closed": 14}, "sampled": False},
        {"check": "lemma1", "m": 4, "poly": "0x13", "status": "fail", "patterns_checked": True},
        {"check": "counting", "m": 4, "poly": "0x13", "status": "fail"},
        {"check": "distribution", "m": 4, "poly": "0x13", "status": "pass", "distribution_source": "direct"},
        {"check": "three_way", "m": 5, "poly": "0x25", "status": "fail",
         "taus_checked": {"direct": 30, "blocks": 30, "closed": 30}, "sampled": False},
        {"check": "lemma1", "m": 5, "poly": "0x25", "status": "fail", "patterns_checked": True},
        {"check": "counting", "m": 5, "poly": "0x25", "status": "fail"},
        {"check": "distribution", "m": 5, "poly": "0x25", "status": "pass", "distribution_source": "direct"},
    ],
    "mismatches": [
        {"check": "three_way", "m": 3, "poly": "0xb", "tau": 2, "direct": -3, "blocks": -3, "closed": -2},
        {"check": "classical", "m": 3, "poly": "0xb", "tau": 3},
        {"check": "closed_count", "m": 3, "poly": "0xb", "tau": 4, "l": 2},
        {"check": "three_way", "m": 4, "poly": "0x13", "tau": 2, "direct": 1, "blocks": 1, "closed": 2},
        {"check": "classical", "m": 4, "poly": "0x13", "tau": 3},
        {"check": "closed_count", "m": 4, "poly": "0x13", "tau": 4, "l": 2},
        {"check": "three_way", "m": 5, "poly": "0x25", "tau": 2, "direct": 1, "blocks": 1, "closed": 2},
        {"check": "classical", "m": 5, "poly": "0x25", "tau": 3},
        {"check": "closed_count", "m": 5, "poly": "0x25", "tau": 4, "l": 2},
    ],
    "status": "fail",
}


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "dist", "--m", "6", "--check")
    _, second, _ = run(capsys, "dist", "--m", "6", "--check")
    assert first == second


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "exc",
    [
        # a reader that closed stdout early, as in `arithcorr gen --m 20 | head -c 5`
        pytest.param(BrokenPipeError(32, "Broken pipe"), id="broken-pipe"),
        # a full device, as in `arithcorr gen --m 20 > /dev/full`
        pytest.param(OSError(28, "No space left on device"), id="no-space"),
    ],
)
def test_stdout_oserror_exits_2(capsys, monkeypatch, exc):
    class FailingStdout(io.StringIO):
        def write(self, text):
            raise exc

    monkeypatch.setattr(sys, "stdout", FailingStdout())
    assert main(["gen", "--m", "3"]) == 2
    assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.parametrize("command", ["gen", "acorr", "dist", "verify"])
def test_help_exits_0(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: arithcorr {command}")
    if command == "verify":
        # argparse wraps the help at the terminal's width
        assert "above m = 17 the blocks scan at every tau dominates" in " ".join(out.split())


def test_internal_error_exits_3(capsys, monkeypatch):
    def bug(ctx, taus):
        raise RuntimeError("a bug")

    monkeypatch.setattr(closedform, "predict_acorrs", bug)
    code, out, err = run(capsys, "verify", "--m-range", "3..3")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and err.endswith("RuntimeError: a bug\n")


def test_pure_python_decimal_exits_3():
    # without the C _decimal module, _pydecimal raises ValueError on lemma 1's
    # product from a period of 718: a fault of the interpreter, not a mismatch
    code = "import sys; sys.modules['_decimal'] = None; from arithcorr.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(arith.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--m-range", "10..10"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" in proc.stderr and "ValueError" in proc.stderr


def test_module_entry_point():
    # `python -m arithcorr.cli` runs entry() under the __main__ check, as the console script does
    env = {**os.environ, "PYTHONPATH": str(Path(arith.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "arithcorr.cli", "gen", "--m", "3"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1001011\n", "")


def run_quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


poly_texts = st.text(max_size=30) | st.from_regex(
    r"(0x[0-9a-fA-F]{0,8}|[0-9]{1,8}(,[0-9]{1,3}){0,4})", fullmatch=True
)


@settings(max_examples=60, deadline=None)
@given(poly_texts)
def test_fuzz_poly_argument(text):
    assert run_quiet(["gen", "--m", "3", "--poly", text]) in (0, 2)


small_ints = st.integers(-2, 8).map(str)
# Arabic-Indic and fullwidth digits, which int() reads as 2..7
non_ascii_digits = st.sampled_from("٢٣٤٥٦٧２３４５６７")
numbers = (
    small_ints
    | st.integers(25, 10**30).map(str)
    | non_ascii_digits
    | st.sampled_from(["", "x", "0x", "0xZZ", "3.5", "1e3", "--"])
)
poly_args = numbers | st.sampled_from(["0xB", "0x13", "3,1,0", "4,1,0", "4,2,0", "3,3", "1000,0", "0xg"])
ranges = st.builds("{}..{}".format, small_ints | non_ascii_digits, small_ints | non_ascii_digits)
m_ranges = ranges | ranges | numbers | st.sampled_from(["..", "2..", "..3", "2...4"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["gen", "acorr", "dist", "verify", "bogus"]))
    argv = [command]

    def maybe(*flag, values=None, odds=1):
        # leave the flag out one time in odds + 1
        if draw(st.integers(0, odds)):
            argv.extend(flag if values is None else [*flag, draw(values)])

    if command == "verify":
        maybe("--m-range", values=m_ranges, odds=9)
        maybe("--polys", values=st.sampled_from(["default", "all", "some"]))
    else:
        maybe("--m", values=numbers, odds=9)
    maybe("--poly", values=poly_args)
    if command == "gen":
        maybe("--format", values=st.sampled_from(["bits", "csv", "xml"]))
    if command == "acorr":
        argv.extend(draw(st.sampled_from([["--all"], ["--tau"], ["--all", "--tau"], []])))
        if argv[-1] == "--tau":
            argv.append(draw(numbers))
        maybe("--method", values=st.sampled_from(["direct", "blocks", "closed", "all", "none"]))
    if command == "dist":
        maybe("--check")
    maybe("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_fuzz_main_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    # argparse prefixes its one error line with a usage block; anything
    # else on stderr is a single `error: ...` line
    message = [line for line in err.getvalue().splitlines() if not line.startswith(("usage:", " "))]
    assert len(message) <= 1, err.getvalue()
