import contextlib
import io
import json
import os
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithcorr import arith, blocks, closedform
from arithcorr.cli import main
from arithcorr.gf2m import make_field
from arithcorr.sequences import BinarySequence, m_sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_long_bad_poly_error_is_short(self, capsys):
        code, _, err = run(capsys, "gen", "--m", "3", "--poly", "9" * 5000 + ",0")
        assert code == 2
        assert "PolynomialFormatError" in err
        assert len(err.encode()) < 300


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

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-range", "2..3", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "pass"
        assert doc["mismatches"] == []

    @pytest.mark.parametrize("bad", ["5", "5..", "a..b", "1..3", "9..8", "2..17"])
    def test_malformed_range_exits_2(self, capsys, bad):
        code, _, err = run(capsys, "verify", "--m-range", bad)
        assert code == 2
        assert "error" in err

    # m = 15, above the exhaustive cap, samples 66 of its 32766 taus for the blocks route
    @pytest.mark.parametrize("m, blocks, sampled", [(5, 30, False), (15, 66, True)])
    def test_three_way_coverage(self, capsys, m, blocks, sampled):
        code, out, _ = run(capsys, "verify", "--m-range", f"{m}..{m}", "--json")
        (row,) = [r for r in json.loads(out)["rows"] if r["check"] == "three_way"]
        n = (1 << m) - 1
        assert code == 0
        assert row["taus_checked"] == {"direct": n - 1, "blocks": blocks, "closed": n - 1}
        assert row["sampled"] is sampled

    def test_three_way_csv_unchanged(self, capsys):
        code, out, _ = run(capsys, "verify", "--m-range", "5..5")
        assert code == 0
        assert out.splitlines()[:2] == ["check,m,poly,status", "three_way,5,0x25,pass"]

    def test_direct_route_once_per_tau(self, capsys, monkeypatch):
        # the block counts, too, are built once per tau and shared by the
        # blocks route and the counting check
        calls = {"direct": [], "blocks": 0}
        direct, counts = arith.arithmetic_autocorr, blocks.block_type_counts

        def counted_direct(seq, tau):
            calls["direct"].append(tau)
            return direct(seq, tau)

        def counted_blocks(a, b):
            calls["blocks"] += 1
            return counts(a, b)

        monkeypatch.setattr(arith, "arithmetic_autocorr", counted_direct)
        monkeypatch.setattr(blocks, "block_type_counts", counted_blocks)
        code, _, _ = run(capsys, "verify", "--m-range", "5..5")
        assert code == 0
        assert sorted(calls["direct"]) == list(range(1, 31))
        assert calls["blocks"] == 30

    @pytest.fixture
    def broken_routes(self, monkeypatch):
        """Closed form off at tau = 2, classical autocorrelation at tau = 3,
        and the eq. (4) count at tau = 4, l = 2, in every field."""
        predict, classical, lemma4 = (
            closedform.predict_acorr,
            BinarySequence.classical_autocorr,
            closedform.lemma4_count,
        )
        monkeypatch.setattr(closedform, "predict_acorr", lambda ctx, tau: predict(ctx, tau) + (tau == 2))
        monkeypatch.setattr(BinarySequence, "classical_autocorr", lambda self, tau: classical(self, tau) + (tau == 3))
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
            return {**c, (0, 0, 0): c.get((0, 0, 0), 0) + 1} if b == a.shift(3) else c

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
        monkeypatch.setattr(
            arith, "arithmetic_autocorr", lambda seq, tau: -direct(seq, tau) if tau == 12 else direct(seq, tau)
        )
        code, out, err = run(capsys, "verify", "--m-range", "4..4", "--json")
        doc = json.loads(out)
        assert (code, err) == (1, "")
        (row,) = [r for r in doc["rows"] if r["check"] == "distribution"]
        assert row["status"] == "fail"
        a3 = direct(m_sequence(make_field(4)), 3)
        assert [r for r in doc["mismatches"] if r["check"] == "antisymmetry"] == [
            {"check": "antisymmetry", "m": 4, "poly": "0x13", "tau": 3, "direct": a3, "mirror": a3}
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
    "parameters": {"m_range": "3..5", "polys": "default"},
    "rows": [
        {"check": "three_way", "m": 3, "poly": "0xb", "status": "fail",
         "taus_checked": {"direct": 6, "blocks": 6, "closed": 6}, "sampled": False},
        {"check": "lemma1", "m": 3, "poly": "0xb", "status": "fail"},
        {"check": "counting", "m": 3, "poly": "0xb", "status": "fail"},
        {"check": "distribution", "m": 3, "poly": "0xb", "status": "pass"},
        {"check": "three_way", "m": 4, "poly": "0x13", "status": "fail",
         "taus_checked": {"direct": 14, "blocks": 14, "closed": 14}, "sampled": False},
        {"check": "lemma1", "m": 4, "poly": "0x13", "status": "fail"},
        {"check": "counting", "m": 4, "poly": "0x13", "status": "fail"},
        {"check": "distribution", "m": 4, "poly": "0x13", "status": "pass"},
        {"check": "three_way", "m": 5, "poly": "0x25", "status": "fail",
         "taus_checked": {"direct": 30, "blocks": 30, "closed": 30}, "sampled": False},
        {"check": "lemma1", "m": 5, "poly": "0x25", "status": "fail"},
        {"check": "counting", "m": 5, "poly": "0x25", "status": "fail"},
        {"check": "distribution", "m": 5, "poly": "0x25", "status": "pass"},
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


class TestEnvPolyTable:
    def test_overrides_default(self, capsys, tmp_path, monkeypatch):
        table = tmp_path / "polys.txt"
        # x^3 + x^2 + 1, the other degree-3 primitive polynomial
        table.write_text("# alternates\n3,3,2,0\n")
        monkeypatch.setenv("ARITHCORR_POLY_TABLE", str(table))
        code, out, _ = run(capsys, "gen", "--m", "3")
        assert code == 0
        from arithcorr import m_sequence, make_field

        assert out == f"{m_sequence(make_field(3, 0b1101))}\n"
        assert out != "1001011\n"

    def test_explicit_poly_wins(self, capsys, tmp_path, monkeypatch):
        table = tmp_path / "polys.txt"
        table.write_text("3,3,2,0\n")
        monkeypatch.setenv("ARITHCORR_POLY_TABLE", str(table))
        code, out, _ = run(capsys, "gen", "--m", "3", "--poly", "3,1,0")
        assert code == 0
        assert out == "1001011\n"

    def test_long_bad_table_line_error_is_short(self, capsys, tmp_path, monkeypatch):
        table = tmp_path / "polys.txt"
        table.write_text("x" * 5000 + ",3,1,0\n")
        monkeypatch.setenv("ARITHCORR_POLY_TABLE", str(table))
        code, _, err = run(capsys, "gen", "--m", "3")
        assert code == 2
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "content",
        [b"3,3,2,0\n# \xff\xfe\n", b"3,3,2,0\n3,3,1,0\n", b"3,3,1,0\n 3 ,3,1,0 # again\n"],
        ids=["not-utf8", "duplicate", "duplicate-same-poly"],
    )
    def test_bad_table_exits_2(self, capsys, tmp_path, monkeypatch, content):
        table = tmp_path / "polys.txt"
        table.write_bytes(content)
        monkeypatch.setenv("ARITHCORR_POLY_TABLE", str(table))
        code, out, err = run(capsys, "gen", "--m", "3")
        assert (code, out) == (2, "")
        assert "PolynomialFormatError" in err
        assert "Traceback" not in err


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "dist", "--m", "6", "--check")
    _, second, _ = run(capsys, "dist", "--m", "6", "--check")
    assert first == second


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


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


table_bytes = st.binary(max_size=64) | st.text(alphabet="0123456789,x# \n", max_size=40).map(str.encode)


@settings(max_examples=60, deadline=None)
@given(table_bytes)
def test_fuzz_poly_table(tmp_path_factory, content):
    table = tmp_path_factory.getbasetemp() / "fuzz_polys.txt"
    table.write_bytes(content)
    with mock.patch.dict(os.environ, {"ARITHCORR_POLY_TABLE": str(table)}):
        assert run_quiet(["gen", "--m", "3"]) in (0, 2)


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
