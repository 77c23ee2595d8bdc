"""Tests of the benchmark's own checkers and tracer; none of them runs the library.

    python3 -m pytest -q perfbench/test_checkers.py

Each checker gets a clean synthetic output (no failure) and corrupted copies
of it, and every corruption must count toward fail_frac.
"""

import copy
import sys
import types

import oracles
import tracing
import workloads


def clean_acorr(m):
    values = [v for v, c in sorted(oracles.closed_form_distribution(m).items()) for _ in range(c)]
    rows = [{"tau": t, "direct": v, "blocks": v, "closed": v} for t, v in enumerate(values, 1)]
    return {"command": "acorr", "m": m, "rows": rows, "status": "pass"}


def clean_verify(lo, hi):
    rows = [{"check": c, "m": m, "poly": "0x0", "status": "pass"} for c, m in oracles.expected_verify_rows(lo, hi)]
    return {"command": "verify", "rows": rows, "mismatches": [], "status": "pass"}


def test_acorr_clean_report_passes():
    check = oracles.check_acorr_all(0, clean_acorr(6), 6)
    assert (check.attempted, check.failed) == (62, 0)


def test_acorr_flipped_column_fails():
    doc = clean_acorr(6)
    doc["rows"][10]["blocks"] += 2
    assert oracles.check_acorr_all(0, doc, 6).failed == 1


def test_acorr_value_outside_distribution_fails():
    doc = clean_acorr(6)
    row = doc["rows"][0]
    row["direct"] = row["blocks"] = row["closed"] = 5  # 5 is no +-(2^k - 1)
    assert oracles.check_acorr_all(0, doc, 6).failed == 1


def test_acorr_wrong_multiplicity_fails():
    doc = clean_acorr(6)
    row = doc["rows"][0]
    row["direct"] = row["blocks"] = row["closed"] = doc["rows"][-1]["direct"]
    assert oracles.check_acorr_all(0, doc, 6).failed == 1


def test_acorr_missing_and_reordered_rows_fail():
    doc = clean_acorr(6)
    del doc["rows"][-3:]
    assert oracles.check_acorr_all(0, doc, 6).failed == 3
    doc = clean_acorr(6)
    doc["rows"][3], doc["rows"][4] = doc["rows"][4], doc["rows"][3]
    assert oracles.check_acorr_all(0, doc, 6).failed == 2


def test_acorr_failing_status_on_good_rows_fails():
    doc = clean_acorr(6)
    doc["status"] = "fail"
    assert oracles.check_acorr_all(1, doc, 6).failed == 1


def test_verify_clean_report_passes():
    check = oracles.check_verify(0, clean_verify(2, 16), 2, 16)
    assert (check.attempted, check.failed) == (52, 0)


def test_verify_missing_row_fails():
    doc = clean_verify(2, 16)
    doc["rows"] = [r for r in doc["rows"] if (r["check"], r["m"]) != ("counting", 8)]
    assert oracles.check_verify(0, doc, 2, 16).failed == 1


def test_verify_failed_row_and_mismatch_count_once():
    doc = clean_verify(2, 16)
    doc["rows"][0]["status"] = "fail"
    doc["mismatches"] = [{"check": "three_way", "m": 2, "tau": 1}, {"check": "pattern", "m": 5}]
    doc["status"] = "fail"
    assert oracles.check_verify(1, doc, 2, 16).failed == 2


def test_verify_extra_fields_are_ignored():
    doc = clean_verify(2, 16)
    for row in doc["rows"]:
        row["taus_checked"] = {"direct": 3}
        row["sampled"] = False
    doc["timings"] = {"field": 0.1}
    assert oracles.check_verify(0, doc, 2, 16).failed == 0


def test_verify_unparseable_output_fails_everything():
    assert oracles.check_verify(2, {}, 2, 16).failed == 52


def test_pairs_oracle_agrees_on_clean_outputs():
    cases = workloads.generate_pairs(5, 300)
    expected = [oracles.expected_pair_outputs(c) for c in cases]
    rejections = [o for out in expected for o in out if isinstance(o, tuple)]
    assert rejections, "seed 5 should include at least one expected rejection"
    assert oracles.check_pairs(list(expected), expected).failed == 0


def test_pairs_wrong_or_missing_rejection_fails():
    cases = workloads.generate_pairs(5, 300)
    expected = [oracles.expected_pair_outputs(c) for c in cases]
    outputs = copy.deepcopy(expected)
    rejected = next(i for i, out in enumerate(expected) if out[0] == ("reject", oracles.SHIFT_EQUALS))
    outputs[rejected] = (0,) + tuple(outputs[rejected][1:])
    accepted = next(i for i, out in enumerate(expected) if isinstance(out[2], int))
    outputs[accepted] = outputs[accepted][:2] + (("reject", oracles.EQUAL_SEQUENCES),) + outputs[accepted][3:]
    assert oracles.check_pairs(outputs, expected).failed == 2


def test_pairs_oracles_on_a_worked_example():
    # m = 3 m-sequence 1001011: A(tau=1) = -1, A(tau=2) = -3, ideal classical -1
    bits = (1, 0, 0, 1, 0, 1, 1)
    assert oracles.direct_corr(bits, oracles.rotate(bits, 1)) == -1
    assert oracles.direct_corr(bits, oracles.rotate(bits, 2)) == -3
    assert oracles.classical_corr(bits, 3) == -1
    assert oracles.cyclic_pattern_count(bits, (1, 1)) == 2
    assert oracles.direct_corr(bits, bits) is None


def fake_package(name):
    """A package `name` with a `gf2m`-like module and a `cli` that imports from it."""

    class Err(Exception):
        pass

    class Field:
        def pow(self, a, k):
            return a**k

    gf2m = types.ModuleType(f"{name}.gf2m")
    gf2m.make_field = lambda m: Field()
    gf2m.GF2m = Field
    cli = types.ModuleType(f"{name}.cli")
    cli.make_field = gf2m.make_field

    def main(argv):
        if argv == ["bad"]:
            raise Err("bad")
        return cli.make_field(3).pow(2, 3)

    cli.main = main
    pkg = types.ModuleType(name)
    pkg.make_field = gf2m.make_field
    modules = {name: pkg, f"{name}.gf2m": gf2m, f"{name}.cli": cli}
    return modules, Err


def test_tracer_patches_every_binding_and_lists_missing_targets(monkeypatch):
    modules, err = fake_package("fakecorr")
    for key, mod in modules.items():
        monkeypatch.setitem(sys.modules, key, mod)
    tracer = tracing.Tracer("fakecorr", err)
    tracer.install([("gf2m", "make_field"), ("gf2m", "GF2m.pow"), ("gf2m", "GF2m.inv"), ("cli", "main")])
    assert tracer.missing == ["gf2m.GF2m.inv"]
    assert modules["fakecorr.cli"].main([]) == 8
    try:
        modules["fakecorr.cli"].main(["bad"])
    except err:
        pass
    modules["fakecorr"].make_field(2)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["cli.main", "gf2m.make_field", "gf2m.GF2m.pow", "cli.main", "gf2m.make_field"]
    assert list(tracer.parent) == [-1, 0, 0, -1, -1]
    values = tracer.layer_metrics(1.0, 1.0)
    assert values["cli.main.calls"] == 2 and values["cli.main.errors"] == 1
    assert values["gf2m.make_field.calls"] == 2
    assert values["gf2m.GF2m.inv.calls"] == 0
    roots = sum(tracer.end[i] - tracer.start[i] for i in range(5) if tracer.parent[i] < 0) / 1e9
    assert abs(values["gf2m.self_s"] + values["cli.self_s"] - roots) < 1e-9
