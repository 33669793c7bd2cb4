"""Harness: subcommand exit codes, artifacts, config merging, determinism."""

from __future__ import annotations

import argparse
import itertools
import json
import re
import warnings

import numpy as np
import pytest

from conftest import DATA
from twometric import (CertInput, FiniteTwoMetricSpace, SphereContractionParams, SpherePatch,
                       WitnessSet, audit, certifier_baseline, certify, demo_five_point_space,
                       make_sphere_map, orbit, sphere_witnesses, unit_sphere)
from twometric import cli
from twometric.cli import build_parser, main
from twometric.spaces import _SANDWICH_ROWS


def load(path):
    return json.loads(path.read_text())


@pytest.fixture
def demo_table(tmp_path):
    path = tmp_path / "demo5.json"
    demo_five_point_space().save(path)
    return path


def test_audit_det_sphere(tmp_path):
    code = main(["audit", "--space", "det-sphere", "--samples", "2000",
                 "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    payload = load(tmp_path / "audit.json")
    assert payload["config"]["samples"] == 2000
    assert payload["config"]["seed"] == 7
    worst = max(rec["max_violation"] for rec in payload["audit"]["axioms"])
    assert worst <= 1e-9


def test_audit_area_ball(tmp_path):
    assert main(["audit", "--space", "area-ball", "--samples", "1000",
                 "--seed", "3", "--out", str(tmp_path)]) == 0


def test_audit_finite_lists_lines(tmp_path, demo_table):
    code = main(["audit", "--space", "finite", "--table", str(demo_table),
                 "--out", str(tmp_path)])
    assert code == 0
    payload = load(tmp_path / "audit.json")
    assert len(payload["lines"]) == 8


def test_audit_corrupted_table_fails_with_witness(tmp_path, capsys):
    space = demo_five_point_space()
    space.table[(0, 1, 3)] = -0.25
    path = tmp_path / "broken.json"
    space.save(path)
    code = main(["audit", "--space", "finite", "--table", str(path),
                 "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "witness" in out


def uniform_table(n, planted):
    """d = 1 on every distinct triple of n points, except the ``planted``
    entries."""
    entries = dict.fromkeys(itertools.combinations(range(n), 3), 1.0)
    return FiniteTwoMetricSpace(n, {**entries, **planted})


# LHS - RHS of each sampled axiom at its witness, in the audit's order of
# operations; Z's witness repeats a point, or is a triple read for positivity
EXCESS = {
    "Tetr": lambda d, a, b, c, x: d(a, b, c) - (d(a, b, x) + d(b, c, x) + d(a, c, x)),
    "Z": lambda d, x, y, z: abs(d(x, y, z)) if len({x, y, z}) < 3 else -d(x, y, z),
    "B": lambda d, x, y, z: d(x, y, z) - 1.0,
    "Trans": lambda d, a, b, c, x, y: d(a, b, x) * d(c, x, y) - (d(a, x, y) + d(b, x, y)),
}


def test_audit_finds_one_entry_above_one_at_every_seed(tmp_path, capsys):
    # sampled triples missed this entry at most seeds; B reads every entry.
    # A sampled axiom may find it too (Trans at seeds 24 and 43; at 24
    # through d(10, 5, 17) * d(33, 17, 5) = 1.001 > d(10, 17, 5) + d(5, 17, 5) = 1):
    # each other axiom named must be violated at its witness by the table.
    table = uniform_table(40, {(5, 17, 33): 1.001})
    path = tmp_path / "table.json"
    table.save(path)
    for seed in range(50):
        assert main(["audit", "--space=finite", f"--table={path}", f"--seed={seed}",
                     f"--out={tmp_path}"]) == 1
        audit_json = load(tmp_path / "audit.json")["audit"]
        records = {r["axiom"]: r for r in audit_json["axioms"]}
        named = [a for a, r in records.items() if r["max_violation"] > audit_json["tolerance"]]
        assert f"audit FAILED: {named}" in capsys.readouterr().out
        assert "B" in named
        assert audit_json["axioms"][4]["axiom"] == "B"
        record = records["B"]
        assert record["witness"] == [5, 17, 33]
        assert record["samples"] == 9880 and record["max_violation"] == 1.001 - 1.0
        for axiom in named:
            record = records[axiom]
            assert axiom in EXCESS
            assert EXCESS[axiom](table.d, *record["witness"]) == record["max_violation"] > 0


def test_audit_finds_one_negative_entry_at_every_seed():
    table = uniform_table(40, {(2, 9, 30): -0.001})
    for seed in range(50):
        report = audit(table.as_space(), witnesses=WitnessSet.all_of(table), seed=seed)
        record = report.records[2]
        assert record.axiom == "Z" and "Z" in report.failing()
        assert record.witness == (2, 9, 30) and record.max_violation == 0.001


def test_demo_equator_rotated(tmp_path):
    code = main(["demo-equator", "--seed", "5", "--steps", "200",
                 "--out", str(tmp_path)])
    assert code == 0
    outcome = load(tmp_path / "outcome.json")["outcome"]
    assert outcome["tag"] == "FixedLine"
    assert outcome["min_point_residual"] >= 0.43
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "step,x1,x2,x3,phi_step,x3_abs"
    assert float(rows[-1].split(",")[-1]) <= 1e-6  # |x3| at the last step
    assert len(rows) == 202


def test_demo_equator_pure_squeeze_fixed_point(tmp_path):
    code = main(["demo-equator", "--theta", "0", "--x0", "1,0,0",
                 "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    assert load(tmp_path / "outcome.json")["outcome"]["tag"] == "FixedPoint"


@pytest.mark.parametrize("argv", [
    pytest.param(["--k", "0.14"], id="k0.14"),
    pytest.param(["--k", "0.2", "--e", "0.5", "--seed", "5"], id="k0.2"),
    pytest.param(["--k", "1e-170", "--e", "1e-100"], id="k1e-170")])
def test_demo_equator_refuses_a_factor_that_reaches_one(refuses, argv):
    # at k = 0.14 and 0.2 the samples read below one; the exact factor does not
    refuses(["demo-equator", *argv], "error: map is not contractive", match=str.startswith)


def test_iterate_and_classify_round_trip(tmp_path):
    assert main(["iterate", "--map", "sphere", "--steps", "120", "--seed", "6",
                 "--out", str(tmp_path)]) == 0
    assert main(["classify", "--space", "det-sphere",
                 "--input", str(tmp_path / "trace.csv"), "--seed", "6",
                 "--out", str(tmp_path)]) == 0
    verdict = load(tmp_path / "classification.json")["classification"]
    assert verdict["tag"] == "LineCase"


def test_iterate_linear(tmp_path):
    assert main(["iterate", "--map", "linear", "--k", "0.5", "--steps", "40",
                 "--seed", "2", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == "step,x1,x2,x3,phi_step"


def test_certify_subcommand(tmp_path):
    code = main(["certify", "--A", "0.25I", "--r", "0.2", "--seed", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    result = load(tmp_path / "certify.json")["result"]
    assert result["pass"] is True
    assert result["worst_ratio"] <= result["bound"]


def test_certify_prints_a_failed_conclusion(tmp_path, capsys):
    # the hypotheses pass, but the ratio is far above a C' of 0.01
    assert main(["certify", "--C-prime", "0.01", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out == ("certificate conclusion FAILED: worst ratio 0.0625 "
                   "> bound 0.000625 * 1.05\n")
    result = load(tmp_path / "certify.json")["result"]
    assert result["pass"] is True and result["conclusion_ok"] is False


@pytest.mark.parametrize("excess, code", [(1.04, 0), (1.06, 1)])
def test_certify_conclusion_has_a_slack_of_5_percent(tmp_path, capsys, excess, code):
    # the worst ratio 0.0625 against a bound of 0.0625 / excess
    assert main(["certify", "--C-prime", repr(1 / excess), "--out", str(tmp_path)]) == code
    result = load(tmp_path / "certify.json")["result"]
    assert result["worst_ratio"] == pytest.approx(excess * result["bound"])
    if code == 0:
        # the pass line states the inequality the verdict checks, slack included
        assert capsys.readouterr().out == ("certificate PASSED: worst ratio 0.0625 "
                                           "<= bound 0.0600962 * 1.05\n")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--A", "0.5,0,0,0.02"], "config error: --A has condition number 25, "
                 "above the calibrated family's cap 4", id="condition-25"),
    pytest.param(["--A", "0,0,0,0"], "config error: --A has condition number inf",
                 id="singular"),
    pytest.param(["--C-prime", "0"], "error: ratio constant and proximity budget must be "
                 "positive, got 0.0 and 0.0003125", id="zero-C-prime"),
    pytest.param(["--C-prime", "-1"], "error: ratio constant and proximity budget must be "
                 "positive, got -1.0 and 0.0003125", id="negative-C-prime"),
    pytest.param(["--c-prime", "0"], "error: ratio constant and proximity budget must be "
                 "positive, got 6.479293052481191 and 0.0", id="zero-c-prime"),
    # C' is calibrated on the patch r 0.2, inner 0.1 only
    pytest.param(["--r", "0.1", "--inner", "0.05"], "config error: the calibrated C' holds for "
                 "--r 0.2 --inner 0.1; give --C-prime for --r 0.1 --inner 0.05", id="patch-r0.1"),
    pytest.param(["--r", "0.24", "--inner", "0.2"], "config error: the calibrated C' holds for "
                 "--r 0.2 --inner 0.1; give --C-prime for --r 0.24 --inner 0.2", id="patch-r0.24"),
    pytest.param(["--inner", "0.19"], "config error: the calibrated C' holds for --r 0.2 "
                 "--inner 0.1; give --C-prime for --r 0.2 --inner 0.19", id="inner-0.19"),
    pytest.param(["--json-config", "CFG"], "config error: the calibrated C' holds for --r 0.2 "
                 "--inner 0.1; give --C-prime for --r 0.1 --inner 0.05", id="patch-in-config"),
])
def test_certify_refuses_inputs_outside_the_calibration_exit_2(tmp_path, refuses, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.1, "inner": 0.05}))
    refuses(["certify", *[str(cfg) if a == "CFG" else a for a in argv]], message,
            unreached=("certify",), match=str.startswith)


def test_certify_with_its_own_C_prime_takes_any_patch(tmp_path):
    assert main(["certify", "--r", "0.1", "--inner", "0.05", "--C-prime", "6.5",
                 "--samples", "50", "--triples", "200", "--out", str(tmp_path)]) == 0
    assert load(tmp_path / "certify.json")["result"]["C_prime"] == 6.5


@pytest.mark.parametrize("quad, code", [(0.0, 0), (0.5, 1)])
def test_certify_artifact_matches_a_per_point_map(tmp_path, quad, code):
    # the subcommand maps stacks of points at once; a map called one point
    # at a time, as A @ x, must give the same result to the last bit
    A = np.array([[0.6, -0.2], [0.3, 0.5]])
    assert main(["certify", "--A", "0.6,-0.2,0.3,0.5", "--quad", repr(quad), "--seed", "3",
                 "--out", str(tmp_path)]) == code
    base = certifier_baseline()

    def F(x):
        out = A @ x
        return out + quad * np.array([x[0] ** 2, x[0] * x[1]]) if quad else out

    inp = CertInput(map=F, jac_target=A, norm_bound=base["C_A"], patch=SpherePatch(0.2),
                    inner_radius=0.1, ratio_constant=base["C_prime"])
    expected = json.loads(json.dumps(certify(inp, seed=3).to_json()))
    assert load(tmp_path / "certify.json")["result"] == expected


def test_demo_equator_trace_is_the_detected_orbit(tmp_path):
    assert main(["demo-equator", "--seed", "6", "--steps", "120", "--witnesses", "48",
                 "--out", str(tmp_path)]) == 0
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, float(np.pi / 7)))
    orbit(m, unit_sphere(np.array([0.8, 0.0, 0.6])), 120,
          witnesses=sphere_witnesses(48, 6), seed=6).to_csv(tmp_path / "again.csv",
                                                            vertical_column=True)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()


def test_banach_subcommand_variants(tmp_path):
    assert main(["banach", "--C", "2", "--k", "0.4", "--out", str(tmp_path)]) == 0
    run = load(tmp_path / "banach.json")["run"]
    assert run["tail_bound_ok"] is True and abs(run["fixed_point"]) <= 1e-10
    assert main(["banach", "--C", "2", "--k", "0.6", "--out", str(tmp_path)]) == 0
    assert load(tmp_path / "banach.json")["run"]["power"] == 2
    assert main(["banach", "--C", "1", "--k", "0.5", "--variant", "multcost",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    pytest.param(["banach", "--x0", "1e308", "--steps", "1000"], id="banach-direct"),
    pytest.param(["banach", "--variant", "power", "--k", "0.9", "--x0", "1e308",
                  "--steps", "3000"], id="banach-power"),
    pytest.param(["certify", "--quad", "1e308"], id="certify"),
])
def test_overflowing_runs_fail_their_check_without_a_warning(tmp_path, capsys, argv):
    # a banach tail bound and certify's second differences pass the float
    # range; a numpy warning would be an unexpected error, exit 2
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ""


def test_a_start_whose_norm_overflows_is_refused_in_one_line(tmp_path, capsys):
    # the ball's membership test squares 1e300: outside, without a warning
    # (which the test settings turn into an unexpected error)
    assert main(["iterate", "--map", "linear", "--x0=1e300,0,0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: start point outside the map's restricted domain\n"


def test_convexity_subcommand_matches_baseline(tmp_path):
    code = main(["convexity", "--r", "0.2", "--samples", "10000",
                 "--seed", "20260808", "--out", str(tmp_path)])
    assert code == 0
    payload = load(tmp_path / "convexity.json")["convexity"]
    assert payload["within_regression"] is True
    assert payload["C"] >= 1.0


def test_convexity_at_a_tiny_radius_is_a_failed_check(tmp_path):
    # the areas underflow to 0 well inside the documented (0, 1/4): the
    # constant is NaN, written as null, and the check fails without warnings;
    # so it does over four blocks of the sandwich scan, the last one short,
    # and where every point is 0 or the least subnormal, so the one triple
    # repeats a point and the ratios over no triple are -inf
    for argv in (["--r", "1e-160"],
                 ["--r", "1e-160", "--samples", str(3 * _SANDWICH_ROWS + 7)],
                 ["--r", "5e-324", "--samples", "1", "--seed", "8"]):
        assert main(["convexity", *argv, "--out", str(tmp_path)]) == 1
        payload = load(tmp_path / "convexity.json")["convexity"]
        assert payload["C"] is None and payload["non_finite"] is True


def test_enumerate_lines_subcommand(tmp_path, demo_table, capsys):
    code = main(["enumerate-lines", "--table", str(demo_table),
                 "--out", str(tmp_path)])
    assert code == 0
    assert "8 lines on 5 points" in capsys.readouterr().out
    assert len(load(tmp_path / "lines.json")["lines"]) == 8


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    def run_once():
        assert main(["audit", "--space", "det-sphere", "--samples", "600",
                     "--seed", "11", "--out", str(tmp_path)]) == 0
        payload = load(tmp_path / "audit.json")
        payload.pop("timestamp")
        return json.dumps(payload, sort_keys=True)

    assert run_once() == run_once()


def test_config_file_merging_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"space": "det-sphere", "samples": 500, "seed": 9}))
    assert main(["audit", "--json-config", str(cfg), "--samples", "300",
                 "--out", str(tmp_path)]) == 0
    payload = load(tmp_path / "audit.json")
    assert payload["config"]["samples"] == 300  # flag wins
    assert payload["config"]["seed"] == 9       # file fills the rest


def test_unknown_config_fields_rejected(tmp_path, refuses):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"space": "det-sphere", "bogus": 1}))
    refuses(["audit", "--json-config", str(cfg)], "unknown config fields",
            unreached=("audit",), match=str.__contains__)


def test_missing_table_is_a_usage_error(refuses):
    # audit and enumerate-lines give one refusal
    for argv in (["audit", "--space", "finite"], ["enumerate-lines"]):
        refuses(argv, "config error: --table is required for finite spaces")
    refuses(["classify", "--space", "det-sphere"], "config error: --input trace CSV is required")


def table_file(second: dict) -> dict:
    """A four-point table file whose second entry is ``second``."""
    return {"n": 4, "entries": [{"i": 0, "j": 1, "k": 2, "d": 0.5}, second]}


@pytest.mark.parametrize("payload, message", [
    pytest.param({"n": 4.5, "entries": []}, 'int "n"', id="float-n"),
    pytest.param({"n": "4", "entries": []}, 'int "n"', id="string-n"),
    pytest.param([{"i": 0, "j": 1, "k": 2, "d": 0.5}], 'int "n"', id="top-level-list"),
    pytest.param(table_file({"i": 0.5, "j": 2, "k": 3, "d": 0.25}), "table entry 1 ",
                 id="float-index"),
    pytest.param(table_file({"i": True, "j": 2, "k": 3, "d": 0.25}), "table entry 1 ",
                 id="bool-index"),
    pytest.param(table_file({"i": 1, "j": 2, "k": 3, "d": "0.5"}), "table entry 1 ",
                 id="string-value"),
    pytest.param(table_file({"i": 1, "j": 2, "k": 3, "d": True}), "table entry 1 ",
                 id="bool-value"),
    pytest.param(table_file({"i": 1, "j": 2, "k": 3, "d": None}), "table entry 1 ",
                 id="null-value"),
    pytest.param(table_file({"i": 1, "j": 2, "k": 3}), "table entry 1 ", id="entry-without-d"),
    pytest.param({"n": 4, "entries": [{"i": 0, "j": 1, "k": 2}]}, "table entry 0 ",
                 id="first-entry-without-d"),
    pytest.param(table_file([1, 2, 3, 0.25]), "table entry 1 ", id="entry-not-an-object"),
    # an int that float() refuses: JSON reads 1 followed by 400 zeros as one
    pytest.param(table_file({"i": 1, "j": 2, "k": 3, "d": 10 ** 400}), "table entry 1 ",
                 id="int-value-past-the-float-range"),
    pytest.param({"n": 3, "entries": [{"i": 0, "j": 1, "k": 2, "d": 10 ** 400}]},
                 "table entry 0 needs integer i, j, k and a number d",
                 id="first-entry-int-value-past-the-float-range"),
])
def test_malformed_table_files_exit_2(tmp_path, refuses, payload, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for argv in (["enumerate-lines"], ["audit", "--space", "finite"]):
        refuses([*argv, "--table", str(path)], message,
                match=lambda line, message: line.startswith("error: ") and message in line)


def test_table_files_take_int_values_and_no_entries(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table_file({"i": 1, "j": 2, "k": 3, "d": 1})), encoding="utf-8")
    assert main(["enumerate-lines", "--table", str(path), "--out", str(tmp_path)]) == 0
    path.write_text(json.dumps({"n": 4}), encoding="utf-8")
    assert main(["enumerate-lines", "--table", str(path), "--out", str(tmp_path)]) == 0
    assert load(tmp_path / "lines.json")["lines"] == [[0, 1, 2, 3]]


def test_audit_nan_table_fails_with_strict_json(tmp_path, capsys):
    space = demo_five_point_space()
    space.table[(0, 1, 3)] = float("nan")
    path = tmp_path / "nan.json"
    space.save(path)
    code = main(["audit", "--space", "finite", "--table", str(path),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "audit FAILED" in capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    payload = json.loads((tmp_path / "audit.json").read_text(), parse_constant=reject)
    flagged = [r for r in payload["audit"]["axioms"] if r.get("non_finite")]
    assert flagged and all(r["max_violation"] is None for r in flagged)


def test_ball_dimension_below_one_is_a_usage_error(refuses):
    for dim in ("0", "-1"):
        refuses(["audit", "--space", "area-ball", "--dim", dim], "dimension must be >= 1",
                unreached=("audit",), match=str.__contains__)


def test_unexpected_errors_exit_2_with_one_line(refuses, monkeypatch):
    from twometric import cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "audit", broken)
    refuses(["audit", "--space", "det-sphere"],
            "error: unexpected ZeroDivisionError: float division by zero")


def test_bad_vector_is_a_usage_error(refuses):
    refuses(["demo-equator", "--x0", "not,a,vector"],
            "config error: cannot parse vector 'not,a,vector'", unreached=("detect_outcome",))


@pytest.mark.parametrize("argv", [
    ["certify", "--quad", "nan"],
    ["certify", "--C-prime", "nan"],
    ["certify", "--A=0.25,0,0,nan"],
    ["certify", "--A=infI"],
    ["demo-equator", "--x0=inf,0,0"],
    ["banach", "--x0=-inf"],
])
def test_non_finite_flags_exit_2_before_any_work(refuses, argv):
    refuses(argv, "config error: ", match=str.startswith,
            unreached=("certify", "detect_outcome", "banach_direct", "banach_power"))


def test_iterate_x0_of_another_length_than_dim_exits_2_before_any_work(refuses):
    refuses(["iterate", "--map", "linear", "--x0=0.1,0.1"],
            "config error: --x0 has 2 coordinates but --dim is 3", unreached=("orbit",))


@pytest.mark.parametrize("args, message", [
    (["--dim", "0"], "--dim must be at least 1, got 0"),
    (["--dim", "-1"], "--dim must be at least 1, got -1"),
    (["--angle", "0.3", "--dim", "1"], "--angle rotates the first two coordinates; --dim is 1"),
])
def test_iterate_linear_dim_out_of_range_exits_2_before_any_work(refuses, args, message):
    refuses(["iterate", "--map", "linear", *args], f"config error: {message}",
            unreached=("make_linear_map", "orbit"))


def test_iterate_linear_in_one_dimension_runs(tmp_path):
    assert main(["iterate", "--map", "linear", "--dim", "1", "--steps", "20",
                 "--witnesses", "8", "--out", str(tmp_path)]) == 0


def test_demo_equator_x0_with_an_overflowing_norm_exits_2_without_a_warning(refuses):
    refuses(["demo-equator", "--x0=1e308,1e308,0"],
            "error: need a nonzero 3-vector with a finite norm")


@pytest.mark.parametrize("argv, message, match", [
    pytest.param(["--k", "0.5"], "error: map is not contractive on samples (measured ",
                 str.startswith, id="measured-factor"),
    pytest.param(["--k", "0.5", "--x0", "0,0,0"],
                 "error: need a nonzero 3-vector with a finite norm", str.__eq__, id="zero-x0"),
])
def test_demo_equator_uncertified_refusals_print_no_warning(refuses, argv, message, match):
    # the uncertified-factor warning waits for the outcome
    refuses(["demo-equator", *argv], message, match=match)


@pytest.mark.parametrize("csv_text, args, message", [
    ("x0,x1,x2\n0.6,nan,0.8\n", [], "trace CSV has a non-finite coordinate"),
    ("x0,x1,x2\n0.6,inf,0.8\n", [], "trace CSV has a non-finite coordinate"),
    ("x0,x1\n0.6,0.8\n", [], "trace points have 2 coordinates but the det-sphere points have 3"),
    ("x0,x1,x2\n0.6,0.0,0.8\n", ["--space=area-ball", "--dim=5"],
     "trace points have 3 coordinates but the area-ball points have 5"),
    ("x0,x1,x2\n0.6,0.0,0.8\n0.6,0.0\n", [],
     "trace CSV row 2 needs a number in each of x0, x1, x2"),
    ("x0,x1,x2\n0.6,,0.8\n0.6,0.0,0.8\n", [],
     "trace CSV row 1 needs a number in each of x0, x1, x2"),
    # points off the space: far off the sphere, with a norm that overflows,
    # and outside the ball
    ("x0,x1,x2\n0.6,0.0,0.8\n1.2e120,-0.3e120,0.8e120\n", [],
     "trace CSV row 2 is not a point of the det-sphere space"),
    ("x0,x1,x2\n1e200,1e200,0\n", [], "trace CSV row 1 is not a point of the det-sphere space"),
    ("x0,x1,x2\n0.6,0.0,0.8\n", ["--space=area-ball"],
     "trace CSV row 1 is not a point of the area-ball space"),
    # index traces on a finite table of 5 points
    ("step,x1\n0,0.5\n", ["--space=finite", "--table=TABLE"], "trace CSV has no index column"),
    ("step,index\n0,1\n1,2.0\n", ["--space=finite", "--table=TABLE"],
     "trace CSV row 2 needs an integer index"),
    ("step,index\n0,1\n1\n", ["--space=finite", "--table=TABLE"],
     "trace CSV row 2 needs an integer index"),
    ("step,index\n0,4\n1,5\n", ["--space=finite", "--table=TABLE"],
     "trace CSV row 2 has index 5 outside 0..4"),
    ("step,index\n0,-1\n", ["--space=finite", "--table=TABLE"],
     "trace CSV row 1 has index -1 outside 0..4"),
    # an empty file has no header
    ("", [], "trace CSV has no coordinate columns"),
    ("", ["--space=finite", "--table=TABLE"], "trace CSV has no index column"),
])
def test_classify_bad_trace_exits_2_before_any_work(tmp_path, refuses, csv_text, args, message):
    trace = tmp_path / "trace.csv"
    trace.write_text(csv_text)
    demo_five_point_space().save(tmp_path / "demo5.json")
    args = [a.replace("TABLE", str(tmp_path / "demo5.json")) for a in args]
    refuses(["classify", f"--input={trace}", *args], f"config error: {message}",
            unreached=("classify",))


SHORT_TRACE = ["0.6,0.0,0.8", "0.0,0.6,0.8", "0.8,0.0,0.6", "0.0,0.8,0.6", "0.6,0.8,0.0"]


@pytest.mark.parametrize("rows", [3, 4, 5])
def test_classify_a_trace_of_min_length_rows(tmp_path, rows):
    trace = tmp_path / "trace.csv"
    trace.write_text("x0,x1,x2\n" + "".join(f"{row}\n" for row in SHORT_TRACE[:rows]))
    assert main(["classify", f"--input={trace}", "--min-length", "3",
                 "--out", str(tmp_path)]) == 0
    assert load(tmp_path / "classification.json")["classification"]["tag"] == "NoPoint"


def test_classify_refuses_a_trace_of_two_rows(tmp_path, refuses):
    trace = tmp_path / "trace.csv"
    trace.write_text("x0,x1,x2\n" + "".join(f"{row}\n" for row in SHORT_TRACE[:2]))
    refuses(["classify", f"--input={trace}", "--min-length", "2"],
            "error: sequence length 2 below minimum 3")


@pytest.mark.parametrize("argv, message", [
    (["convexity", "--samples", "0"], "sample counts must be >= 1"),
    (["convexity", "--samples", "-2"], "sample counts must be >= 1"),
    (["certify", "--samples", "0"], "sample counts must be >= 1"),
    (["certify", "--triples", "0"], "sample counts must be >= 1"),
    (["audit", "--witnesses", "-1"], "witness count must be >= 0"),
    (["demo-equator", "--witnesses", "-1"], "witness count must be >= 0"),
    (["classify", "--witnesses", "-1", "--input", "trace.csv"], "witness count must be >= 0"),
    (["iterate", "--steps", "-3"], "step count must be >= 0"),
    (["banach", "--steps", "-1"], "step count must be >= 0"),
])
def test_sample_counts_out_of_range_exit_2(refuses, argv, message):
    # one form for every count refusal: the bound, then the value refused
    refuses(argv, f"error: {message}, got {argv[2]}")


def test_non_finite_config_file_values_exit_2(tmp_path, refuses):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"quad": NaN}')
    refuses(["certify", "--json-config", str(cfg)], "config error: quad must be finite, got nan",
            unreached=("certify",))


@pytest.mark.parametrize("config, message", [
    ({"samples": "many"}, 'samples must be int, got "many"'),
    ({"samples": 2.5}, "samples must be int, got 2.5"),
    ({"samples": True}, "samples must be int, got true"),
    ({"samples": None}, "samples must be int, got null"),
    ({"r": False}, "r must be float, got false"),
    ({"r": "0.2"}, 'r must be float, got "0.2"'),
    ({"seed": [1]}, "seed must be int, got [1]"),
    ({"out": 3}, "out must be str, got 3"),
    # an int for a float flag that no float can hold
    pytest.param({"r": 10 ** 400}, f"r must be finite, got {10 ** 400}", id="int-past-float"),
])
def test_wrongly_typed_config_file_values_exit_2_before_any_work(
        tmp_path, refuses, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    refuses(["convexity", "--json-config", str(cfg)], f"config error: {message}",
            unreached=("convexity_bound",))


def test_config_file_takes_an_int_for_a_float_and_null_without_a_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quad": 0, "r": 0.2, "c_prime": None, "C_prime": None}))
    assert main(["certify", "--json-config", str(cfg), "--samples", "50", "--triples", "200",
                 "--out", str(tmp_path)]) == 0
    config = load(tmp_path / "certify.json")["config"]
    assert config["quad"] == 0.0 and isinstance(config["quad"], float)
    assert config["c_prime"] is None


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "twometric", "banach", "--C", "2", "--k", "0.4",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fixed point" in proc.stdout


def test_csv_uses_plain_decimal_points(tmp_path):
    main(["iterate", "--map", "sphere", "--steps", "10", "--seed", "1",
          "--out", str(tmp_path)])
    body = (tmp_path / "trace.csv").read_text()
    for token in body.splitlines()[1].split(",")[1:4]:
        float(token)  # parses with '.' decimal separator, no locale
        assert "," not in token


# Every subcommand's flags and their types, each a flag its command reads.
GLOBAL_FLAGS = {"out": str, "json_config": str}
PARSER_FLAGS = {
    "audit": {"seed": int, "tolerance": float, "space": str, "table": str, "samples": int,
              "witnesses": int, "dim": int},
    "demo-equator": {"seed": int, "k": float, "e": float, "theta": float, "x0": str,
                     "steps": int, "witnesses": int},
    "iterate": {"seed": int, "map": str, "k": float, "e": float, "theta": float, "dim": int,
                "angle": float, "x0": str, "steps": int, "witnesses": int},
    "classify": {"seed": int, "space": str, "input": str, "witnesses": int,
                 "eps_lim": float, "eps_cauchy": float, "eps_tri": float, "min_length": int,
                 "dim": int, "table": str},
    "certify": {"seed": int, "A": str, "r": float, "inner": float, "c_prime": float,
                "quad": float, "samples": int, "triples": int, "C_prime": float},
    "banach": {"seed": int, "C": float, "k": float, "x0": float, "steps": int,
               "variant": str, "residual_tol": float},
    "convexity": {"seed": int, "r": float, "samples": int},
    "enumerate-lines": {"table": str},
}


def subparsers() -> dict:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parser_flags(sub) -> dict:
    """dest -> (option strings, type, default) of a subcommand's flags."""
    return {a.dest: (a.option_strings, a.type, a.default) for a in sub._actions
            if a.dest != "help"}


def test_parser_flags_dests_and_types_are_unchanged():
    subs = subparsers()
    assert list(subs) == list(PARSER_FLAGS)
    for name, flags in PARSER_FLAGS.items():
        expected = {dest: ([f"--{dest.replace('_', '-')}"], kind, None)
                    for dest, kind in {**GLOBAL_FLAGS, **flags}.items()}
        assert parser_flags(subs[name]) == expected


@pytest.fixture
def one_run_each(tmp_path, demo_table):
    """Run every subcommand once, each into its own directory; the
    artifact path of each."""
    runs = {
        "audit": (["--samples", "200", "--witnesses", "16"], "audit.json"),
        "demo-equator": (["--steps", "60", "--witnesses", "16"], "outcome.json"),
        "iterate": (["--steps", "60", "--witnesses", "16"], "iterate.json"),
        "classify": (["--input", str(tmp_path / "iterate" / "trace.csv"),
                      "--witnesses", "16"], "classification.json"),
        "certify": (["--samples", "50", "--triples", "200"], "certify.json"),
        "banach": ([], "banach.json"),
        "convexity": (["--samples", "500"], "convexity.json"),
        "enumerate-lines": (["--table", str(demo_table)], "lines.json"),
    }
    artifacts = {}
    for name, (argv, artifact) in runs.items():
        seed = ["--seed", "3"] if "seed" in PARSER_FLAGS[name] else []
        assert main([name, *argv, *seed, "--out", str(tmp_path / name)]) in (0, 1)
        artifacts[name] = tmp_path / name / artifact
    return artifacts


def test_parser_flags_are_the_echoed_config(one_run_each):
    subs = subparsers()
    assert set(one_run_each) == set(subs)
    for name, artifact in one_run_each.items():
        echoed = set(load(artifact)["config"])
        assert set(parser_flags(subs[name])) == echoed | {"json_config"}


def test_echoed_config_reproduces_the_artifact(one_run_each, tmp_path):
    for name, artifact in one_run_each.items():
        first = blanked(artifact)
        config = tmp_path / f"{name}.config.json"
        config.write_text(json.dumps(load(artifact)["config"]))
        artifact.unlink()
        assert main([name, "--json-config", str(config)]) in (0, 1)
        assert blanked(artifact) == first


class ReadKeys(dict):
    """A resolved config that adds each key read as ``cfg[key]`` to ``seen``."""

    def __init__(self, cfg: dict, seen: set):
        super().__init__(cfg)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def test_every_declared_flag_is_read_in_some_mode(tmp_path, monkeypatch, demo_table):
    table12 = DATA / "table12"
    small = ["--witnesses", "16"]
    modes = {
        "audit": [["--samples", "200", *small], ["--space", "area-ball", "--samples", "200"],
                  ["--space", "finite", "--table", str(demo_table)]],
        "demo-equator": [["--steps", "60", *small]],
        "iterate": [["--steps", "60", "--x0", "0.8,0,0.6", *small],
                    ["--map", "linear", "--angle", "0.3", "--steps", "60", *small]],
        "classify": [["--input", str(tmp_path / "iterate0" / "trace.csv"), *small],
                     ["--space", "area-ball", "--input", str(tmp_path / "iterate1" / "trace.csv"),
                      *small],
                     ["--space", "finite", "--table", str(table12 / "table.json"),
                      "--input", str(table12 / "index_trace.csv")]],
        "certify": [["--samples", "50", "--triples", "200"],
                    ["--samples", "50", "--triples", "200", "--C-prime", "30"]],
        "banach": [["--variant", variant] for variant in ("auto", "direct", "power", "multcost")],
        "convexity": [["--samples", "500"]],
        "enumerate-lines": [["--table", str(demo_table)]],
    }
    assert list(modes) == list(cli.COMMANDS)
    seen = {name: set() for name in modes}
    resolve = cli._resolve_config
    monkeypatch.setattr(cli, "_resolve_config",
                        lambda args, flags: ReadKeys(resolve(args, flags), seen[args.command]))
    for name, runs in modes.items():
        for number, argv in enumerate(runs):
            assert main([name, *argv, "--out", str(tmp_path / f"{name}{number}")]) in (0, 1)
        declared = {**cli.GLOBAL_FLAGS, **cli.COMMANDS[name][1]}
        assert set(declared) - {"json_config"} == seen[name], name


@pytest.mark.parametrize("argv", [
    ["certify", "--tolerance", "1"], ["banach", "--tolerance", "1e-9"],
    ["enumerate-lines", "--seed", "1", "--table", "table.json"],
], ids=" ".join)
def test_a_flag_its_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in captured.err


def test_a_config_file_with_a_tolerance_is_refused_outside_audit(tmp_path, refuses):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1e-9}))
    refuses(["certify", "--json-config", str(cfg)],
            "config error: unknown config fields: ['tolerance']", unreached=("certify",))
    assert main(["audit", "--json-config", str(cfg), "--samples", "200", "--witnesses", "16",
                 "--out", str(tmp_path)]) == 0



def parsed(capsys, parse, argv):
    """The exit code, stdout and stderr of ``parse(argv)``: 0 when it
    returns, the code of its SystemExit otherwise."""
    try:
        parse(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], *([name, "--help"] for name in PARSER_FLAGS), ["no-such-command"],
    ["audit", "--no-such-flag"], ["audit", "--samples", "many"], ["certify", "--triples", "2.5"],
    [],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_a_command_parser_prints_what_the_full_parser_prints(argv, capsys):
    # main builds only the named command's parser; its help and usage
    # errors must read as those of the parser of every command
    want = parsed(capsys, build_parser().parse_args, argv)
    assert want[0] in (0, 2) and (want[1] or want[2])
    assert parsed(capsys, main, argv) == want


# commands run one after another in one process, a bad usage among them
IN_PROCESS = [["audit"], ["demo-equator"], ["audit", "--no-such-flag"],
              ["audit", "--space", "area-ball", "--samples", "500", "--seed", "3",
               "--witnesses", "40"]]


def test_each_parser_is_built_once_per_process_and_reused(tmp_path, capsys, monkeypatch):
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the fresh processes import this copy of the package, from any directory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    for command in (None, *cli.COMMANDS):
        assert build_parser(command) is build_parser(command)
    for i, argv in enumerate(IN_PROCESS):
        here, fresh = tmp_path / f"in-{i}", tmp_path / f"fresh-{i}"
        here.mkdir(), fresh.mkdir()
        monkeypatch.chdir(here)
        got = parsed(capsys, main, argv + ["--out=."])
        proc = subprocess.run([sys.executable, "-m", "twometric", *argv, "--out=."],
                              cwd=fresh, env=env, capture_output=True, text=True)
        assert got == (proc.returncode, proc.stdout, proc.stderr)
        # the artifacts, JSON with the timestamp blanked, byte for byte
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in here.iterdir()) == names
        assert names or got[0] == 2
        for name in names:
            assert blanked(here / name) == blanked(fresh / name), (argv, name)


def blanked(path):
    """An artifact's bytes, JSON with the timestamp blanked."""
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', path.read_bytes())


def test_a_command_parser_holds_that_command_alone():
    parser = build_parser("classify")
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(action.choices) == ["classify"]
    assert parser_flags(action.choices["classify"]) == parser_flags(subparsers()["classify"])
    assert parser.format_usage() == build_parser().format_usage()


# ---------------------------------------------------------------------------
# every settable value at its extremes
# ---------------------------------------------------------------------------

# a small run of each command, which the sweep sets one flag of at a time
SWEEP_RUNS = {
    "audit": ["--samples", "100", "--witnesses", "8"],
    "demo-equator": ["--steps", "60", "--witnesses", "8"],
    "iterate": ["--steps", "60", "--witnesses", "8"],
    "classify": ["--witnesses", "8", "--input", "TRACE"],
    "certify": ["--samples", "20", "--triples", "100"],
    "banach": ["--steps", "50"],
    "convexity": ["--samples", "200"],
    "enumerate-lines": ["--table", str(DATA / "table12" / "table.json")],
}
SWEEP_VALUES = {float: ["0.0", "-0.0", "-1.0", "1e-320", "1e308", "nan", "inf", "-inf"],
                int: ["0", "-1", "1", "2"],
                "x0": ["nan,0,0", "0,inf,0", "-inf,0,0", "1e300,0,0", "1e308,1e308,1e308"]}


def sweep_cases():
    """(command, extra arguments, flag=value) for every float and int flag
    of every command and for each ``--x0`` point; iterate's points under
    both maps."""
    for name, (_, flags) in cli.COMMANDS.items():
        for flag, spec in flags.items():
            kind = cli._spec(spec)[1]
            values = SWEEP_VALUES.get("x0" if flag == "x0" and kind is str else kind, [])
            for value in values:
                arg = f"--{flag.replace('_', '-')}={value}"
                maps = [[], ["--map", "linear"]] if (name, flag) == ("iterate", "x0") else [[]]
                for extra in maps:
                    yield pytest.param(name, extra, arg, id=" ".join([name, *extra, arg]))


@pytest.fixture(scope="module")
def sweep_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep-trace")
    assert main(["iterate", "--steps", "60", "--witnesses", "8", "--out", str(out)]) == 0
    return str(out / "trace.csv")


@pytest.mark.parametrize("name, extra, arg", sweep_cases())
def test_every_settable_value_keeps_the_exit_contract(name, extra, arg, sweep_trace, tmp_path,
                                                      capsys):
    argv = [name, *[sweep_trace if a == "TRACE" else a for a in SWEEP_RUNS[name]], *extra, arg]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "unexpected" not in err, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    value = np.array([float(v) for v in arg.partition("=")[2].split(",")])
    assert code != 0 or np.isfinite(value).all(), err


def test_the_sweep_sets_every_float_and_int_flag():
    swept = {(c.values[0], c.values[2].partition("=")[0]) for c in sweep_cases()}
    for name, (_, flags) in cli.COMMANDS.items():
        for flag, spec in flags.items():
            if cli._spec(spec)[1] in (float, int) or flag == "x0":
                assert (name, f"--{flag.replace('_', '-')}") in swept
