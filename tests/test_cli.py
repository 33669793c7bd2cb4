"""Harness: subcommand exit codes, artifacts, config merging, determinism."""

from __future__ import annotations

import argparse
import json
import re
import warnings

import numpy as np
import pytest

from twometric import (CertInput, SphereContractionParams, SpherePatch, certifier_baseline,
                       certify, demo_five_point_space, make_sphere_map, orbit,
                       sphere_witnesses, unit_sphere)
from twometric.cli import build_parser, main


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


def test_demo_equator_uncertified_warning(tmp_path, capsys):
    code = main(["demo-equator", "--k", "0.2", "--e", "0.5", "--seed", "5",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert "uncertified" in err
    assert code == 0


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


def test_convexity_subcommand_matches_baseline(tmp_path):
    code = main(["convexity", "--r", "0.2", "--samples", "10000",
                 "--seed", "20260808", "--out", str(tmp_path)])
    assert code == 0
    payload = load(tmp_path / "convexity.json")["convexity"]
    assert payload["within_regression"] is True
    assert payload["C"] >= 1.0


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


def test_unknown_config_fields_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"space": "det-sphere", "bogus": 1}))
    code = main(["audit", "--json-config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown config fields" in capsys.readouterr().err


def test_missing_table_is_a_usage_error(tmp_path, capsys):
    assert main(["audit", "--space", "finite", "--out", str(tmp_path)]) == 2
    assert main(["enumerate-lines", "--out", str(tmp_path)]) == 2
    assert main(["classify", "--space", "det-sphere", "--out", str(tmp_path)]) == 2


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


def test_ball_dimension_below_one_is_a_usage_error(tmp_path, capsys):
    for dim in ("0", "-1"):
        assert main(["audit", "--space", "area-ball", "--dim", dim,
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "dimension must be >= 1" in err and "Traceback" not in err


def test_unexpected_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch):
    from twometric import cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "audit", broken)
    assert main(["audit", "--space", "det-sphere", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: unexpected ZeroDivisionError: float division by zero\n"


def test_bad_vector_is_a_usage_error(tmp_path):
    assert main(["demo-equator", "--x0", "not,a,vector",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["certify", "--quad", "nan"],
    ["certify", "--C-prime", "nan"],
    ["certify", "--A=0.25,0,0,nan"],
    ["certify", "--A=infI"],
    ["demo-equator", "--x0=inf,0,0"],
    ["banach", "--x0=-inf"],
])
def test_non_finite_flags_exit_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    from twometric import cli

    def no_work(*args, **kwargs):
        raise AssertionError("reached the computation")

    for name in ("certify", "detect_outcome", "banach_direct", "banach_power"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(out)]) == 2
    assert caught == []
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_iterate_x0_of_another_length_than_dim_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch):
    from twometric import cli

    def no_work(*args, **kwargs):
        raise AssertionError("reached the computation")

    monkeypatch.setattr(cli, "orbit", no_work)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["iterate", "--map", "linear", "--x0=0.1,0.1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: --x0 has 2 coordinates but --dim is 3\n"
    assert not out.exists()


def test_demo_equator_x0_with_an_overflowing_norm_exits_2_without_a_warning(
        tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["demo-equator", "--x0=1e308,1e308,0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need a nonzero 3-vector with a finite norm\n"
    assert not out.exists()


def test_non_finite_config_file_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"quad": NaN}')
    assert main(["certify", "--json-config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: quad must be finite, got nan\n"
    assert not (tmp_path / "out").exists()


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


# Every subcommand's flags and their types, as the parser declared them
# before the flags were declared once per subcommand.
GLOBAL_FLAGS = {"seed": int, "out": str, "tolerance": float, "json_config": str}
PARSER_FLAGS = {
    "audit": {"space": str, "table": str, "samples": int, "witnesses": int, "dim": int},
    "demo-equator": {"k": float, "e": float, "theta": float, "x0": str, "steps": int,
                     "witnesses": int},
    "iterate": {"map": str, "k": float, "e": float, "theta": float, "dim": int,
                "angle": float, "x0": str, "steps": int, "witnesses": int},
    "classify": {"space": str, "input": str, "witnesses": int, "eps_lim": float,
                 "eps_cauchy": float, "eps_tri": float, "min_length": int, "dim": int,
                 "table": str},
    "certify": {"A": str, "r": float, "inner": float, "c_prime": float, "quad": float,
                "samples": int, "triples": int, "C_prime": float},
    "banach": {"C": float, "k": float, "x0": float, "steps": int, "variant": str,
               "residual_tol": float},
    "convexity": {"r": float, "samples": int},
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
        assert main([name, *argv, "--seed", "3", "--out", str(tmp_path / name)]) in (0, 1)
        artifacts[name] = tmp_path / name / artifact
    return artifacts


def test_parser_flags_are_the_echoed_config(one_run_each):
    subs = subparsers()
    assert set(one_run_each) == set(subs)
    for name, artifact in one_run_each.items():
        echoed = set(load(artifact)["config"])
        assert set(parser_flags(subs[name])) == echoed | {"json_config"}


def test_echoed_config_reproduces_the_artifact(one_run_each, tmp_path):
    def blanked(path):
        return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', path.read_bytes())

    for name, artifact in one_run_each.items():
        first = blanked(artifact)
        config = tmp_path / f"{name}.config.json"
        config.write_text(json.dumps(load(artifact)["config"]))
        artifact.unlink()
        assert main([name, "--json-config", str(config)]) in (0, 1)
        assert blanked(artifact) == first

