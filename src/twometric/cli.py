"""Experiment harness.

Subcommands: audit, demo-equator, iterate, classify, certify, banach,
convexity, enumerate-lines.  Global flags: --out, --json-config; every
subcommand but enumerate-lines takes --seed, and audit alone --tolerance.
Flag values override the JSON config file; unknown config keys are rejected.
Every JSON artifact echoes the fully resolved config and is byte-stable for
a fixed config and seed, apart from the timestamp field.

Exit codes: 0 the run's checks passed, 1 a check failed, 2 bad usage, bad
input or an unexpected error (one line on stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import certifier_baseline, convexity_baseline, within_regression
from .certify import _SLACK, CertInput, _abs_det, _spectral_norms, certify
from .core import (DEFAULT_TOLERANCE, FiniteTwoMetricSpace, WitnessSet, _write_json, audit,
                   broadcasting)
from .dynamics import (SphereContractionParams, detect_outcome, make_linear_map,
                       make_sphere_map, orbit)
from .lines import Thresholds, classify, line_members
from .quasi import banach_direct, banach_multcost, banach_power, interval_space
from .spaces import (SpherePatch, area_ball_space, convexity_bound,
                     det_sphere_space, sphere_witnesses, unit_sphere)


def _write(cfg: dict, name: str, **payload) -> Path:
    """Write the artifact ``<--out>/<name>``: the resolved config, the time
    and ``payload``.  Returns the ``--out`` directory, which it creates."""
    out_dir = Path(cfg["out"])
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _write_json(out_dir / name, {"config": cfg, "timestamp": timestamp, **payload})
    return out_dir


class ConfigError(Exception):
    pass


def _resolve_config(args: argparse.Namespace, flags: dict) -> dict:
    """Merge flag values over the JSON config file over the declared
    defaults; reject unknown config keys, file values of another type than
    the flag's and non-finite float values.

    An int is taken as that float for a float flag (one past the float range
    is not finite), a bool is neither an int nor a float, and null is
    accepted only for a flag declared without a default, as echoed configs
    hold it there.
    """
    file_cfg = {}
    if args.json_config:
        with open(args.json_config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    flags = {**GLOBAL_FLAGS, **flags}
    unknown = set(file_cfg) - set(flags)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key, value in file_cfg.items():
        default, kind = _spec(flags[key])
        if value is None and default is None:
            continue
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"{key} must be {kind.__name__}, got {json.dumps(value)}")
        if kind is float:
            try:
                file_cfg[key] = float(value)
            except OverflowError:
                raise ConfigError(f"{key} must be finite, got {value}") from None
    resolved = {}
    for key, spec in flags.items():
        flag = getattr(args, key)
        resolved[key] = flag if flag is not None else file_cfg.get(key, _spec(spec)[0])
        if isinstance(resolved[key], float) and not math.isfinite(resolved[key]):
            raise ConfigError(f"{key} must be finite, got {resolved[key]}")
    resolved.pop("json_config")
    return resolved


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {text!r}") from exc
    if not np.isfinite(vec).all():
        raise ConfigError(f"vector {text!r} has a non-finite entry")
    return vec


def _parse_matrix2(text: str) -> np.ndarray:
    """'0.25I' or 'a,b,c,d' row-major."""
    text = text.strip()
    scaled = text.endswith("I")
    vals = _parse_vector(text[:-1] if scaled else text)
    if len(vals) != (1 if scaled else 4):
        raise ConfigError("matrix needs 4 comma-separated entries or 'sI'")
    return vals[0] * np.eye(2) if scaled else vals.reshape(2, 2)


def _space_for(name: str, cfg: dict):
    if name == "det-sphere":
        space = det_sphere_space()
        witnesses = sphere_witnesses(cfg["witnesses"], cfg["seed"])
        return space, witnesses, None
    if name == "area-ball":
        space = area_ball_space(dim=cfg["dim"])
        witnesses = WitnessSet.sampled(space, cfg["witnesses"], cfg["seed"])
        return space, witnesses, None
    if name == "finite":
        if not cfg["table"]:
            raise ConfigError("--table is required for finite spaces")
        finite = FiniteTwoMetricSpace.load(cfg["table"])
        return finite.as_space(), WitnessSet.all_of(finite), finite
    raise ConfigError(f"unknown space {name!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_audit(cfg) -> int:
    space, witnesses, finite = _space_for(cfg["space"], cfg)
    report = audit(space, witnesses=witnesses, triples=cfg["samples"],
                   seed=cfg["seed"], tolerance=cfg["tolerance"])
    non_fatal = ("N",) if cfg["space"] == "det-sphere" else ()
    payload = {"audit": report.to_json()}
    if finite is not None:
        payload["lines"] = line_members(finite)
    _write(cfg, "audit.json", **payload)
    failing = report.failing(non_fatal)
    for rec in report.records:
        status = "ok" if rec.max_violation <= cfg["tolerance"] else "VIOLATED"
        print(f"{rec.axiom:>14}: max violation {rec.max_violation:.3e}  [{status}]")
        if status == "VIOLATED" and rec.witness is not None:
            print(f"{'':>14}  witness: {[np.asarray(w).tolist() for w in rec.witness]}")
    if failing:
        print(f"audit FAILED: {failing}")
        return 1
    print("audit passed")
    return 0


def cmd_demo_equator(cfg) -> int:
    map_ = make_sphere_map(SphereContractionParams(cfg["k"], cfg["e"], cfg["theta"]))
    x0 = unit_sphere(_parse_vector(cfg["x0"]))
    witnesses = sphere_witnesses(cfg["witnesses"], cfg["seed"])
    outcome = detect_outcome(map_, x0, cfg["steps"], witnesses=witnesses,
                             seed=cfg["seed"])
    out_dir = _write(cfg, "outcome.json", outcome=outcome.to_json())
    outcome.trace.to_csv(out_dir / "trace.csv", vertical_column=True)
    factor = ("n/a" if outcome.measured_factor is None
              else f"{outcome.measured_factor:.6g}")
    print(f"outcome: {outcome.tag} (measured factor {factor})")

    if cfg["theta"] != 0.0:
        ok = outcome.tag == "FixedLine"
        if ok:
            normal = np.cross(outcome.line.g1, outcome.line.g2)
            normal /= np.linalg.norm(normal)
            ok = abs(normal[2]) >= 1.0 - 1e-6
            ok = ok and all(abs(m[2]) <= 1e-6 for m in outcome.line.members)
        if not ok:
            print("expected the equator as a fixed line")
            return 1
    elif outcome.tag != "FixedPoint":
        print("expected a fixed point for the pure squeeze")
        return 1
    return 0


def cmd_iterate(cfg) -> int:
    if cfg["map"] == "sphere":
        map_ = make_sphere_map(SphereContractionParams(cfg["k"], cfg["e"], cfg["theta"]))
        x0 = unit_sphere(_parse_vector(cfg["x0"])) if cfg["x0"] else np.array([0.8, 0.0, 0.6])
        vertical = True
    elif cfg["map"] == "linear":
        dim = cfg["dim"]
        if dim < 1:
            raise ConfigError(f"--dim must be at least 1, got {dim}")
        if cfg["angle"] and dim < 2:
            raise ConfigError(f"--angle rotates the first two coordinates; --dim is {dim}")
        M = np.eye(dim)
        if cfg["angle"]:
            c, s = np.cos(cfg["angle"]), np.sin(cfg["angle"])
            M[0, 0], M[0, 1], M[1, 0], M[1, 1] = c, -s, s, c
        map_ = make_linear_map(M, cfg["k"])
        x0 = _parse_vector(cfg["x0"]) if cfg["x0"] else np.full(dim, 0.4 / np.sqrt(dim))
        if len(x0) != dim:
            raise ConfigError(f"--x0 has {len(x0)} coordinates but --dim is {dim}")
        vertical = False
    else:
        raise ConfigError(f"unknown map {cfg['map']!r}")
    witnesses = WitnessSet.sampled(map_.space, cfg["witnesses"], cfg["seed"])
    trace = orbit(map_, x0, cfg["steps"], witnesses=witnesses, seed=cfg["seed"])
    out_dir = _write(cfg, "iterate.json", steps=len(trace) - 1, truncated=trace.truncated,
                     diagnostic=trace.diagnostic, decay_margin=trace.decay_margin,
                     final_phi_step=float(trace.phi_steps[-1]) if len(trace.phi_steps) else None)
    trace.to_csv(out_dir / "trace.csv", vertical_column=vertical)
    print(f"wrote {out_dir / 'trace.csv'} ({len(trace)} points"
          f"{', truncated' if trace.truncated else ''})")
    return 0


def _index_trace(reader: csv.DictReader, n: int) -> np.ndarray:
    """The ``index`` column of a trace, as ``OrbitTrace.to_csv`` writes it
    for index points: each entry an integer in 0..n-1."""
    if "index" not in (reader.fieldnames or ()):
        raise ConfigError("trace CSV has no index column")
    seq = []
    for number, row in enumerate(reader, start=1):
        try:
            seq.append(int(row["index"]))
        except (TypeError, ValueError):
            raise ConfigError(f"trace CSV row {number} needs an integer index") from None
        if not 0 <= seq[-1] < n:
            raise ConfigError(f"trace CSV row {number} has index {seq[-1]} outside 0..{n - 1}")
    return np.array(seq, dtype=np.intp)


def _coordinate_trace(reader: csv.DictReader, cfg: dict, space, witnesses) -> np.ndarray:
    """The coordinate columns of a trace, each row a point of the space."""
    coord_cols = [c for c in reader.fieldnames or () if c.startswith("x") and c != "x3_abs"]
    if not coord_cols:
        raise ConfigError("trace CSV has no coordinate columns")
    rows = []
    for number, row in enumerate(reader, start=1):
        try:
            rows.append([float(row[c]) for c in coord_cols])
        except (TypeError, ValueError):
            # a short row holds None in its missing fields
            raise ConfigError(f"trace CSV row {number} needs a number in each of "
                              f"{', '.join(coord_cols)}") from None
    seq = np.asarray(rows)
    if not np.isfinite(seq).all():
        raise ConfigError("trace CSV has a non-finite coordinate")
    dim = np.asarray(witnesses.points).shape[1:]
    if dim != (len(coord_cols),):
        raise ConfigError(f"trace points have {len(coord_cols)} coordinates but the "
                          f"{cfg['space']} points have {dim[0] if dim else 'none'}")
    if space.contains is not None:
        outside = [n for n, p in enumerate(seq, start=1) if not space.contains(p)]
        if outside:
            raise ConfigError(f"trace CSV row {outside[0]} is not a point of the "
                              f"{cfg['space']} space")
    return seq


def cmd_classify(cfg) -> int:
    if not cfg["input"]:
        raise ConfigError("--input trace CSV is required")
    space, witnesses, finite = _space_for(cfg["space"], cfg)
    with open(cfg["input"], "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        seq = (_coordinate_trace(reader, cfg, space, witnesses) if finite is None
               else _index_trace(reader, finite.n))
    thresholds = Thresholds(lim=cfg["eps_lim"], cauchy=cfg["eps_cauchy"],
                            tri_cauchy=cfg["eps_tri"], min_length=cfg["min_length"])
    verdict = classify(space, seq, witnesses, thresholds)
    _write(cfg, "classification.json", classification=verdict.to_json())
    print(f"classification: {verdict.tag} "
          f"(cauchy {verdict.cauchy_modulus:.3e}, tri {verdict.tri_cauchy_modulus:.3e})")
    return 0


def cmd_certify(cfg) -> int:
    A = _parse_matrix2(cfg["A"])
    base = certifier_baseline()
    # the calibrated C' holds only on the condition-bounded family; the
    # condition number s1 / s2 is s1^2 / |det A|, taken of A scaled by the
    # power of two that brings its largest entry into [0.5, 1), so that
    # neither overflows and no normal A underflows to det 0
    S = np.ldexp(A, -np.frexp(np.abs(A).max())[1])
    norm, det = float(_spectral_norms(S)), _abs_det(S)
    condition = norm * norm / det if det else math.inf
    if not condition <= base["max_condition"]:
        raise ConfigError(f"--A has condition number {condition:.6g}, above the "
                          f"calibrated family's cap {base['max_condition']:g}")
    # and only on the patch it was calibrated on
    patch = (base["patch_r"], base["inner_radius"])
    if cfg["C_prime"] is None and (cfg["r"], cfg["inner"]) != patch:
        raise ConfigError(f"the calibrated C' holds for --r {patch[0]} --inner {patch[1]}; "
                          f"give --C-prime for --r {cfg['r']} --inner {cfg['inner']}")
    C_prime = cfg["C_prime"] if cfg["C_prime"] is not None else base["C_prime"]
    mu = cfg["quad"]

    @broadcasting
    def F(x):
        # matmul of A with column vectors gives the bits of A @ x per point;
        # x @ A.T sums in another order
        x = np.asarray(x, dtype=float)
        out = np.matmul(A, x[..., None])[..., 0]
        if mu:
            out = out + mu * np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)
        return out

    inp = CertInput(map=F, jac_target=A, norm_bound=base["C_A"],
                    patch=SpherePatch(cfg["r"]), inner_radius=cfg["inner"],
                    ratio_constant=C_prime, proximity=cfg["c_prime"])
    result = certify(inp, samples=cfg["samples"], ratio_triples=cfg["triples"],
                     seed=cfg["seed"])
    _write(cfg, "certify.json", result=result.to_json())
    if not result.passes:
        print(f"certificate FAILED: {[f['hypothesis'] for f in result.failures]}")
    elif result.worst_ratio is None:
        print("certificate conclusion FAILED: no nondegenerate sampled triple")
    else:
        verdict, relation = (("PASSED", "<=") if result.conclusion_ok
                             else ("conclusion FAILED", ">"))
        print(f"certificate {verdict}: worst ratio {result.worst_ratio:.6g} "
              f"{relation} bound {result.bound:.6g} * {_SLACK}")
    return 0 if result.passes and result.conclusion_ok else 1


def cmd_banach(cfg) -> int:
    k, variant = cfg["k"], cfg["variant"]
    space = interval_space(C=cfg["C"])     # refuses C < 1 before 1 / C is taken
    if variant == "auto":
        variant = "direct" if k < 1.0 / cfg["C"] else "power"
    solvers = {"direct": banach_direct, "power": banach_power, "multcost": banach_multcost}
    if variant not in solvers:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant == "multcost":
        space = replace(space, psi=lambda x, y, z: 0.1 * abs(z), psi_bound=0.1)
    # the canonical interval contraction x -> k x
    run = solvers[variant](space, lambda x: k * x, cfg["x0"], k, max_steps=cfg["steps"],
                           seed=cfg["seed"])
    _write(cfg, "banach.json", run=run.to_json())
    print(f"{variant}: fixed point {run.fixed_point!r}, residual {run.residual:.3e}, "
          f"steps {run.steps}, tail bound {'ok' if run.tail_bound_ok else 'VIOLATED'}")
    return 0 if run.tail_bound_ok and run.residual <= cfg["residual_tol"] else 1


def cmd_convexity(cfg) -> int:
    report = convexity_bound(radius=cfg["r"], samples=cfg["samples"], seed=cfg["seed"])
    payload = report.to_json()
    base = convexity_baseline()
    if (cfg["r"] == base["r"] and cfg["samples"] == base["samples"]
            and cfg["seed"] == base["seed"]):
        payload["baseline_C"] = base["C"]
        payload["within_regression"] = within_regression(report.C, base["C"])
    _write(cfg, "convexity.json", convexity=payload)
    print(f"sandwich constant C = {report.C:.6f} "
          f"(upper {report.upper_ratio:.6f}, lower {report.lower_ratio:.6f})")
    ok = np.isfinite(report.C) and report.C >= 1.0
    ok = ok and payload.get("within_regression", True)
    return 0 if ok else 1


def cmd_enumerate_lines(cfg) -> int:
    _, _, finite = _space_for("finite", cfg)
    lines = line_members(finite)
    _write(cfg, "lines.json", lines=lines)
    for line in lines:
        print(f"line: {line}")
    print(f"{len(lines)} lines on {finite.n} points")
    return 0


# ---------------------------------------------------------------------------
# flags and parser
# ---------------------------------------------------------------------------

# Every flag is declared once, mapped to its default, or to its type when it
# has no default; the parser, the config merge and the echoed config read it.
# Each command has only the flags it reads; --json-config is read by the merge.
GLOBAL_FLAGS = {"out": ".", "json_config": str}
COMMANDS = {
    "audit": (cmd_audit, {"seed": 0, "tolerance": DEFAULT_TOLERANCE, "space": "det-sphere",
                          "table": str, "samples": 2000, "witnesses": 128, "dim": 3}),
    "demo-equator": (cmd_demo_equator, {"seed": 0, "k": 0.1, "e": 0.5,
                                        "theta": float(np.pi / 7), "x0": "0.8,0,0.6",
                                        "steps": 200, "witnesses": 128}),
    "iterate": (cmd_iterate, {"seed": 0, "map": "sphere", "k": 0.1, "e": 0.5,
                              "theta": float(np.pi / 7), "dim": 3, "angle": 0.0, "x0": str,
                              "steps": 200, "witnesses": 64}),
    "classify": (cmd_classify, {"seed": 0, "space": "det-sphere", "input": str,
                                "witnesses": 128, "eps_lim": 1e-6, "eps_cauchy": 1e-8,
                                "eps_tri": 1e-8, "min_length": 50, "dim": 3, "table": str}),
    "certify": (cmd_certify, {"seed": 0, "A": "0.25I", "r": 0.2, "inner": 0.1,
                              "c_prime": float, "quad": 0.0, "samples": 400, "triples": 2000,
                              "C_prime": float}),
    "banach": (cmd_banach, {"seed": 0, "C": 2.0, "k": 0.4, "x0": 1.0, "steps": 200,
                            "variant": "auto", "residual_tol": 1e-10}),
    "convexity": (cmd_convexity, {"seed": 0, "r": 0.2, "samples": 10000}),
    "enumerate-lines": (cmd_enumerate_lines, {"table": str}),
}


def _spec(value) -> tuple:
    """(default, type) of a declared flag."""
    return (None, value) if isinstance(value, type) else (value, type(value))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared,
    so a caller must not change it."""
    parser = argparse.ArgumentParser(prog="twometric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for flag, spec in {**GLOBAL_FLAGS, **COMMANDS[name][1]}.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=_spec(spec)[1])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    fn, flags = COMMANDS[args.command]
    try:
        return fn(_resolve_config(args, flags))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means a failed check, never a crash
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
