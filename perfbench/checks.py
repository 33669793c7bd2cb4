"""Workloads, checks and verdict oracles of the benchmark.

A workload is a fixed cycle of check kinds.  The seed draws each check's
inputs (points, angles, matrices, sample seeds) and the order of the checks
inside a cycle, never the mix, so every run measures the same mix.  Every
check is one verdict: ``execute`` makes the calls a user makes (the timed
part) and ``verify`` compares the outputs with the answer known from how the
input was built, never with a run of the current code.

``execute(ctx, args, tr)`` runs untraced when ``tr`` is None.  With a tracer
it wraps the inputs in counters, records a span per call, and replays a CLI
call's parts as separate library calls on the same inputs.  ``verify``
raises on a wrong verdict and returns the check's artifacts, with the
timestamp blanked, so the traced run can be compared with the untraced one.
Artifacts the CLI wrote are keyed by file name; library results by a bare
name.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from twometric import cli
from twometric.baselines import certifier_baseline
from twometric.certify import CertInput, certify, jacobian_fd
from twometric.core import (FiniteTwoMetricSpace, WitnessSet, audit, eval_phi,
                            quotient_by_zero_phi, witness_refinement_gap)
from twometric.dynamics import (SphereContractionParams, detect_outcome,
                                make_linear_map, make_sphere_map,
                                measured_contraction_factor, orbit)
from twometric.lines import Thresholds, classify, enumerate_lines
from twometric.quasi import (banach_power, check_quasi_axioms, interval_space,
                             quasi_from_two_metric)
from twometric.spaces import (SpherePatch, area_ball_space, area_metric,
                              area_metric_batch, convexity_bound, det_metric,
                              det_metric_batch, det_sphere_space, sample_ball,
                              sample_sphere, sphere_witnesses, unit_sphere)

from tracing import rate, span

# The package's default tolerance; every CLI call here runs with it.
TOL = 1e-9

# Seconds one cycle of each workload takes untraced on the reference machine
# (2-core Intel Xeon, Python 3.11, numpy 2.4).  A run measures
# round(seconds / CYCLE_S) whole cycles, so its size and its mix are fixed by
# --seconds alone and the same on both commits of a comparison.
CYCLE_S = {"sampled-audit": 4.5, "contraction-verdicts": 7.0, "finite-tables": 7.5}

# The reference work whose speed each workload's times are scaled by: the
# kind of work the workload spends its time in (see run.reference).
REFERENCE = {"sampled-audit": "numpy", "contraction-verdicts": "python",
             "finite-tables": "python"}


class WrongVerdict(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongVerdict(message)


@dataclass
class Check:
    kind: str
    args: dict


@dataclass
class Ctx:
    out: Path                 # scratch directory for tables and artifacts
    cycles: list              # list of lists of Check
    probe: dict               # inputs of the kernel and phi probes


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def _reject_constant(token):
    raise ValueError(f"artifact holds the non-JSON token {token}")


def read_artifact(path: Path) -> tuple[bytes, dict]:
    """Raw bytes with the timestamp blanked, and the strictly parsed JSON."""
    raw = path.read_bytes()
    parsed = json.loads(raw, parse_constant=_reject_constant)
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', raw), parsed


def _roundtrip(obj):
    return json.loads(json.dumps(obj))


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def run_cli(argv: list[str]):
    """``twometric.cli.main`` in process; an int exit code, or a string
    describing how it failed to return one."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except SystemExit as exc:  # argparse errors exit instead of returning 2
        return f"SystemExit({exc.code})"
    except Exception as exc:  # a traceback is a failed check, not a crash
        return f"raised {type(exc).__name__}: {exc}"


def _floats(values) -> str:
    # Vector flags go as --flag=v1,v2 so that a leading minus is not a flag.
    return ",".join(repr(float(v)) for v in np.ravel(values))


def _failing(audit_json: dict, non_fatal=()) -> list[str]:
    for rec in audit_json["axioms"]:
        expect(math.isfinite(rec["max_violation"]),
               f"{rec['axiom']} violation is {rec['max_violation']}")
    return [r["axiom"] for r in audit_json["axioms"]
            if r["max_violation"] > audit_json["tolerance"] and r["axiom"] not in non_fatal]


def _expect_audit(audit_json: dict, non_fatal, must_fail) -> list[str]:
    failing = _failing(audit_json, non_fatal)
    if must_fail is None:
        expect(not failing, f"clean space failed {failing}")
    else:
        expect(must_fail in failing, f"planted defect: expected {must_fail} to fail, got {failing}")
    return failing


def _expect_replay(out: dict, artifact, key: str = "replay") -> None:
    if key in out:
        expect(_roundtrip(out[key]) == artifact,
               "library replay differs from the CLI artifact")


# ---------------------------------------------------------------------------
# sampled-audit: batch phi and d_batch (core, spaces)
# ---------------------------------------------------------------------------

def _planted(space, kernel, kernel_batch, scale=1.0, skew=0.0):
    """``scale * d + skew * |x_0|``: scale 1.5 breaks B on the sphere, a
    skew on the first argument's first coordinate breaks Sym."""
    return replace(
        space,
        name=f"{space.name}-planted",
        d=lambda x, y, z: scale * kernel(x, y, z) + skew * abs(float(x[0])),
        d_batch=lambda X, Y, Z: (scale * kernel_batch(X, Y, Z)
                                 + skew * np.abs(np.asarray(X)[:, 0])))


def build_sampled_audit(rng, tiny: bool, plant_nan: bool, cycles: int):
    det, area3, area5 = det_sphere_space(), area_ball_space(3), area_ball_space(5)
    det_b = _planted(det, det_metric, det_metric_batch, scale=1.5)
    det_sym = _planted(det, det_metric, det_metric_batch, skew=1e-3)
    area_sym = _planted(area3, area_metric, area_metric_batch, skew=1e-3)
    small, mid, big = (300, 300, 600) if tiny else (1000, 2000, 8000)
    cli_mid, cli_big = (300, 1000) if tiny else (2000, 10000)
    conv_small, conv_big = (1000, 10000) if tiny else (10 ** 4, 10 ** 5)
    witnesses = 16 if tiny else 128
    # Four fast checks (with the two convexity calls), seven at the middle
    # size and three big ones: the median then falls inside the middle
    # group rather than in the gap between two groups.
    lib = [(det, small, None), (det, mid, None), (det, big, None),
           (area3, mid, None), (area5, mid, None), (area5, big, None),
           (det_b, mid, "B"), (det_sym, mid, "Sym"), (area_sym, small, "Sym")]
    out = []
    for _ in range(cycles):
        cycle = []
        for space, tuples, must_fail in lib:
            on_sphere = space.name.startswith("det")
            wseed = _seed(rng)
            W = (sphere_witnesses(witnesses, wseed) if on_sphere
                 else WitnessSet.sampled(space, witnesses, wseed))
            cycle.append(Check("audit", {
                "space": space, "witnesses": W, "tuples": tuples, "seed": _seed(rng),
                "must_fail": must_fail, "non_fatal": ("N",) if on_sphere else ()}))
        for name, dim, samples in (("det-sphere", 3, cli_mid), ("area-ball", 5, cli_mid),
                                   ("det-sphere", 3, cli_big)):
            cycle.append(Check("cli-audit", {"space": name, "dim": dim, "samples": samples,
                                             "witnesses": witnesses, "seed": _seed(rng)}))
        for samples in (conv_small, conv_big):
            cycle.append(Check("convexity", {"samples": samples, "seed": _seed(rng)}))
        out.append([cycle[i] for i in rng.permutation(len(cycle))])
    rows = big
    probe = {"sphere": sample_sphere(rng, 3 * rows).reshape(3, rows, 3),
             "ball": sample_ball(rng, 3 * rows).reshape(3, rows, 3),
             "patch": SpherePatch(0.2).sample(rng, 3 * rows).reshape(3, rows, 2),
             "phi_space": det, "witnesses": sphere_witnesses(witnesses, _seed(rng))}
    probe["pairs"] = probe["sphere"][0][:500]
    return out, probe


def x_audit(ctx, a, tr):
    space = a["space"] if tr is None else tr.space(a["space"])
    with span(tr, "core.audit"):
        return {"report": audit(space, witnesses=a["witnesses"], triples=a["tuples"],
                                seed=a["seed"])}


def v_audit(ctx, a, out):
    report = out["report"].to_json()
    _expect_audit(report, a["non_fatal"], a["must_fail"])
    return {"report": _dumps(report)}


def x_cli_audit(ctx, a, tr):
    argv = ["audit", f"--space={a['space']}", f"--dim={a['dim']}",
            f"--samples={a['samples']}", f"--witnesses={a['witnesses']}",
            f"--seed={a['seed']}", f"--out={ctx.out}"]
    with span(tr, "cli.audit", counted=False) as root:
        out = {"rc": run_cli(argv)}
    if tr is not None:
        if a["space"] == "det-sphere":
            space, W = det_sphere_space(), sphere_witnesses(a["witnesses"], a["seed"])
        else:
            space = area_ball_space(dim=a["dim"])
            W = WitnessSet.sampled(space, a["witnesses"], a["seed"])
        with tr.span("core.audit", parent=root):
            out["replay"] = audit(tr.space(space), witnesses=W, triples=a["samples"],
                                  seed=a["seed"], tolerance=TOL).to_json()
    return out


def v_cli_audit(ctx, a, out):
    raw, art = read_artifact(ctx.out / "audit.json")
    _expect_audit(art["audit"], ("N",) if a["space"] == "det-sphere" else (), None)
    expect(out["rc"] == 0, f"exit code {out['rc']}")
    _expect_replay(out, art["audit"])
    return {"audit.json": raw}


def x_convexity(ctx, a, tr):
    argv = ["convexity", f"--samples={a['samples']}", f"--seed={a['seed']}",
            f"--out={ctx.out}"]
    with span(tr, "cli.convexity", counted=False) as root:
        out = {"rc": run_cli(argv)}
    if tr is not None:
        with tr.span("spaces.convexity", parent=root):
            out["replay"] = convexity_bound(samples=a["samples"], seed=a["seed"]).to_json()
    return out


def v_convexity(ctx, a, out):
    raw, art = read_artifact(ctx.out / "convexity.json")
    C = art["convexity"]["C"]
    expect(out["rc"] == 0, f"exit code {out['rc']}")
    expect(math.isfinite(C) and C >= 1.0, f"sandwich constant {C}")
    if "replay" in out:
        expect(all(art["convexity"][k] == v for k, v in _roundtrip(out["replay"]).items()),
               "library replay differs from the CLI artifact")
    return {"convexity.json": raw}


# ---------------------------------------------------------------------------
# contraction-verdicts: classify, dynamics, certify, quasi, scalar eval_phi
# ---------------------------------------------------------------------------

SQUEEZE_K, TUBE_E = 0.1, 0.5        # the demo-equator defaults; k < e^3


def _tube_point(rng) -> list[float]:
    """A unit vector of horizontal radius >= e, clear of the tube's edge."""
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if math.hypot(v[0], v[1]) >= TUBE_E + 0.05:
            return [float(c) for c in v]


def _conditioned_matrix(rng) -> np.ndarray:
    """s * R(a) diag(1, 1/c) R(b) with condition number c <= 2 and norm
    s <= 1.5, inside the family the certifier's C' was calibrated on."""
    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    s, c = rng.uniform(0.3, 1.5), rng.uniform(1.0, 2.0)
    return s * rot(rng.uniform(0, 2 * math.pi)) @ np.diag([1.0, 1.0 / c]) @ rot(
        rng.uniform(0, 2 * math.pi))


def build_contraction(rng, tiny: bool, plant_nan: bool, cycles: int):
    lo, hi = (60, 80) if tiny else (200, 300)
    # Linear-map scales small enough that |x_i| <= k^(lo/2) < 1e-13 over the
    # tail, so the tail is Cauchy and the origin is the verdict.
    scales = (0.2, 0.35) if tiny else (0.5, 0.7)
    witnesses = 16 if tiny else 128
    cert = {"default": (40, 200) if tiny else (400, 2000),
            "scaled": (100, 1000) if tiny else (2000, 20000)}
    table = FiniteTwoMetricSpace.from_points(sample_sphere(rng, 10 if tiny else 24), det_metric)
    quasi = quasi_from_two_metric(table.as_space(), WitnessSet.all_of(table))
    out = []
    for c in range(cycles):
        cycle = []
        # classify's cost depends on the irrational angle, so each cycle draws
        # it from its own stratum of [0.3, 2.5]: every run then covers the
        # range evenly, whatever the seed.
        stratum = 0.3 + 2.2 * (c + rng.random(2)) / cycles
        for theta, tag in ((0.0, "FixedPoint"), (math.pi / 7, "FixedLine"), (None, "FixedLine")):
            for steps, u in zip((lo, hi), stratum):
                cycle.append(Check("demo-equator", {
                    "theta": float(u) if theta is None else theta,
                    "steps": steps, "x0": _tube_point(rng), "witnesses": witnesses,
                    "seed": _seed(rng), "expect": tag}))
        # Four linear-map checks at the longer orbit: their times sit in the
        # middle of the cycle's, so the median falls inside one group.
        for steps in (hi,) * 4:
            M = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            lmap = make_linear_map(M, float(rng.uniform(*scales)))
            seed = _seed(rng)
            x0 = rng.normal(size=3)
            cycle.append(Check("detect-linear", {
                "map": lmap, "x0": 0.45 * rng.random() * x0 / np.linalg.norm(x0),
                "steps": steps, "witnesses": WitnessSet.sampled(lmap.space, 64, seed),
                "seed": seed}))
        for size, quad in (("default", 0.0), ("scaled", 0.0), ("default", 0.5)):
            samples, triples = cert[size]
            cycle.append(Check("certify", {"A": _conditioned_matrix(rng), "quad": quad,
                                           "samples": samples, "triples": triples,
                                           "seed": _seed(rng)}))
        cycle.append(Check("banach", {"k": float(rng.uniform(0.9, 0.99)),
                                      "x0": float(rng.uniform(0.2, 1.0)), "seed": _seed(rng)}))
        cycle.append(Check("quasi-axioms", {"table": table, "quasi": quasi,
                                            "samples": 50 if tiny else 200, "seed": _seed(rng)}))
        out.append([cycle[i] for i in rng.permutation(len(cycle))])
    probe_map = make_sphere_map(SphereContractionParams(SQUEEZE_K, TUBE_E, 0.9))
    rows = (hi // 2) ** 2 // 2                    # about the tail pairs classify scans
    probe = {"orbit": (probe_map, unit_sphere(_tube_point(rng)), hi),
             "ball": sample_ball(rng, 3 * rows).reshape(3, rows, 3),
             "patch": SpherePatch(0.2).sample(rng, 3 * rows, radius=0.1).reshape(3, rows, 2),
             "phi_space": probe_map.space, "witnesses": sphere_witnesses(witnesses, _seed(rng)),
             "jacobian_A": _conditioned_matrix(rng), "rows": rows}
    return out, probe


def _replay_detect(tr, parent, map_, x0, steps, W, seed):
    """detect_outcome, then its parts as separate calls on the same inputs."""
    with tr.span("dynamics.detect", parent=parent) as det:
        outcome = detect_outcome(map_, x0, steps, witnesses=W, seed=seed)
    with tr.span("dynamics.factor", parent=det):
        measured_contraction_factor(map_, samples=500, seed=seed)
    with tr.span("dynamics.orbit", parent=det):
        points = orbit(map_, x0, steps, witnesses=W, seed=seed).points
    thresholds = Thresholds()
    with tr.span("lines.classify", parent=det) as s:
        cls = classify(map_.space, points, W, thresholds)
    tail = points[len(points) - max(2, round(len(points) * thresholds.tail_fraction)):]
    s.info["lines.classify_candidates"] = len(
        {tuple(p) for p in np.concatenate([np.asarray(W.points), tail])})
    s.info["lines.classify_passers"] = len(cls.passers)
    return outcome


def x_demo(ctx, a, tr):
    argv = ["demo-equator", f"--theta={a['theta']!r}", f"--steps={a['steps']}",
            f"--x0={_floats(a['x0'])}", f"--witnesses={a['witnesses']}",
            f"--seed={a['seed']}", f"--out={ctx.out}"]
    with span(tr, "cli.demo_equator", counted=False) as root:
        out = {"rc": run_cli(argv)}
    if tr is not None:
        map_ = tr.map(make_sphere_map(SphereContractionParams(SQUEEZE_K, TUBE_E, a["theta"])))
        W = sphere_witnesses(a["witnesses"], a["seed"])
        out["replay"] = _replay_detect(tr, root, map_, unit_sphere(np.array(a["x0"])),
                                       a["steps"], W, a["seed"]).to_json()
    return out


def v_demo(ctx, a, out):
    raw, art = read_artifact(ctx.out / "outcome.json")
    trace_csv = (ctx.out / "trace.csv").read_bytes()
    expect(out["rc"] == 0, f"exit code {out['rc']}")
    expect(art["outcome"]["tag"] == a["expect"],
           f"theta={a['theta']}: expected {a['expect']}, got {art['outcome']['tag']}")
    expect(trace_csv.count(b"\n") == a["steps"] + 2, "trace.csv has the wrong row count")
    _expect_replay(out, art["outcome"])
    return {"outcome.json": raw, "trace.csv": trace_csv}


def x_linear(ctx, a, tr):
    if tr is None:
        return {"outcome": detect_outcome(a["map"], a["x0"], a["steps"],
                                          witnesses=a["witnesses"], seed=a["seed"])}
    return {"outcome": _replay_detect(tr, None, tr.map(a["map"]), a["x0"], a["steps"],
                                      a["witnesses"], a["seed"])}


def v_linear(ctx, a, out):
    outcome = out["outcome"]
    expect(outcome.tag == "FixedPoint", f"expected FixedPoint, got {outcome.tag}")
    expect(float(np.linalg.norm(outcome.point)) <= 1e-6, "fixed point is not the origin")
    return {"outcome": _dumps(outcome.to_json())}


def _cert_map(A, mu):
    """The planar map the certify subcommand builds from --A and --quad."""
    def F(x):
        x = np.asarray(x, dtype=float)
        out = A @ x
        if mu:
            out = out + mu * np.array([x[0] ** 2, x[0] * x[1]])
        return out
    return F


def x_certify(ctx, a, tr):
    argv = ["certify", f"--A={_floats(a['A'])}", f"--samples={a['samples']}",
            f"--triples={a['triples']}", f"--seed={a['seed']}", f"--out={ctx.out}"]
    if a["quad"]:
        argv.append(f"--quad={a['quad']!r}")
    with span(tr, "cli.certify", counted=False) as root:
        out = {"rc": run_cli(argv)}
    if tr is not None:
        A = np.array([float(v) for v in np.ravel(a["A"])]).reshape(2, 2)
        base = certifier_baseline()
        inp = CertInput(map=tr.counting(_cert_map(A, a["quad"]), "map_calls"), jac_target=A,
                        norm_bound=base["C_A"], patch=SpherePatch(0.2), inner_radius=0.1,
                        ratio_constant=base["C_prime"])
        with tr.span("certify.certify", parent=root):
            out["replay"] = certify(inp, samples=a["samples"], ratio_triples=a["triples"],
                                    seed=a["seed"]).to_json()
    return out


def v_certify(ctx, a, out):
    raw, art = read_artifact(ctx.out / "certify.json")
    result = art["result"]
    if a["quad"]:
        expect(out["rc"] == 1, f"exit code {out['rc']}")
        expect("hessian_bound" in [f["hypothesis"] for f in result["failures"]],
               "quadratic term did not fail hessian_bound")
    else:
        expect(out["rc"] == 0, f"exit code {out['rc']}")
        expect(result["pass"] and result["conclusion_ok"] is True,
               f"linear map failed: {result['failures']}, conclusion {result['conclusion_ok']}")
    _expect_replay(out, result)
    return {"certify.json": raw}


def x_banach(ctx, a, tr):
    space = interval_space(C=2.0)
    k = a["k"]
    with span(tr, "quasi.banach"):
        return {"run": banach_power(space if tr is None else tr.quasi(space),
                                    lambda x: k * x, a["x0"], k, seed=a["seed"])}


def v_banach(ctx, a, out):
    run = out["run"]
    expect(run.tail_bound_ok and run.residual <= 1e-10 and abs(run.fixed_point) <= 1e-9,
           f"k={a['k']}: fixed point {run.fixed_point}, residual {run.residual}")
    return {"run": _dumps(run.to_json())}


def x_quasi(ctx, a, tr):
    quasi = a["quasi"]
    if tr is not None:
        counted = tr.finite(a["table"])
        quasi = tr.quasi(quasi_from_two_metric(counted.as_space(), WitnessSet.all_of(counted)))
    with span(tr, "quasi.check_axioms"):
        return {"axioms": check_quasi_axioms(quasi, samples=a["samples"], seed=a["seed"])}


def v_quasi(ctx, a, out):
    axioms = out["axioms"]
    expect(all(v <= TOL for v in axioms.values()), f"exact phi violated {axioms}")
    return {"axioms": _dumps(axioms)}


# ---------------------------------------------------------------------------
# finite-tables: table write, JSON, scalar audit, enumerate_lines, quotient
# ---------------------------------------------------------------------------

def _off_equator(rng, count: int) -> np.ndarray:
    out = []
    while len(out) < count:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if abs(v[2]) >= 0.1:
            out.append(v)
    return np.array(out).reshape(count, 3)


def _table_points(rng, n: int, line: int, dups: int) -> np.ndarray:
    """``line`` equator points first (no two antipodal), then generic points,
    then ``dups`` copies of the first generic point with alternating sign:
    those sit at pair distance 0 from it, so N fails and the quotient
    shrinks by exactly ``dups``."""
    angles = (np.arange(line) + rng.uniform(0.1, 0.9, line)) * (math.pi / line)
    equator = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(line)])
    generic = _off_equator(rng, n - line - dups)
    copies = [(-1) ** i * generic[0] for i in range(1, dups + 1)]
    return np.concatenate([equator, generic, np.reshape(copies, (dups, 3))])


# Expected verdict per table kind: the axiom that must fail (None: pass).
TABLE_KINDS = {"clean": None, "dup": "N", "oor": "B"}
OUT_OF_RANGE = 1.25


def build_finite(rng, tiny: bool, plant_nan: bool, cycles: int):
    sizes = (9, 10, 11) if tiny else (24, 32, 40)
    lines = (4, 5, 6) if tiny else (6, 10, 12)
    dup_counts = (2, 3) if tiny else (5, 6)
    samples = 200 if tiny else 1000
    kinds = list(TABLE_KINDS)
    # The 3x3 grid of sizes and lines, each cell with one kind, plus the two
    # other kinds on the smallest cell: 11 checks, whose median falls inside
    # the middle group of times rather than at its edge.
    cells = [(i, j, kinds[(i + j) % 3]) for i in range(3) for j in range(3)]
    cells += [(0, 0, kind) for kind in kinds[1:]]
    out = []
    for c in range(cycles):
        cycle = []
        for i, j, kind in cells:
            n, line = sizes[i], lines[j]
            dups = dup_counts[(c + i) % 2] if kind == "dup" else 0
            args = {"kind": kind, "n": n, "line": list(range(line)), "dups": dups,
                    "points": _table_points(rng, n, line, dups), "nan": None,
                    "samples": samples, "seed": _seed(rng)}
            if plant_nan and kind == "clean" and i == 0:
                args["kind"], args["nan"] = "nan", (line, line + 1, line + 2)
            cycle.append(Check("table", args))
        out.append([cycle[i] for i in rng.permutation(len(cycle))])
    pts = np.concatenate([ch.args["points"] for ch in out[0]])
    rows = max(sizes) * (max(sizes) - 1) * (max(sizes) - 2) // 6  # tabulated triples
    probe = {"sphere": pts[rng.integers(0, len(pts), size=(3, rows))],
             "table_points": out[0][0].args["points"]}
    return out, probe


def _plant(table: FiniteTwoMetricSpace, a: dict) -> None:
    if a["kind"] == "oor":
        p = a["n"] - 1                       # a generic point, off the line
        for key in table.table:
            if p in key:
                table.table[key] = OUT_OF_RANGE
    if a["nan"] is not None:
        table.table[a["nan"]] = float("nan")


def x_table(ctx, a, tr):
    path = ctx.out / "table.json"
    with span(tr, "core.tabulate"):
        metric = det_metric if tr is None else tr.timed_metric(det_metric)
        table = FiniteTwoMetricSpace.from_points(a["points"], metric)
        _plant(table, a)
    with span(tr, "core.table_save") as s:
        table.save(path)
    if tr is not None:
        s.info["core.table_bytes"] = path.stat().st_size
    argv = ["audit", "--space=finite", f"--table={path}", f"--samples={a['samples']}",
            f"--seed={a['seed']}", f"--out={ctx.out}"]
    with span(tr, "cli.audit", counted=False) as root:
        out = {"rc": run_cli(argv)}
    if tr is not None:
        with tr.span("core.table_load", parent=root):
            counted = tr.finite(FiniteTwoMetricSpace.load(path))
        with tr.span("core.audit", parent=root):
            out["replay"] = audit(counted.as_space(), witnesses=WitnessSet.all_of(counted),
                                  triples=a["samples"], seed=a["seed"], tolerance=TOL).to_json()
        with tr.span("lines.enumerate", parent=root) as s:
            found = [list(line.members) for line in enumerate_lines(counted)]
        s.info["lines.lines_found"] = len(found)
        s.info["lines.largest_line"] = max(map(len, found), default=0)
        out["replay_lines"] = found
    with span(tr, "core.quotient"):
        out["quotient_n"] = quotient_by_zero_phi(table if tr is None else tr.finite(table)).n
    return out


def v_table(ctx, a, out):
    if a["kind"] == "nan":
        # A NaN entry is a defect the audit must report (exit 1) or reject (exit 2).
        expect(out["rc"] in (1, 2), f"NaN-planted table: exit code {out['rc']}")
        if out["rc"] == 2:
            return {}
    raw, art = read_artifact(ctx.out / "audit.json")
    must_fail = TABLE_KINDS.get(a["kind"])
    if a["kind"] != "nan":
        _expect_audit(art["audit"], (), must_fail)
        expect(out["rc"] == (0 if must_fail is None else 1), f"exit code {out['rc']}")
    expect(a["line"] in art["lines"], f"planted line {a['line']} not enumerated")
    expect(out["quotient_n"] == a["n"] - a["dups"],
           f"quotient has {out['quotient_n']} points, expected {a['n'] - a['dups']}")
    _expect_replay(out, art["audit"])
    _expect_replay(out, art["lines"], "replay_lines")
    return {"audit.json": raw}


KINDS = {
    "audit": (x_audit, v_audit),
    "cli-audit": (x_cli_audit, v_cli_audit),
    "convexity": (x_convexity, v_convexity),
    "demo-equator": (x_demo, v_demo),
    "detect-linear": (x_linear, v_linear),
    "certify": (x_certify, v_certify),
    "banach": (x_banach, v_banach),
    "quasi-axioms": (x_quasi, v_quasi),
    "table": (x_table, v_table),
}

BUILDERS = {"sampled-audit": build_sampled_audit,
            "contraction-verdicts": build_contraction,
            "finite-tables": build_finite}


def setup(workload: str, seed: int, tiny: bool, plant_nan: bool, cycles: int,
          out: Path) -> Ctx:
    """Generate the seeded inputs of ``cycles`` cycles of a workload."""
    built, probe = BUILDERS[workload](np.random.default_rng(seed), tiny, plant_nan, cycles)
    return Ctx(out=out, cycles=built, probe=probe)


# ---------------------------------------------------------------------------
# probes: kernel rows/s, phi rows/s, single-pair eval_phi, Jacobians
# ---------------------------------------------------------------------------

def probes(ctx: Ctx, tr) -> dict:
    """Rates on the workload's own arrays.  A probe whose input the
    workload does not have reports 0."""
    p = dict(ctx.probe)
    if "orbit" in p:                   # the probes run on one demo orbit
        map_, x0, steps = p["orbit"]
        p["pairs"] = orbit(map_, x0, steps, witnesses=p["witnesses"]).points
        pick = np.random.default_rng(0).integers(0, len(p["pairs"]), size=(3, p["rows"]))
        p["sphere"] = p["pairs"][pick]
    if "table_points" in p:            # ... or on one table of the first cycle
        table = FiniteTwoMetricSpace.from_points(p["table_points"], det_metric)
        p["phi_table"], p["pairs"] = table, np.arange(table.n)
    out = {}
    for key, name, kernel in (("sphere", "det", det_metric_batch),
                              ("ball", "area", area_metric_batch),
                              ("patch", "patch", SpherePatch(0.2).metric_batch)):
        if key in p:
            X, Y, Z = p[key]
            out[f"spaces.{name}_rows_per_s"] = rate(lambda: kernel(X, Y, Z), len(X))
    if "phi_table" in p:
        table = p["phi_table"]
        space, W = table.as_space(), WitnessSet.all_of(table)
        counted_space = tr.finite(table).as_space()
    else:
        space, W = p["phi_space"], p["witnesses"]
        counted_space = tr.space(space)
    before = dict(tr.totals)
    witness_refinement_gap(counted_space, W)
    rows = sum(tr.totals[k] - before[k] for k in ("d_batch_rows", "d_scalar_calls"))
    out["core.phi_rows_per_s"] = rate(lambda: witness_refinement_gap(space, W), rows, repeats=3)
    pairs = p["pairs"]
    out["core.eval_phi_per_s"] = rate(
        lambda: [eval_phi(space, pairs[i], pairs[i + 1], W) for i in range(len(pairs) - 1)],
        len(pairs) - 1, repeats=3)
    if "jacobian_A" in p:
        F = _cert_map(p["jacobian_A"], 0.0)
        points = SpherePatch(0.2).sample(np.random.default_rng(0), 400, radius=0.09)
        out["certify.jacobian_per_s"] = rate(
            lambda: [jacobian_fd(F, x, radius=0.1) for x in points], len(points))
    return out
