"""Contractive self-maps and their orbit outcomes.

A map F is d-decreasing with factor k < 1 when d(Fx, Fy, Fz) <= k*d(x,y,z);
F is applied to all three arguments.  Iterating such a map squeezes triple
values geometrically, so the orbit always becomes tri-Cauchy, and the limit
object is either a fixed point or an invariant line: the detector here runs
the orbit, classifies its tail, and then certifies whichever case the
classification suggests by direct residual checks.

Two constructions cover the standard examples: an orthogonal map composed
with a uniform scaling on a ball (factor k^2 for the area metric, fixed
point at the origin), and a vertical squeeze toward the sphere's equator
composed with a rotation (factor k/e^3 on the tube where the horizontal
norm stays >= e; the equator is invariant, and a nontrivial rotation leaves
no fixed point on it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from .core import (TwoMetricSpace, WitnessSet, _at_least, _d_many, _d_max, _distinct_triples,
                   _stacks, _strict, _worst_ratio, apply_rows, broadcasting, eval_phi,
                   point_json)
from .lines import Classification, Line, Thresholds, classify
from .spaces import area_ball_space, det_sphere_space, sample_sphere

# Sampled index triples of an orbit checked against the geometric decay.
_DECAY_TRIPLES = 2000
# Domain triples behind the measured factor that ``detect_outcome`` checks.
_FACTOR_SAMPLES = 500
# Points of the candidate line sampled for the invariance check.
_LINE_SAMPLES = 64


@dataclass(frozen=True)
class SphereContractionParams:
    """Vertical contraction k on the equatorial tube of horizontal radius e,
    optionally composed with a rotation about the vertical axis.  The
    composite factor k/e^3 is below one exactly when k < e^3."""

    k: float
    e: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.k < 1.0:
            raise ValueError("vertical contraction k must lie in (0, 1)")
        if not 0.0 < self.e < 1.0:
            raise ValueError("tube parameter e must lie in (0, 1)")


@dataclass(frozen=True)
class DDecreasingMap:
    """A self-map of a restricted domain with a claimed contraction factor.

    ``certified`` marks factors backed by the constructor's bound; claimed
    factors are always re-measured on samples before being relied on.
    """

    f: Callable[[Any], Any]
    space: TwoMetricSpace
    claimed_factor: float
    certified: bool
    domain_contains: Callable[[Any], bool]
    domain_sample: Callable[[np.random.Generator, int], Any]


def make_sphere_map(params: SphereContractionParams) -> DDecreasingMap:
    """Squeeze-toward-equator composed with a vertical-axis rotation."""
    k, e, theta = params.k, params.e, params.theta
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    squeeze = np.array([1.0, 1.0, k])

    @broadcasting
    def f(x):
        # matmul of a row by a column, and of rot by a column, gives each
        # point the bits of np.linalg.norm(t) and rot @ u
        t = np.asarray(x, dtype=float) * squeeze
        u = t / np.sqrt(np.matmul(t[..., None, :], t[..., :, None])[..., 0])
        return np.matmul(rot, u[..., None])[..., 0]

    space = det_sphere_space()

    def contains(x):
        return np.hypot(x[0], x[1]) >= e - 1e-12 and space.contains(x)

    def sample(rng, count):
        out = np.empty((count, 3))
        have = 0
        while have < count:
            v = sample_sphere(rng, count)
            good = v[np.hypot(v[:, 0], v[:, 1]) >= e]
            take = min(count - have, len(good))
            out[have:have + take] = good[:take]
            have += take
        return out

    return DDecreasingMap(
        f=f,
        space=space,
        claimed_factor=k / e ** 3,
        certified=k < e ** 3,
        domain_contains=contains,
        domain_sample=sample,
    )


def make_linear_map(M, k: float) -> DDecreasingMap:
    """Orthogonal map times a scale k < 1 on the ball; factor k^2 for the
    area metric, with the origin as the unique fixed point."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    if np.abs(M.T @ M - np.eye(M.shape[0])).max() > 1e-12:
        raise ValueError("matrix is not orthogonal")
    if not 0.0 < k < 1.0:
        raise ValueError("scale must lie strictly in (0, 1) to be d-decreasing")
    space = area_ball_space(dim=M.shape[0])

    @broadcasting
    def f(x):
        # matmul of M by a column gives each point the bits of M @ x
        return k * np.matmul(M, np.asarray(x, dtype=float)[..., None])[..., 0]

    return DDecreasingMap(
        f=f,
        space=space,
        claimed_factor=k * k,
        certified=True,
        domain_contains=space.contains,
        domain_sample=space.sample,
    )


def measured_contraction_factor(map_: DDecreasingMap, samples: int = 2000,
                                seed: int = 0) -> float | None:
    """Empirical sup of d(Fx,Fy,Fz)/d(x,y,z) over sampled domain triples.

    Degenerate triples are skipped (their ratios are dominated by rounding);
    None when every sampled triple is degenerate.  A NaN d is not skipped,
    so its NaN ratio makes the factor NaN.
    """
    _at_least(samples, 1, "samples")
    triples = _stacks(map_.domain_sample, seed, samples, 3)
    images = [apply_rows(map_.f, P) for P in triples]
    return _worst_ratio(partial(_d_many, map_.space), triples, images)[0]


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass
class OrbitTrace:
    """Iterates of a map with per-step pair distances and decay statistics."""

    points: Any
    phi_steps: np.ndarray
    truncated: bool = False
    diagnostic: str | None = None
    decay_margin: float | None = None

    def __len__(self) -> int:
        return len(self.points)

    def to_csv(self, path, vertical_column: bool = False) -> None:
        """One row per point: coordinates as ``x1, x2, ...``, or an index
        point as an integer in the ``index`` column."""
        import csv

        pts = np.asarray(self.points)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if pts.ndim > 1:
                coords = [f"x{i + 1}" for i in range(pts.shape[1])]
            else:
                coords = ["index"]
            header = ["step"] + coords + ["phi_step"]
            if vertical_column:
                header.append("x3_abs")
            writer.writerow(header)
            for i in range(len(pts)):
                row = [i]
                row += [repr(float(c)) for c in pts[i]] if pts.ndim > 1 else [str(int(pts[i]))]
                row.append(repr(float(self.phi_steps[i])) if i < len(self.phi_steps) else "")
                if vertical_column:
                    row.append(repr(abs(float(pts[i][2]))))
                writer.writerow(row)


def orbit(map_: DDecreasingMap, x0, steps: int, witnesses: WitnessSet,
          seed: int = 0) -> OrbitTrace:
    """Iterate x_{i+1} = F(x_i) for ``steps`` steps; a negative ``steps``
    is refused with a ``ValueError``.

    Iterates are never projected back into the domain; if one leaves, the
    trace truncates with a diagnostic.  For certified maps, sampled index
    triples are checked against the geometric decay
    d(x_i, x_j, x_k) <= factor^min(i,j,k) and the worst margin recorded.
    """
    _at_least(steps, 0, "step count")
    if not map_.domain_contains(x0):
        raise ValueError("start point outside the map's restricted domain")
    pts = [x0]
    truncated = False
    diagnostic = None
    for i in range(steps):
        nxt = map_.f(pts[-1])
        if not map_.domain_contains(nxt):
            truncated = True
            diagnostic = f"iterate {i + 1} left the domain; trace truncated"
            break
        pts.append(nxt)
    seq = np.asarray(pts)
    phi_steps = eval_phi(map_.space, seq[:-1], seq[1:], witnesses)

    decay_margin = None
    if map_.certified and len(seq) >= 3:
        idx = _distinct_triples(np.random.default_rng(seed + 1), len(seq), _DECAY_TRIPLES)
        if len(idx):
            vals = _d_many(map_.space, seq[idx[:, 0]], seq[idx[:, 1]], seq[idx[:, 2]])
            bound = map_.claimed_factor ** idx[:, 0]
            decay_margin = float((vals - bound).max())

    return OrbitTrace(
        points=seq,
        phi_steps=phi_steps,
        truncated=truncated,
        diagnostic=diagnostic,
        decay_margin=decay_margin,
    )


# ---------------------------------------------------------------------------
# outcome detection
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Verdict of the orbit detector: a certified fixed point, a certified
    invariant line, or an explicit refusal with evidence."""

    tag: str                       # FixedPoint | FixedLine | Indeterminate
    measured_factor: float | None
    classification: Classification | None = None
    point: Any = None
    residual: float | None = None
    line: Line | None = None
    invariance_defect: float | None = None
    uniqueness_ok: bool | None = None
    min_point_residual: float | None = None
    diagnostic: str | None = None
    trace: OrbitTrace | None = field(default=None, repr=False)  # not in to_json

    def to_json(self) -> dict:
        """Strict JSON, by the rule of ``core._strict``."""
        out = {
            "tag": self.tag,
            "measured_factor": self.measured_factor,
            "diagnostic": self.diagnostic,
        }
        if self.point is not None:
            out["point"] = point_json(self.point)
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.line is not None:
            out["line"] = self.line.to_json()
        if self.invariance_defect is not None:
            out["invariance_defect"] = float(self.invariance_defect)
        if self.uniqueness_ok is not None:
            out["uniqueness_ok"] = bool(self.uniqueness_ok)
        if self.min_point_residual is not None:
            out["min_point_residual"] = float(self.min_point_residual)
        if self.classification is not None:
            out["classification"] = self.classification.to_json()
        return _strict(out)


def _fixed_point_outcome(map_, y, witnesses, thresholds, measured, cls):
    residual = eval_phi(map_.space, y, map_.f(y), witnesses)
    fixed = residual <= thresholds.fixed_point
    return Outcome(
        "FixedPoint" if fixed else "Indeterminate", measured, cls, point=y, residual=residual,
        diagnostic=None if fixed else
        f"candidate residual {residual:.3g} exceeds {thresholds.fixed_point:.3g}")


def detect_outcome(map_: DDecreasingMap, x0, steps: int, witnesses: WitnessSet,
                   thresholds: Thresholds = Thresholds(), seed: int = 0) -> Outcome:
    """Run the orbit, classify its tail, and certify the resulting case.

    A fixed point is claimed only from the residual phi(y, F(y)) -- never
    from orbit convergence alone, since the map need not be continuous for
    the pair distance.  A fixed line requires the sampled membership defect
    of mapped members to stay within tolerance, plus a uniqueness check that
    two separated image points regenerate the same line.
    """
    measured = measured_contraction_factor(map_, samples=_FACTOR_SAMPLES, seed=seed)
    if measured is not None and not measured < 1.0:  # NaN is refused too
        raise ValueError(f"map is not contractive on samples (measured {measured:.6g})")

    trace = orbit(map_, x0, steps, witnesses=witnesses, seed=seed)
    outcome = _certified_outcome(map_, trace, witnesses, thresholds, measured)
    outcome.trace = trace
    return outcome


def _certified_outcome(map_, trace, witnesses, thresholds, measured):
    """The verdict on an orbit trace: classify its tail, then certify."""
    if trace.truncated:
        return Outcome("Indeterminate", measured, diagnostic=trace.diagnostic)
    cls = classify(map_.space, trace.points, witnesses, thresholds)

    if cls.tag in ("CauchySequence", "UniquePoint"):
        y = cls.limit if cls.tag == "CauchySequence" else cls.point
        return _fixed_point_outcome(map_, y, witnesses, thresholds, measured, cls)
    if cls.tag != "LineCase":
        return Outcome("Indeterminate", measured, cls,
                       diagnostic="no candidate limit point passed the tail residual")

    line = cls.line
    if line.members is not None:
        members = list(line.members)
    elif map_.space.line_points is not None:
        sampled = np.asarray(map_.space.line_points(line.g1, line.g2, _LINE_SAMPLES))
        members = list(sampled[line.contains_each(map_.space, sampled)])
    else:
        members = list(cls.passers)
    images = apply_rows(map_.f, members)
    invariance_defect = float(_d_max(map_.space, images, line.g1, line.g2))
    min_residual = float(eval_phi(map_.space, members, images, witnesses).min())

    base = Outcome("Indeterminate", measured, cls, line=replace(line, members=tuple(members)),
                   invariance_defect=invariance_defect, min_point_residual=min_residual)

    # Two separated image points must regenerate the same line.  A NaN pair
    # distance is neither separated nor collapsed, so it decides nothing.
    spread = eval_phi(map_.space, images[:1], images, witnesses)
    if np.isnan(spread).any():
        return replace(base, diagnostic=f"pair distance between mapped line members 0 and "
                                        f"{np.isnan(spread).argmax()} is NaN")
    far = np.flatnonzero(spread > thresholds.min_phi)
    if not len(far):
        # The image collapses to one point, which must then be fixed.
        return _fixed_point_outcome(map_, images[0], witnesses, thresholds, measured, cls)
    through = Line(images[0], images[far[0]], thresholds.colinear)
    uniqueness_ok = bool(through.contains_each(map_.space, [line.g1, line.g2]).all())

    if invariance_defect <= thresholds.colinear and uniqueness_ok:
        return replace(base, tag="FixedLine", uniqueness_ok=uniqueness_ok)
    return replace(base, uniqueness_ok=uniqueness_ok,
                   diagnostic="line invariance or uniqueness check failed at tolerance")
