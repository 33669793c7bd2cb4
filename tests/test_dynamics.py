"""Dynamics: map constructors, contraction measurement, orbits, outcomes."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import area_reference, csv_trace, det_reference, tail_residual
from twometric import (DDecreasingMap, FiniteTwoMetricSpace,
                       SphereContractionParams, Thresholds, WitnessSet, area_metric,
                       det_metric, det_sphere_space, detect_outcome,
                       make_linear_map, make_sphere_map,
                       measured_contraction_factor, orbit, sphere_witnesses)
from twometric import dynamics
from twometric.core import eval_phi
from twometric.dynamics import _DECAY_TRIPLES, OrbitTrace
from twometric.spaces import sample_sphere

E1, E2, E3 = np.eye(3)
SPHERE = det_sphere_space()


def rotation_z(theta: float, dim: int = 3) -> np.ndarray:
    M = np.eye(dim)
    c, s = np.cos(theta), np.sin(theta)
    M[0, 0], M[0, 1], M[1, 0], M[1, 1] = c, -s, s, c
    return M


def equatorial(t: float) -> np.ndarray:
    return np.array([np.cos(t), np.sin(t), 0.0])


def swap_map_on_convex_boundary(rng) -> DDecreasingMap:
    """Six points on a strictly convex surface (radius-1/2 sphere) with the
    area metric; the map interchanges two points and collapses the rest."""
    points = 0.5 * sample_sphere(rng, 6)
    finite = FiniteTwoMetricSpace.from_points(points, area_metric)
    mapping = [1, 0, 0, 0, 0, 0]
    return DDecreasingMap(
        f=lambda i: mapping[int(i)],
        space=finite.as_space(), claimed_factor=0.5, certified=False,
        domain_contains=lambda i: True,
        domain_sample=lambda r, n: r.integers(0, 6, size=n),
    )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_sphere_params_validation():
    with pytest.raises(ValueError):
        SphereContractionParams(0.0, 0.5)
    with pytest.raises(ValueError):
        SphereContractionParams(0.1, 1.5)
    # a tube of radius 1e-320 is the whole sphere: the certified factor is
    # 1 / (k^2 r^3), 100.0000003 at k = 0.1, and the map is refused
    tube = make_sphere_map(SphereContractionParams(0.1, 1e-320))
    assert tube.claimed_factor == pytest.approx(100.0000003, abs=1e-6)
    with pytest.raises(ValueError, match="map is not contractive"):
        detect_outcome(tube, np.array([0.8, 0.0, 0.6]), 100, sphere_witnesses(8, 0))


@pytest.mark.parametrize("e", [1e-320, 1e-5])
def test_the_decay_check_of_a_map_that_does_not_contract_overflows_without_a_warning(e):
    # the certified factor is about 100, whose powers pass the float range
    # within the 200 steps of a default ``iterate``
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = orbit(make_sphere_map(SphereContractionParams(0.1, e)), np.array([0.8, 0.0, 0.6]),
                      200, sphere_witnesses(4, 0))
    assert np.isfinite(trace.decay_margin)


@pytest.mark.parametrize("x0", [[1e300, 0.0, 0.0], [1e200, 1e200, 1e200]])
def test_a_sphere_start_whose_norm_overflows_is_outside_without_a_warning(x0):
    # every warning fails a test here, so the norm is taken without one
    assert not det_sphere_space().contains(np.array(x0))
    with pytest.raises(ValueError, match="outside the map's restricted domain"):
        orbit(make_sphere_map(SphereContractionParams(0.1, 0.5, 0.3)), np.array(x0), 10,
              sphere_witnesses(4, 0))


def exact_sphere_factor(k, e):
    return k / (e * e + k * k * (1.0 - e * e)) ** 1.5


def edge_triple(e):
    """Three points of the unit sphere at horizontal radius e, two above
    the equator and one below: a triple that spans."""
    z = (1.0 - e * e) ** 0.5
    return [np.array([e * np.cos(t), e * np.sin(t), sign * z])
            for t, sign in ((0.3, 1.0), (2.1, 1.0), (4.2, -1.0))]


def test_sphere_map_claimed_factor_and_certification():
    # the factor is exact, so it is certified whether or not it is below one
    demo = make_sphere_map(SphereContractionParams(0.1, 0.5, 0.0))
    assert demo.claimed_factor == pytest.approx(exact_sphere_factor(0.1, 0.5), rel=1e-9)
    assert round(demo.claimed_factor, 4) == 0.7653
    assert demo.certified
    steep = make_sphere_map(SphereContractionParams(0.2, 0.5))
    assert steep.certified
    assert round(steep.claimed_factor, 4) == 1.3499


@pytest.mark.parametrize("k, e", [(0.1, 0.5), (0.14, 0.5), (0.02, 0.2), (0.5, 0.9), (0.9, 0.1)])
def test_sphere_map_factor_is_its_ratio_at_the_tube_edge(k, e):
    # d(Fx, Fy, Fz) / d(x, y, z) = k / (|Sx| |Sy| |Sz|), S = diag(1, 1, k),
    # whose |Sx| is least on the edge of the tube: the ratio's sup is there
    map_ = make_sphere_map(SphereContractionParams(k, e, 0.7))
    x, y, z = edge_triple(e)
    assert all(map_.domain_contains(p) for p in (x, y, z))
    ratio = det_metric(map_.f(x), map_.f(y), map_.f(z)) / det_metric(x, y, z)
    assert ratio == pytest.approx(exact_sphere_factor(k, e), rel=1e-9)
    # the claim is taken at the domain's edges, 1e-12 inside the tube and
    # 1e-9 inside the sphere, which move it by less than 1e-8
    assert ratio <= map_.claimed_factor
    assert map_.claimed_factor == pytest.approx(exact_sphere_factor(k, e), rel=1e-8)


@pytest.mark.parametrize("k", [0.14, 0.2])
def test_a_sphere_map_whose_factor_reaches_one_is_refused_at_every_seed(k):
    map_ = make_sphere_map(SphereContractionParams(k, 0.5, np.pi / 7))
    W = sphere_witnesses(8, seed=0)
    for seed in range(50):
        with pytest.raises(ValueError, match="map is not contractive"):
            detect_outcome(map_, np.array([0.8, 0.0, 0.6]), 60, witnesses=W, seed=seed)


def test_a_factor_past_the_float_range_is_refused():
    # the factor's denominator underflows: a factor past any float
    map_ = make_sphere_map(SphereContractionParams(1e-170, 1e-100))
    assert map_.claimed_factor == np.inf and map_.certified
    with pytest.raises(ValueError, match="map is not contractive"):
        detect_outcome(map_, np.array([0.8, 0.0, 0.6]), 10, witnesses=sphere_witnesses(8, 0))


def test_sphere_map_fixes_equator_pointwise_without_rotation():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, 0.0))
    for t in (0.0, 0.7, 2.4):
        p = equatorial(t)
        assert np.linalg.norm(m.f(p) - p) <= 1e-15


def test_linear_map_validation():
    with pytest.raises(ValueError, match="orthogonal"):
        make_linear_map(np.eye(3) * 1.01, 0.5)
    with pytest.raises(ValueError, match="strictly"):
        make_linear_map(np.eye(3), 1.0)
    assert make_linear_map(np.eye(3), 0.5).claimed_factor == 0.25


def test_rotation_isometry_on_both_metrics(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    for _ in range(20):
        x, y, z = sample_sphere(rng, 3)
        assert det_metric(Q @ x, Q @ y, Q @ z) == pytest.approx(
            det_metric(x, y, z), abs=1e-12)
        u, v, w = rng.random((3, 3)) * 0.4 - 0.2
        assert area_metric(Q @ u, Q @ v, Q @ w) == pytest.approx(
            area_metric(u, v, w), abs=1e-12)


# ---------------------------------------------------------------------------
# measured factors
# ---------------------------------------------------------------------------

def test_identity_map_measures_exactly_one():
    ident = DDecreasingMap(
        f=lambda x: x, space=SPHERE,
        claimed_factor=1.0, certified=False,
        domain_contains=lambda x: True, domain_sample=sample_sphere)
    assert measured_contraction_factor(ident, samples=500, seed=1) == 1.0


def test_sphere_map_measured_factor_within_claimed():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    measured = measured_contraction_factor(m, samples=2000, seed=2)
    assert measured <= m.claimed_factor


def test_linear_map_measured_factor_attains_square():
    m = make_linear_map(rotation_z(2 * np.pi / 5), 0.5)
    measured = measured_contraction_factor(m, samples=2000, seed=3)
    assert measured <= 0.25 + 1e-9
    assert measured >= 0.25 - 1e-3  # equality is attained in flat geometry


def test_all_degenerate_triples_flagged_as_undefined(rng):
    m = swap_map_on_convex_boundary(rng)
    degenerate = DDecreasingMap(
        f=lambda i: 0, space=m.space,
        claimed_factor=0.5, certified=False, domain_contains=lambda i: True,
        domain_sample=lambda r, n: np.zeros(n, dtype=int))
    assert measured_contraction_factor(degenerate, samples=100, seed=4) is None


def nan_kernel_linear_map():
    """The scale-0.6 linear map (factor 0.36) on an area ball whose kernel
    is NaN when the first point has x_0 > 0.3: only unmapped samples reach
    that region, since the map scales the radius-0.5 ball into 0.3."""
    m = make_linear_map(np.eye(3), 0.6)
    clean = m.space.d_batch

    def kernel(X, Y, Z):
        return np.where(np.asarray(X)[..., 0] > 0.3, np.nan, clean(X, Y, Z))

    return replace(m, space=replace(m.space, d_batch=kernel))


def test_measured_factor_is_nan_when_the_metric_is():
    assert np.isnan(measured_contraction_factor(nan_kernel_linear_map(), samples=2000))


def test_detect_outcome_refuses_a_nan_factor():
    m = nan_kernel_linear_map()
    with pytest.raises(ValueError, match="measured nan"):
        detect_outcome(m, np.full(3, 0.2), 100, WitnessSet.sampled(m.space, 64, 0))


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_vertical_component_decays_monotonically():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    trace = orbit(m, np.array([0.8, 0.0, 0.6]), 40,
                  witnesses=sphere_witnesses(32, seed=5))
    heights = np.abs(np.asarray(trace.points)[:, 2])
    assert (np.diff(heights) <= 0).all()
    assert heights[-1] <= 1e-6


def test_orbit_constant_from_fixed_start():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, 0.0))
    trace = orbit(m, E1, 30, witnesses=sphere_witnesses(32, seed=6))
    assert np.abs(np.asarray(trace.points) - E1).max() <= 1e-12
    assert trace.phi_steps.max() <= 1e-12


def test_orbit_linear_norms_decay_by_scale():
    m = make_linear_map(rotation_z(1.0), 0.5)
    trace = orbit(m, np.array([0.3, 0.2, 0.1]), 30,
                  witnesses=WitnessSet.sampled(m.space, 32, seed=7))
    norms = np.linalg.norm(np.asarray(trace.points), axis=1)
    assert np.allclose(norms[1:] / norms[:-1], 0.5, atol=1e-12)


def test_orbit_decay_margin_for_certified_maps():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    trace = orbit(m, np.array([0.8, 0.0, 0.6]), 150,
                  witnesses=sphere_witnesses(32, seed=8))
    assert trace.decay_margin is not None
    assert trace.decay_margin <= 1e-9


def old_decay_triples(length, seed):
    """The decay check's index triples as orbit once drew them: the random
    rows sorted, then filtered to i < j < k."""
    rng = np.random.default_rng(seed + 1)
    idx = np.sort(rng.integers(0, length, size=(_DECAY_TRIPLES, 3)), axis=1)
    return idx[(idx[:, 0] < idx[:, 1]) & (idx[:, 1] < idx[:, 2])]


@pytest.mark.parametrize("length", [3, 4, 10, 201, 301])
def test_distinct_triples_match_the_sort_and_filter_decay_draw(length, monkeypatch):
    # orbit's decay check evaluates the points of exactly these triples, and
    # its margin is the worst d - factor^i over them by the scalar area
    # formula; the iterates of a linear map with scale 0.5 are all distinct,
    # so the point stacks name the index triples
    m = make_linear_map(rotation_z(1.0), 0.5)
    seen = []
    d_many = dynamics._d_many

    def spy(space, X, Y, Z):
        seen.append((X, Y, Z))
        return d_many(space, X, Y, Z)

    monkeypatch.setattr(dynamics, "_d_many", spy)
    witnesses = WitnessSet.sampled(m.space, 8, seed=7)
    for seed in range(20):
        seen.clear()
        trace = orbit(m, np.array([0.3, 0.2, 0.1]), length - 1, witnesses, seed=seed)
        pts = np.asarray(trace.points)
        want = old_decay_triples(length, seed)
        assert len(pts) == length and len(seen) == 1 and len(want) > 0
        for got, column in zip(seen[0], want.T):
            assert np.array_equal(got, pts[column])
        margin = max(area_reference(*pts[row]) - 0.25 ** int(row[0]) for row in want)
        assert trace.decay_margin == margin


def test_orbit_truncates_when_leaving_domain():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, 0.0))
    drift = DDecreasingMap(
        f=lambda x: (x + np.array([0.0, 0.0, 0.3])) / np.linalg.norm(x + np.array([0.0, 0.0, 0.3])),
        space=SPHERE, claimed_factor=0.9, certified=False,
        domain_contains=m.domain_contains, domain_sample=m.domain_sample)
    trace = orbit(drift, E1, 50, witnesses=sphere_witnesses(16, seed=9))
    assert trace.truncated and len(trace) < 51
    assert f"iterate {len(trace)} left the domain" in trace.diagnostic


def test_orbit_rejects_start_outside_domain():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5))
    with pytest.raises(ValueError, match="outside"):
        orbit(m, E3, 10, sphere_witnesses(16, seed=9))


def test_orbit_refuses_a_negative_step_count():
    def no_work(*args):
        raise AssertionError("work started")

    m = make_sphere_map(SphereContractionParams(0.1, 0.5))
    idle = replace(m, f=no_work, domain_contains=no_work)
    with pytest.raises(ValueError, match="step count must be >= 0"):
        orbit(idle, E1, -3, sphere_witnesses(16, seed=9))


def test_orbit_csv_format(tmp_path):
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    trace = orbit(m, np.array([0.8, 0.0, 0.6]), 10,
                  witnesses=sphere_witnesses(16, seed=10))
    path = tmp_path / "trace.csv"
    trace.to_csv(path, vertical_column=True)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "step,x1,x2,x3,phi_step,x3_abs"
    assert len(rows) == len(trace) + 1
    first = rows[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.8
    assert rows[-1].split(",")[4] == ""  # no pair distance after the last point


def csv_cases() -> dict:
    """Traces whose rows ``to_csv`` must write as the ``csv`` module does:
    an orbit, a truncated trace whose phi is shorter than its points, odd
    floats in every column, and index traces."""
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    trace = orbit(m, np.array([0.8, 0.0, 0.6]), 60, witnesses=sphere_witnesses(16, seed=10))
    odd = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030,
           -1e-300, 1e300, -1.5, 0.1, 1e16, -123456789.125]
    rng = np.random.default_rng(33)
    odd_points = np.array([rng.permutation(odd) for _ in range(3)]).T
    return {
        "orbit": trace,
        "truncated": replace(trace, points=trace.points[:20], phi_steps=trace.phi_steps[:7],
                             truncated=True),
        "odd floats": OrbitTrace(odd_points, np.array(odd[:-1])[::-1]),
        "planar": OrbitTrace(odd_points[:, :2], np.array(odd)),
        "empty": OrbitTrace(np.zeros((0, 3)), np.zeros(0)),
        "index": OrbitTrace(np.array([0, 3, 3, 1, 2, 2]), np.array([0.5, np.nan, 0.0, -0.0, 1e-9])),
        "index, truncated": OrbitTrace(np.array([4, 0, 1]), np.array([np.inf])),
    }


@pytest.mark.parametrize("name, vertical_column", [
    *[(name, v) for name in ("orbit", "truncated", "odd floats", "empty") for v in (False, True)],
    ("planar", False), ("index", False), ("index, truncated", False)])
def test_to_csv_writes_the_bytes_of_the_csv_module(tmp_path, name, vertical_column):
    trace = csv_cases()[name]
    trace.to_csv(tmp_path / "got.csv", vertical_column=vertical_column)
    csv_trace(trace, tmp_path / "want.csv", vertical_column=vertical_column)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# outcome detection
# ---------------------------------------------------------------------------

def test_rotated_squeeze_has_equator_as_fixed_line():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    out = detect_outcome(m, np.array([0.8, 0.0, 0.6]), 200,
                         witnesses=sphere_witnesses(128, seed=11), seed=11)
    assert out.tag == "FixedLine"
    assert out.invariance_defect <= 1e-6
    assert out.uniqueness_ok
    assert max(abs(p[2]) for p in out.line.members) <= 1e-6
    assert out.min_point_residual >= np.sin(np.pi / 7) - 1e-6


def test_pure_squeeze_from_equatorial_start_is_fixed_point():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, 0.0))
    out = detect_outcome(m, equatorial(0.4), 200,
                         witnesses=sphere_witnesses(128, seed=12), seed=12)
    assert out.tag == "FixedPoint"
    assert out.residual <= 1e-10


def test_linear_map_contracts_to_origin():
    m = make_linear_map(rotation_z(2 * np.pi / 5), 0.5)
    out = detect_outcome(m, np.array([0.3, 0.1, 0.2]), 60,
                         witnesses=WitnessSet.sampled(m.space, 128, seed=13),
                         seed=13)
    assert out.tag == "FixedPoint"
    assert out.residual <= 1e-9
    assert np.linalg.norm(out.point) <= 1e-9


@pytest.mark.parametrize("steps, tag, residual", [
    # ids name each case by its residual to four figures
    pytest.param(200, "Indeterminate", 4.1952513488401716e-06, id="200-Indeterminate-4.195e-06"),
    pytest.param(300, "Indeterminate", 2.4837575699328352e-08, id="300-Indeterminate-2.484e-08"),
    pytest.param(500, "FixedPoint", 8.70623140254777e-13, id="500-FixedPoint-8.706e-13"),
])
def test_a_failed_case_falls_back_on_the_last_orbit_point(steps, tag, residual):
    # the classified case fails at each length (no candidate limit at 200,
    # the line check at 300 and 500); the residual of the last orbit point
    # alone decides, against fixed_point = 1e-8
    m = make_linear_map(rotation_z(1.7), 0.95)
    W = WitnessSet.sampled(m.space, 64, seed=0)
    out = detect_outcome(m, 0.4 / np.sqrt(3) * np.ones(3), steps, witnesses=W, seed=0)
    last = out.trace.points[-1]
    # abs=0: approx's default absolute slack of 1e-12 would pass any
    # residual below about 1.9e-12
    assert eval_phi(m.space, last, m.f(last), W) == pytest.approx(residual, rel=1e-2, abs=0)
    assert out.tag == tag and out.diagnostic
    if tag == "FixedPoint":
        assert np.array_equal(out.point, last) and out.residual <= 1e-8
        assert out.diagnostic == "line invariance or uniqueness check failed at tolerance"


def test_a_failed_cauchy_limit_gets_one_residual_test(monkeypatch):
    # a CauchySequence's limit is the last orbit point: when its residual
    # test fails, the fall-back on the last point does not test it again
    residual_points = []
    phi = dynamics.eval_phi

    def counting(space, x, *args, **kwargs):
        if np.ndim(x) == 1:          # one pair: a residual phi(y, F(y))
            residual_points.append(x)
        return phi(space, x, *args, **kwargs)

    monkeypatch.setattr(dynamics, "eval_phi", counting)
    m = make_linear_map(np.eye(3), 0.5)
    W = WitnessSet.sampled(m.space, 32, seed=0)
    out = detect_outcome(m, np.array([0.3, 0.1, 0.2]), 60, witnesses=W,
                         thresholds=Thresholds(fixed_point=1e-25), seed=0)
    assert out.tag == "Indeterminate" and out.classification.tag == "CauchySequence"
    assert out.residual > 1e-25 and out.diagnostic.startswith("candidate residual")
    assert len(residual_points) == 1
    assert np.array_equal(residual_points[0], out.trace.points[-1])


def test_rotated_linear_iterates_are_not_colinear():
    m = make_linear_map(rotation_z(2 * np.pi / 5), 0.5)
    x0 = np.array([0.3, 0.1, 0.2])
    x1, x2 = m.f(x0), m.f(m.f(x0))
    assert area_metric(x0, x1, x2) > 1e-4


def test_swap_map_fixes_a_two_point_line(rng):
    m = swap_map_on_convex_boundary(rng)
    finite_witnesses = WitnessSet(np.arange(6))
    out = detect_outcome(m, 2, 60, witnesses=finite_witnesses, seed=14)
    assert out.tag == "FixedLine"
    assert set(out.line.members) == {0, 1}
    assert out.min_point_residual > 1e-3  # the swapped pair is not fixed


def test_mapped_candidate_inherits_the_tail_property():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    trace = orbit(m, np.array([0.8, 0.0, 0.6]), 120,
                  witnesses=sphere_witnesses(32, seed=15))
    pts = np.asarray(trace.points)
    y = equatorial(0.3)
    before = tail_residual(det_reference, y, pts, 79)
    after = tail_residual(det_reference, m.f(y), pts, 80)
    assert after <= m.claimed_factor * before + 1e-12


def test_map_preserves_colinearity(rng):
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    triple = [equatorial(t) for t in (0.1, 1.3, 2.9)]
    images = [m.f(p) for p in triple]
    assert det_metric(*images) <= 1e-12
    X, Y, Z = (m.domain_sample(rng, 200) for _ in range(3))
    for x, y, z in zip(X, Y, Z):
        assert det_metric(m.f(x), m.f(y), m.f(z)) <= m.claimed_factor * det_metric(x, y, z) + 1e-12


def test_outcome_carries_its_orbit_but_does_not_report_it(rng):
    squeeze = make_sphere_map(SphereContractionParams(0.1, 0.5, 0.3))
    start = np.array([0.8, 0.0, 0.6])
    cases = [  # truncated, FixedPoint, FixedLine, FixedPoint at the origin, finite
        (replace(squeeze, domain_contains=lambda x: abs(x[2]) > 1e-3), start, 60),
        (make_sphere_map(SphereContractionParams(0.1, 0.5, 0.0)), start, 60),
        (squeeze, start, 60),
        (make_linear_map(rotation_z(2 * np.pi / 5), 0.5), np.array([0.3, 0.1, 0.2]), 60),
        (swap_map_on_convex_boundary(rng), 2, 60),
    ]
    tags = []
    for m, x0, steps in cases:
        W = (WitnessSet(np.arange(6)) if m.space.size is not None
             else WitnessSet.sampled(m.space, 32, seed=17))
        out = detect_outcome(m, x0, steps, witnesses=W, seed=17)
        again = orbit(m, x0, steps, witnesses=W, seed=17)
        assert np.array_equal(out.trace.points, again.points)
        assert np.array_equal(out.trace.phi_steps, again.phi_steps)
        assert out.trace.truncated == again.truncated
        assert "trace" not in out.to_json()
        tags.append((out.tag, out.trace.truncated))
    assert tags == [("Indeterminate", True), ("FixedPoint", False), ("FixedLine", False),
                    ("FixedPoint", False), ("FixedLine", False)]


def test_outcome_json_schema():
    m = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    out = detect_outcome(m, np.array([0.8, 0.0, 0.6]), 120,
                         witnesses=sphere_witnesses(64, seed=16), seed=16)
    payload = out.to_json()
    assert payload["tag"] == "FixedLine"
    assert {"measured_factor", "line", "invariance_defect", "uniqueness_ok",
            "min_point_residual", "classification"} <= set(payload)
