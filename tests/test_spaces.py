"""Concrete metrics: determinant, area, patch pullback, convexity sandwich."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (antipodal_canon_reference, area_reference, det_reference, hexes, rho,
                      triangle_area2)
from twometric import (SpherePatch, WitnessSet, antipodal_canon, area_ball_space, area_metric,
                       audit, convexity_bound, convexity_baseline, det_metric, det_sphere_space,
                       great_circle_points, sphere_witnesses, unit_sphere)
from twometric.baselines import within_regression
from twometric.spaces import _lift, area_metric_batch, det_metric_batch, sample_sphere

E1, E2, E3 = np.eye(3)


# ---------------------------------------------------------------------------
# determinant metric
# ---------------------------------------------------------------------------

def test_det_on_orthonormal_frame_is_one():
    assert det_metric(E1, E2, E3) == 1.0


def test_det_vanishes_on_repeated_column(rng):
    x, y = sample_sphere(rng, 2)
    assert det_metric(x, y, y) == 0.0


def test_det_direct_value():
    a = np.array([0.6, 0.8, 0.0])
    assert det_metric(a, E2, E3) == pytest.approx(0.6, abs=1e-15)


def test_det_matches_linalg_oracle(rng):
    X, Y, Z = sample_sphere(rng, 50), sample_sphere(rng, 50), sample_sphere(rng, 50)
    for x, y, z in zip(X, Y, Z):
        expected = abs(np.linalg.det(np.column_stack([x, y, z])))
        assert det_metric(x, y, z) == pytest.approx(expected, abs=1e-13)
    assert hexes(det_metric_batch(X, Y, Z)) == hexes(
        [det_reference(x, y, z) for x, y, z in zip(X, Y, Z)])


def test_det_permutation_and_negation_invariance(rng):
    x, y, z = sample_sphere(rng, 3)
    base = det_metric(x, y, z)
    for perm in ((x, z, y), (y, x, z), (z, y, x), (y, z, x), (z, x, y)):
        assert det_metric(*perm) == pytest.approx(base, abs=1e-14)
    assert det_metric(-x, y, z) == base
    assert det_metric(x, -y, z) == base
    assert det_metric(x, y, -z) == base


def test_det_bounded_by_one(rng):
    X, Y, Z = sample_sphere(rng, 2000), sample_sphere(rng, 2000), sample_sphere(rng, 2000)
    assert det_metric_batch(X, Y, Z).max() <= 1.0


def test_unit_sphere_normalizes_and_rejects_zero():
    v = unit_sphere([3.0, 0.0, 4.0])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        unit_sphere([0.0, 0.0, 0.0])


@pytest.mark.parametrize("v", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                               [0.0, -np.inf, 1.0], [1e308, 1e308, 0.0]])
def test_unit_sphere_rejects_a_non_finite_norm(v):
    with pytest.raises(ValueError, match="finite norm"):
        unit_sphere(v)


def test_unit_sphere_divides_by_the_norm(rng):
    # the squares summed left to right on Python floats, whatever the BLAS build
    scales = 10.0 ** rng.integers(-10, 10, size=(200, 1))
    for v in rng.normal(size=(200, 3)) * scales:
        a, b, c = v.tolist()
        assert hexes(unit_sphere(v)) == hexes(v / math.sqrt(a * a + b * b + c * c))


def test_antipodal_canon_idempotent_and_pair_collapsing(rng):
    for _ in range(50):
        x = sample_sphere(rng, 1)[0]
        c = antipodal_canon(x)
        assert np.array_equal(antipodal_canon(c), c)
        assert np.array_equal(antipodal_canon(-x), c)


def canon_cases(rng, dim: int) -> np.ndarray:
    """Points whose canon the coordinate loop decides in every way: random
    points, the axis points and their antipodes, leading coordinates within
    1e-12 of 0, signed zeros, NaN and inf."""
    nan, inf = math.nan, math.inf
    edge = [(-1e-13, -0.5, 0.3), (1e-12, -0.5, 0.3), (-1e-12, -0.5, 0.3),
            (-1.0000001e-12, 0.5, 0.3), (-0.0, -0.0, -0.0), (0.0, 0.0, 0.0), (-0.0, 0.5, -0.3),
            (-0.0, -1e-13, -0.5), (nan, -0.5, 0.3), (-0.5, nan, 0.3), (nan, nan, nan),
            (1e-13, nan, -0.2), (-inf, 0.0, 0.0), (0.0, -inf, 1.0), (inf, -inf, nan),
            (1e-13, -1e-13, 1e-13), (-nan, 0.0, -0.0)]
    edge = [p[:dim] + (0.7,) * (dim - 3) for p in edge]
    scales = 10.0 ** rng.integers(-14, 3, size=(200, 1))
    return np.concatenate([rng.normal(size=(200, dim)) * scales, np.eye(dim), -np.eye(dim),
                           np.array(edge, dtype=float).reshape(-1, dim)])


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_antipodal_canon_of_a_stack_is_the_coordinate_loop_on_each_point(dim, rng):
    P = canon_cases(rng, dim)
    want = np.array([antipodal_canon_reference(p) for p in P])
    # bit for bit: the sign of a zero and of a NaN count
    for p, w in zip(P, want):
        got = antipodal_canon(p)
        assert got.shape == p.shape and got.tobytes() == w.tobytes()
    stacked = antipodal_canon(P)
    assert stacked.shape == P.shape and stacked.tobytes() == want.tobytes()
    # stacks of stacks, and an int point
    assert antipodal_canon(P.reshape(-1, 1, dim)).tobytes() == want.tobytes()
    assert antipodal_canon([0] * (dim - 1) + [-2]).tobytes() == \
        antipodal_canon_reference([0] * (dim - 1) + [-2]).tobytes()


def test_great_circle_points_are_on_the_circle():
    pts = great_circle_points(E1, E2, 64)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.abs(pts[:, 2]).max() == 0.0
    with pytest.raises(ValueError):
        great_circle_points(E1, -E1, 8)


# ---------------------------------------------------------------------------
# area metric
# ---------------------------------------------------------------------------

def test_area_right_triangle():
    assert area_metric([0.0, 0.0], [0.5, 0.0], [0.0, 0.5]) == 0.125


def test_area_repeated_point_vanishes(rng):
    x, y = rng.random((2, 3)) * 0.2
    assert area_metric(x, x, y) == 0.0
    assert area_metric(x, y, y) == 0.0


def test_area_three_dimensional_value():
    got = area_metric([0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.3, 0.4, 0.0])
    assert got == pytest.approx(0.06, abs=1e-15)


def test_area_matches_cross_product_oracle(rng):
    X = rng.random((100, 3)) * 0.4 - 0.2
    Y = rng.random((100, 3)) * 0.4 - 0.2
    Z = rng.random((100, 3)) * 0.4 - 0.2
    for x, y, z in zip(X, Y, Z):
        expected = 0.5 * np.linalg.norm(np.cross(y - x, z - x))
        assert area_metric(x, y, z) == pytest.approx(expected, rel=1e-10, abs=1e-14)
    assert hexes(area_metric_batch(X, Y, Z)) == hexes(
        [area_reference(x, y, z) for x, y, z in zip(X, Y, Z)])


def test_area_translation_rotation_invariance(rng):
    x, y, z = rng.random((3, 3)) * 0.3
    t = rng.random(3) * 0.1
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    base = area_metric(x, y, z)
    assert area_metric(x + t, y + t, z + t) == pytest.approx(base, abs=1e-14)
    assert area_metric(Q @ x, Q @ y, Q @ z) == pytest.approx(base, abs=1e-14)


def test_area_quadratic_scaling_exact_for_dyadic_factors(rng):
    x, y, z = rng.random((3, 3)) * 0.4
    for lam in (0.5, 0.25):
        assert area_metric(lam * x, lam * y, lam * z) == lam ** 2 * area_metric(x, y, z)
    lam = 0.3
    assert area_metric(lam * x, lam * y, lam * z) == pytest.approx(
        lam ** 2 * area_metric(x, y, z), rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: the Gram form reads flat 1-D areas "
                   "up to about 7.5e-9, above the audit's 1e-9 tolerance")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audit_of_the_1d_ball_names_n_alone(seed):
    # on a line every triangle is flat, so d and phi are 0: N fails on
    # every pair of distinct points, and every other axiom holds exactly
    space = area_ball_space(1)
    report = audit(space, witnesses=WitnessSet.sampled(space, 128, seed), seed=seed)
    assert report.failing() == ["N"]


# ---------------------------------------------------------------------------
# patch metric and convexity sandwich
# ---------------------------------------------------------------------------

def test_patch_radius_validation():
    with pytest.raises(ValueError):
        SpherePatch(0.3)
    with pytest.raises(ValueError):
        SpherePatch(0.0)


def test_patch_lift_hits_lower_hemisphere():
    p = np.stack(_lift([[0.1, -0.05], [0.0, 0.0]]), axis=-1)
    assert (p[:, 2] < 0).all()
    assert np.linalg.norm(p, axis=1) == pytest.approx(1.0, abs=1e-12)


def test_patch_metric_degenerate_and_curved_cases():
    patch = SpherePatch(0.2)
    assert patch.metric_batch([[0.1, 0.0]], [[0.1, 0.0]], [[0.0, 0.1]]) == [0.0]
    # flat-colinear distinct points lift to a strictly curved triangle
    curved, = patch.metric_batch([[-0.1, 0.0]], [[0.0, 0.0]], [[0.1, 0.0]])
    assert curved > 1e-5


def test_patch_metric_within_sandwich_of_flat_data():
    patch = SpherePatch(0.2)
    x, y, z = np.array([0.0, 0.0]), np.array([0.1, 0.0]), np.array([0.0, 0.1])
    h, = patch.metric_batch(x[None], y[None], z[None])
    s = triangle_area2(x, y, z) + rho(x, y, z)
    C = convexity_baseline()["C"]
    assert s / C <= h <= C * s


def test_rho_values_and_second_code_path(rng):
    assert rho([0.1, 0.2], [0.1, 0.2], [0.0, 0.0]) == 0.0
    got = rho([0.0, 0.0], [0.1, 0.0], [0.0, 0.1])
    assert got == pytest.approx(0.1 * 0.1 * 0.1 * np.sqrt(2.0), abs=1e-15)
    for _ in range(50):
        x, y, z = rng.random((3, 2)) * 0.2
        oracle = (math.dist(x, y) * math.dist(x, z) * math.dist(y, z))
        assert rho(x, y, z) == pytest.approx(oracle, rel=1e-12)


def test_rho_permutation_invariance(rng):
    x, y, z = rng.random((3, 2)) * 0.2
    base = rho(x, y, z)
    assert rho(z, x, y) == pytest.approx(base, rel=1e-12)
    assert rho(y, z, x) == pytest.approx(base, rel=1e-12)


def test_convexity_bound_baseline_regression():
    base = convexity_baseline()
    report = convexity_bound(radius=base["r"], samples=base["samples"],
                             seed=base["seed"])
    assert np.isfinite(report.C) and report.C >= 1.0
    assert within_regression(report.C, base["C"])
    payload = report.to_json()
    assert {"r", "samples", "seed", "upper_ratio", "lower_ratio", "C"} <= set(payload)


def test_convexity_bound_non_increasing_in_radius():
    big = convexity_bound(radius=0.2, samples=4000, seed=42)
    small = convexity_bound(radius=0.1, samples=4000, seed=42)
    assert small.C <= big.C * 1.05


def test_convexity_bound_counts_degenerate_triples():
    report = convexity_bound(radius=0.2, samples=3000, seed=1)
    assert report.degenerate_skipped == 0  # continuous sampling never repeats


@pytest.mark.parametrize("samples", [0, -2])
def test_convexity_bound_refuses_sample_counts_below_one(samples):
    with pytest.raises(ValueError, match="sample counts must be >= 1"):
        convexity_bound(samples=samples)


def test_sphere_witnesses_refuse_a_negative_count_and_keep_the_axes_at_zero():
    with pytest.raises(ValueError, match="witness count must be >= 0"):
        sphere_witnesses(-1, seed=0)
    W = sphere_witnesses(0, seed=0)
    assert np.array_equal(W.points, np.concatenate([np.eye(3), -np.eye(3)]))
    assert len(W) == 6


def test_det_sphere_space_audits_on_subsets(rng):
    # restriction to any subset keeps every axiom except possibly
    # nondegeneracy; check on a band around the equator
    from dataclasses import replace

    from twometric import WitnessSet, audit

    band = sample_sphere(rng, 600)
    band[:, 2] *= 0.1
    band /= np.linalg.norm(band, axis=1, keepdims=True)
    restricted = replace(det_sphere_space(),
                         sample=lambda r, n: band[r.integers(0, len(band), n)])
    report = audit(restricted, witnesses=WitnessSet(band[:128]),
                   triples=1500, seed=14)
    assert not report.failing(non_fatal=("N",))
