"""Verdicts read d through the space's kernel.

Line membership, which decides colinearity, and the fixed-line
uniqueness test threshold d evaluated by ``d_batch``.  Each is compared
here against a loop, written out in the test, that evaluates one triple per
kernel call.  Tolerances sit below, at and above each value: at the next
float on either side the scalar metric, which sums in another order, can
disagree with the kernel, so the loop calls the kernel.  At a margin of
1e-6 relative, or 1e-15 near zero, the verdict also matches the scalar
metric (the scalar and batch metrics differ by about 1e-12 relative at
most, and by rounding error near zero).

The worst-ratio helper behind ``measured_contraction_factor``, ``certify``
and ``calibrate_ratio_constant`` is compared against the three blocks it
replaced, written out here.
"""

from __future__ import annotations

import numpy as np
import pytest

from twometric import (Line, SphereContractionParams, SpherePatch, Thresholds,
                       calibrate_ratio_constant, detect_outcome, eval_phi,
                       make_sphere_map, sphere_witnesses)
from twometric.core import _worst_ratio, apply_rows
from twometric.spaces import (area_ball_space, area_metric, area_metric_batch, det_metric,
                              det_sphere_space, great_circle_points)

SPACES = {
    "det-sphere": det_sphere_space,
    "area-ball-3": lambda: area_ball_space(3),
    "area-ball-5": lambda: area_ball_space(5),
}
# The scalar metric each space's kernel must agree with up to rounding.
SCALAR = {"det-sphere": det_metric, "area-ball-3": area_metric, "area-ball-5": area_metric}


def kernel_one(space, x, y, z) -> float:
    """d of one triple through the kernel, as a one-row stack."""
    return float(space.d_batch(*(np.asarray(p, dtype=float)[None] for p in (x, y, z)))[0])


def tolerances(value: float) -> list[float]:
    """Tolerances with the value above, at and below them."""
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


def margins(value: float) -> list[float]:
    """Tolerances clear of the value on either side, by more than the
    scalar and batch metrics differ."""
    gap = max(1e-6 * value, 1e-15)
    return [value - gap, value + gap]


def triples(space, rng, count=12):
    """Random triples, a repeated-point triple (d = 0) and, on the sphere,
    an equatorial triple (d = 0 exactly)."""
    X, Y, Z = (space.sample(rng, count) for _ in range(3))
    out = list(zip(X, Y, Z)) + [(X[0], X[0], Z[0])]
    if space.name == "det-sphere":
        out.append(tuple(great_circle_points([1, 0, 0], [0, 1, 0], 7)[[0, 2, 5]]))
    return out


@pytest.mark.parametrize("name", SPACES)
def test_is_colinear_thresholds_the_kernel(name):
    # (x, y, z) is colinear when x is on the line through y and z
    space = SPACES[name]()
    for x, y, z in triples(space, np.random.default_rng(1)):
        value = kernel_one(space, x, y, z)
        for tol in tolerances(value):
            assert Line(y, z, tol).contains_each(space, [x])[0] == (value <= tol)
        scalar = SCALAR[name](x, y, z)
        for tol in margins(scalar):
            assert Line(y, z, tol).contains_each(space, [x])[0] == (scalar <= tol)


@pytest.mark.parametrize("name", SPACES)
def test_line_membership_thresholds_the_kernel(name):
    space = SPACES[name]()
    rng = np.random.default_rng(2)
    g1, g2 = space.sample(rng, 2)
    points = np.concatenate([space.line_points(g1, g2, 9), space.sample(rng, 9)])
    values = [kernel_one(space, p, g1, g2) for p in points]
    for value in values[::3]:
        for tol in tolerances(value):
            line = Line(g1, g2, tol)
            loop = [v <= tol for v in values]
            assert line.contains_each(space, points).tolist() == loop
            assert [line.contains_each(space, [p])[0] for p in points] == loop
    scalar = [SCALAR[name](p, g1, g2) for p in points]
    for tol in margins(np.median(scalar)):
        loop = [v <= tol for v in scalar]
        assert Line(g1, g2, tol).contains_each(space, points).tolist() == loop


def test_fixed_line_members_and_uniqueness_threshold_the_kernel():
    thresholds = Thresholds()
    rng = np.random.default_rng(4)
    for theta in (np.pi / 7, *rng.uniform(0.3, 2.5, size=3)):
        map_ = make_sphere_map(SphereContractionParams(0.1, 0.5, theta))
        space = map_.space
        W = sphere_witnesses(128, 4)
        out = detect_outcome(map_, np.array([0.8, 0.0, 0.6]), 200, witnesses=W, seed=4)
        assert out.tag == "FixedLine"
        g1, g2 = out.line.g1, out.line.g2
        loop = [p for p in great_circle_points(g1, g2, 64)
                if kernel_one(space, p, g1, g2) <= thresholds.colinear]
        assert np.array_equal(np.asarray(out.line.members), np.asarray(loop))
        images = apply_rows(map_.f, loop)
        far = next(i for i, b in enumerate(images)
                   if eval_phi(space, images[0], b, W) > thresholds.min_phi)
        a, b = images[0], images[far]
        assert out.uniqueness_ok == (kernel_one(space, g1, a, b) <= thresholds.colinear
                                     and kernel_one(space, g2, a, b) <= thresholds.colinear)


# ---------------------------------------------------------------------------
# the worst ratio against the blocks it replaced
# ---------------------------------------------------------------------------

def measured_block(kernel, X, Y, Z, FX, FY, FZ, degenerate_tol=1e-12):
    d0 = kernel(X, Y, Z)
    keep = ~(d0 <= degenerate_tol)
    if not keep.any():
        return None
    d1 = kernel(FX[keep], FY[keep], FZ[keep])
    return float((d1 / d0[keep]).max())


def certify_block(kernel, X, Y, Z, FX, FY, FZ):
    d0 = kernel(X, Y, Z)
    keep = ~(d0 <= 1e-12)
    ratios = kernel(FX[keep], FY[keep], FZ[keep]) / d0[keep]
    worst = float(ratios.max()) if keep.any() else None
    return worst, int(keep.sum())


def calibrate_block(kernel, X, Y, Z, A):
    d0 = kernel(X, Y, Z)
    keep = d0 > 1e-12
    d1 = kernel(X[keep] @ A.T, Y[keep] @ A.T, Z[keep] @ A.T)
    return float((d1 / d0[keep]).max())


PATCH = SpherePatch(0.2)


def nan_kernel(X, Y, Z):
    """The patch metric, NaN where the first point has x_0 > 0.05."""
    return np.where(np.asarray(X)[..., 0] > 0.05, np.nan, PATCH.metric_batch(X, Y, Z))


def patch_triples(rng, count=300):
    P = [PATCH.sample(rng, count, radius=0.1) for _ in range(3)]
    P[1][:20] = P[0][:20]                   # 20 degenerate rows, d = 0
    return P


def same(a, b) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("planted", [False, True])
def test_worst_ratio_matches_the_three_old_blocks(planted):
    kernel = nan_kernel if planted else PATCH.metric_batch
    rng = np.random.default_rng(5)
    A = np.array([[0.3, 0.1], [-0.05, 0.25]])
    P = patch_triples(rng)
    images = [Q @ A.T for Q in P]
    worst, kept = _worst_ratio(kernel, P, images)
    # a NaN row is kept, even a degenerate one
    assert kept == int((~(kernel(*P) <= 1e-12)).sum()) == 280 + 5 * planted
    assert np.isnan(worst) == planted
    assert same(worst, measured_block(kernel, *P, *images))
    old_worst, old_kept = certify_block(kernel, *P, *images)
    assert same(worst, old_worst) and kept == old_kept
    if planted:
        # the calibration block dropped NaN rows; the helper keeps them
        assert not np.isnan(calibrate_block(kernel, *P, A))
    else:
        assert worst == calibrate_block(kernel, *P, A)


def test_worst_ratio_is_none_when_every_triple_is_degenerate():
    X = PATCH.sample(np.random.default_rng(6), 50, radius=0.1)
    images = [X @ np.eye(2).T] * 3
    assert _worst_ratio(PATCH.metric_batch, (X, X, X), images) == (None, 0)
    assert measured_block(PATCH.metric_batch, X, X, X, *images) is None
    assert certify_block(PATCH.metric_batch, X, X, X, *images) == (None, 0)


def test_worst_ratio_keeps_a_small_triangle_above_the_degenerate_floor():
    # a small triangle of area 1e-11 sits between core._DEGENERATE (1e-12)
    # and 1e-10: it is kept, and its image ratio 0.9 beats the large one's
    # 0.25
    triples = [np.zeros((2, 2)), np.array([[0.4, 0.0], [1e-5, 0.0]]),
               np.array([[0.0, 0.4], [0.0, 2e-6]])]
    images = [triples[0], triples[1], np.array([[0.0, 0.1], [0.0, 1.8e-6]])]
    d0, d1 = area_metric_batch(*triples), area_metric_batch(*images)
    assert 1e-12 < d0[1] < 1e-10
    assert _worst_ratio(area_metric_batch, triples, images) == (d1[1] / d0[1], 2)
    assert 0.89 < d1[1] / d0[1] < 0.91 and d1[0] / d0[0] == 0.25


def test_calibration_matches_its_old_loop():
    """A small calibration run against the old loop, written out."""
    config = dict(patch_radius=0.2, inner_radius=0.1, norm_bound=2.0, matrices=6,
                  triples=80, max_condition=4.0, seed=7)
    patch = SpherePatch(0.2)
    rng = np.random.default_rng(7)
    best, kept = 0.0, 0
    while kept < config["matrices"]:
        A = rng.normal(size=(2, 2))
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[1] < 1e-12 or sv[0] / sv[1] > 4.0:
            continue
        A *= (rng.random() * 2.0) / sv[0]
        if np.linalg.norm(A, 2) * 0.1 > 0.2:
            continue
        kept += 1
        X, Y, Z = (patch.sample(rng, 80, radius=0.1) for _ in range(3))
        best = max(best, calibrate_block(patch.metric_batch, X, Y, Z, A)
                   / abs(np.linalg.det(A)))
    assert calibrate_ratio_constant(**config)["C_prime"] == best
