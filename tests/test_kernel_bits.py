"""Bit pins: the metric kernels and the built-in maps against the forms
they replace.

Below 8 dimensions the kernels add their products in the order
``einsum("...j,...j->...")`` uses on a unit-stride last axis that short:
even terms in one running sum, odd terms in another, then the two.  The det
kernel writes out ``np.cross``; the maps evaluate stacks with
row-by-column ``matmul``.  Each must give the bits of the old form, written
out here as the oracle.  If a numpy release sums in another order, these
tests fail instead of the artifacts moving silently.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from twometric import (SphereContractionParams, SpherePatch, WitnessSet, detect_outcome,
                       make_linear_map, make_sphere_map, sphere_witnesses)
from twometric.core import apply_rows
from twometric.dynamics import measured_contraction_factor
from twometric.spaces import _dot, area_metric_batch, det_metric_batch


def det_einsum(X, Y, Z):
    return np.abs(np.einsum("...j,...j->...", np.asarray(X), np.cross(Y, Z)))


def area_einsum(X, Y, Z):
    X = np.asarray(X, dtype=float)
    U = np.asarray(Y, dtype=float) - X
    V = np.asarray(Z, dtype=float) - X
    uu = np.einsum("...j,...j->...", U, U)
    vv = np.einsum("...j,...j->...", V, V)
    uv = np.einsum("...j,...j->...", U, V)
    return 0.5 * np.sqrt(np.maximum(uu * vv - uv * uv, 0.0))


PATCH = SpherePatch(0.2)



def normal(dim):
    return lambda rng, n: rng.normal(size=(n, dim))


# name: (kernel, einsum oracle, point sampler)
KERNELS = {
    "det": (det_metric_batch, det_einsum, normal(3)),
    "area": (area_metric_batch, area_einsum, normal(3)),
    "patch": (PATCH.metric_batch,
              lambda X, Y, Z: area_einsum(*(PATCH.lift_batch(P) for P in (X, Y, Z))),
              lambda rng, n: PATCH.sample(rng, n)),
}
# with the area kernel in 5-d (the lane order) and 9-d (einsum itself)
ALL_KERNELS = {**KERNELS, "area-5d": (area_metric_batch, area_einsum, normal(5)),
               "area-9d": (area_metric_batch, area_einsum, normal(9))}


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_rows_have_the_einsum_bits(name):
    kernel, oracle, sample = KERNELS[name]
    rng = np.random.default_rng(11)
    X, Y, Z = (sample(rng, 100_000) for _ in range(3))
    assert np.array_equal(kernel(X, Y, Z), oracle(X, Y, Z))


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_candidate_scan_has_the_einsum_bits(name):
    # classify's scan: candidates[:, None] against the tail pairs
    kernel, oracle, sample = KERNELS[name]
    rng = np.random.default_rng(12)
    candidates, A, B = sample(rng, 200), sample(rng, 1500), sample(rng, 1500)
    out = kernel(candidates[:, None], A, B)
    assert out.shape == (200, 1500)
    assert np.array_equal(out, oracle(candidates[:, None], A, B))
    # and the phi scan: pairs[:, None] against the witnesses on the last axis
    out = kernel(A[:, None], B[:, None], candidates)
    assert np.array_equal(out, oracle(A[:, None], B[:, None], candidates))


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_bits_do_not_depend_on_the_layout(name):
    # the oracle sees C-ordered copies; einsum itself sums a strided last
    # axis in another order
    kernel, oracle, sample = ALL_KERNELS[name]
    rng = np.random.default_rng(13)
    dim = sample(rng, 1).shape[-1]
    block = np.concatenate([sample(rng, 20_000) for _ in range(4)], axis=1)
    X = block[:, 0:dim * 3:3]                     # strided last axis
    Y = block[::-1, dim:2 * dim]                  # reversed rows
    Z = np.asfortranarray(block[:, 2 * dim:3 * dim])
    copies = [np.ascontiguousarray(P) for P in (X, Y, Z)]
    assert not X.flags.c_contiguous and not Z.flags.c_contiguous
    assert np.array_equal(kernel(X, Y, Z), oracle(*copies))


@pytest.mark.parametrize("dim", range(1, 8))
def test_dot_adds_in_the_einsum_lane_order(dim):
    rng = np.random.default_rng(14)
    A, B = rng.normal(size=(50_000, dim)), rng.normal(size=(50_000, dim))
    dot = _dot([A[:, j] for j in range(dim)], [B[:, j] for j in range(dim)])
    assert np.array_equal(dot, np.einsum("...j,...j->...", A, B))


@pytest.mark.parametrize("dim", range(1, 10))
def test_area_kernel_has_the_einsum_bits_in_every_dimension(dim):
    # dims 1-7 add in the lane order, dims 8 and 9 call einsum itself
    rng = np.random.default_rng(14 + dim)
    X, Y, Z = (rng.normal(size=(20_000, dim)) for _ in range(3))
    assert np.array_equal(area_metric_batch(X, Y, Z), area_einsum(X, Y, Z))
    # the phi scan (pairs x witnesses) and classify's candidate scan
    for scan in ((X[:200, None], Y[:200, None], Z[:300]), (X[:200, None], Y[:300], Z[:300])):
        out = area_metric_batch(*scan)
        assert out.shape == (200, 300)
        assert np.array_equal(out, area_einsum(*scan))


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_a_nan_coordinate_gives_nan_in_its_own_row_only(name):
    kernel, _, sample = ALL_KERNELS[name]
    rng = np.random.default_rng(15)
    X, Y, Z = (sample(rng, 60) for _ in range(3))
    X[7, 0] = Y[20, -1] = Z[49, 1] = np.nan
    assert np.flatnonzero(np.isnan(kernel(X, Y, Z))).tolist() == [7, 20, 49]
    # in a scan of pairs against witnesses, its pair or its witness
    W = sample(rng, 30)
    W[3, 0] = np.nan
    expected = np.zeros((60, 30), dtype=bool)
    expected[[7, 20]] = True
    expected[:, 3] = True
    assert np.array_equal(np.isnan(kernel(X[:, None], Y[:, None], W)), expected)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_a_single_triple_gives_a_float64(name):
    kernel, oracle, sample = ALL_KERNELS[name]
    x, y, z = sample(np.random.default_rng(16), 3)
    out = kernel(x, y, z)
    assert type(out) is np.float64
    assert out == oracle(x, y, z)


# ---------------------------------------------------------------------------
# built-in maps: one stacked call, the bits of a per-point call
# ---------------------------------------------------------------------------

def sphere_oracle(k, theta):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def f(x):
        t = np.array([x[0], x[1], k * x[2]])
        return rot @ (t / np.linalg.norm(t))
    return f


def random_orthogonal(rng, dim):
    return np.linalg.qr(rng.normal(size=(dim, dim)))[0]


@pytest.mark.parametrize("theta", [0.0, np.pi / 7, 1.2345])
def test_sphere_map_stack_equals_per_point_calls(theta):
    map_ = make_sphere_map(SphereContractionParams(0.1, 0.5, theta))
    oracle = sphere_oracle(0.1, theta)
    P = map_.domain_sample(np.random.default_rng(15), 100_000)
    assert map_.f.broadcasts
    assert np.array_equal(apply_rows(map_.f, P), np.array([oracle(p) for p in P]))
    for p in P[:300]:
        out = map_.f(p)
        assert out.shape == (3,) and np.array_equal(out, oracle(p))


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_linear_map_stack_equals_per_point_calls(dim):
    rng = np.random.default_rng(16 + dim)
    M, k = random_orthogonal(rng, dim), 0.63
    map_ = make_linear_map(M, k)
    P = map_.domain_sample(rng, 50_000)
    assert map_.f.broadcasts
    assert np.array_equal(apply_rows(map_.f, P), np.array([k * (M @ p) for p in P]))
    for p in P[:300]:
        out = map_.f(p)
        assert out.shape == (dim,) and np.array_equal(out, k * (M @ p))


def per_point(map_):
    """The map with its f wrapped in an unmarked function, so every
    evaluation takes one call per point, as before the maps were marked."""
    calls = []

    def f(x):
        calls.append(np.ndim(x))
        return map_.f(x)
    return replace(map_, f=f), calls


def test_marked_maps_give_the_per_point_outcomes():
    W = sphere_witnesses(48, seed=5)
    rng = np.random.default_rng(5)
    cases = [(make_sphere_map(SphereContractionParams(0.1, 0.5, theta)),
              np.array([0.8, 0.0, 0.6])) for theta in (0.0, np.pi / 7, 1.9)]
    cases.append((make_linear_map(random_orthogonal(rng, 3), 0.6),
                  np.array([0.2, -0.1, 0.15])))
    tags = []
    for map_, x0 in cases:
        slow, calls = per_point(map_)
        witnesses = (W if map_.space.name == "det-sphere"
                     else WitnessSet.sampled(map_.space, 64, 5))
        fast = detect_outcome(map_, x0, 150, witnesses=witnesses, seed=5)
        ref = detect_outcome(slow, x0, 150, witnesses=witnesses, seed=5)
        assert json.dumps(fast.to_json()) == json.dumps(ref.to_json())
        assert np.array_equal(fast.trace.points, ref.trace.points)
        assert set(calls) == {1}
        tags.append(fast.tag)
    assert tags == ["FixedPoint", "FixedLine", "FixedLine", "FixedPoint"]


def test_measured_factor_maps_each_stack_in_one_call():
    map_ = make_linear_map(random_orthogonal(np.random.default_rng(6), 3), 0.6)
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return map_.f(x)
    counted.broadcasts = True
    factor = measured_contraction_factor(replace(map_, f=counted), samples=500, seed=6)
    assert len(calls) == 3 and all(shape[1:] == (3,) for shape in calls)
    slow, per_point_calls = per_point(map_)
    assert factor == measured_contraction_factor(slow, samples=500, seed=6)
    assert len(per_point_calls) == sum(shape[0] for shape in calls)
