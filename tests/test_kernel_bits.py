"""Bit pins: the metric kernels and the built-in maps against the forms
they replace.

The kernels add their products in one order: even terms in one running
sum, odd terms in another, then the two.  Below 8 dimensions that is the
order ``einsum("...j,...j->...")`` uses on a unit-stride last axis that
short, so there each kernel must give the bits of its einsum form, written
out here as the oracle; from 8 on, einsum adds in wider lanes, and the
oracle is the pure-Python reference of ``conftest``.  The det kernel writes
out ``np.cross``; the maps evaluate stacks with row-by-column ``matmul``.
If a numpy release sums in another order, these tests fail instead of the
artifacts moving silently.
"""

from __future__ import annotations

import ast
import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import area_reference, det_reference, hexes, reference_rows
from twometric import (SphereContractionParams, SpherePatch, WitnessSet, area_metric,
                       det_metric, detect_outcome, make_linear_map, make_sphere_map,
                       sphere_witnesses)
from twometric import spaces
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


def area_loop(X, Y, Z):
    return reference_rows(area_reference, X, Y, Z)


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
# with the area kernel in 5-d (einsum's lane order) and 9-d (the reference)
ALL_KERNELS = {**KERNELS, "area-5d": (area_metric_batch, area_einsum, normal(5)),
               "area-9d": (area_metric_batch, area_loop, normal(9))}


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
    # dims 1-7 have the bits of einsum; from 8 on einsum adds in wider
    # lanes, and the kernel keeps its order, the reference's
    oracle = area_einsum if dim < 8 else area_loop
    rng = np.random.default_rng(14 + dim)
    X, Y, Z = (rng.normal(size=(20_000, dim)) for _ in range(3))
    assert np.array_equal(area_metric_batch(X, Y, Z), oracle(X, Y, Z))
    # the phi scan (pairs x witnesses) and classify's candidate scan
    for scan in ((X[:200, None], Y[:200, None], Z[:300]), (X[:200, None], Y[:300], Z[:300])):
        out = area_metric_batch(*scan)
        assert out.shape == (200, 300)
        assert np.array_equal(out, oracle(*scan))


def signed_rows(rng, count, dim):
    """Normal rows with whole-row and single-coordinate signed zeros,
    equal rows, and one NaN and one inf coordinate each in X, Y and Z."""
    X, Y, Z = (rng.normal(size=(count, dim)) for _ in range(3))
    for A in (X, Y, Z):
        A[rng.integers(0, count, 40), rng.integers(0, dim, 40)] = -0.0
        A[rng.integers(0, count, 40), rng.integers(0, dim, 40)] = 0.0
        A[rng.integers(0, count, 20)] = -0.0
    X[:30], Y[30:60], Z[60:90] = Y[:30], Z[30:60], X[60:90]
    for k, A in enumerate((X, Y, Z)):
        A[100 + k, -1] = np.nan
        A[200 + k, 0] = np.inf if k % 2 else -np.inf
    return X, Y, Z


def test_det_kernel_has_the_bits_of_the_reference():
    X, Y, Z = signed_rows(np.random.default_rng(30), 3000, 3)
    with np.errstate(invalid="ignore"):
        got = det_metric_batch(X, Y, Z)
    want = reference_rows(det_reference, X, Y, Z)
    assert hexes(got) == hexes(want)
    assert {"nan", "inf", "0x0.0p+0"} <= set(hexes(got))


@pytest.mark.parametrize("dim", range(1, 17))
def test_area_kernel_has_the_bits_of_the_reference(dim):
    X, Y, Z = signed_rows(np.random.default_rng(30 + dim), 3000, dim)
    with np.errstate(invalid="ignore", over="ignore"):
        got = area_metric_batch(X, Y, Z)
    want = reference_rows(area_reference, X, Y, Z)
    assert hexes(got) == hexes(want)
    assert {"nan", "0x0.0p+0"} <= set(hexes(got))


def test_each_metric_has_one_definition():
    assert det_metric is det_metric_batch and area_metric is area_metric_batch
    # the kernels and every helper they call: elementwise ufuncs only, no
    # dot, matmul or einsum, whose summation order numpy picks at run time
    parts = {det_metric_batch, *det_metric_batch.factors, area_metric_batch,
             *area_metric_batch.gram, spaces._dot, spaces._coords, spaces._differences}
    for part in parts:
        tree = ast.parse(inspect.getsource(part))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"einsum", "matmul", "dot"}, part.__name__
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), part.__name__


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
