"""Bit pins: the metric kernels and the built-in maps against the forms
they replace.

The kernels add their products in one order: even terms in one running
sum, odd terms in another, then the two.  Below 8 dimensions that is the
order ``einsum("...j,...j->...")`` uses on a unit-stride last axis that
short, so there each kernel must give the bits of its einsum form, written
out here as the oracle; from 8 on, einsum adds in wider lanes, and the
oracle is the pure-Python reference of ``conftest``.  The det kernel writes
out ``np.cross``; each built-in map writes one formula, which it runs on
Python floats and on coordinate columns, and a pure-Python reference that
adds in the written order pins both.  If a numpy release sums in another
order, these tests fail instead of the artifacts moving silently.
"""

from __future__ import annotations

import ast
import inspect
import json
import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from conftest import (area_reference, det_reference, hexes, patch_lift, reference_rows, rho,
                      triangle_area2)
from twometric import (ConvexityBoundReport, SphereContractionParams, SpherePatch, WitnessSet,
                       area_metric, convexity_bound, det_metric, detect_outcome,
                       make_linear_map, make_sphere_map, sphere_witnesses)
from twometric import dynamics, spaces
from twometric.certify import (CertInput, _abs_det, _max_radius, _spectral_norms, certify,
                               hessian_bound_fd, jacobian_fd)
from twometric.core import _stacks, apply_rows, broadcasting
from twometric.dynamics import measured_contraction_factor, orbit
from twometric.spaces import (_SANDWICH_ROWS, _dot, area_metric_batch, det_metric_batch,
                              sample_sphere)


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
              lambda X, Y, Z: area_einsum(*(patch_lift(P) for P in (X, Y, Z))),
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


def assert_elementwise(parts):
    """No part names ``linalg``, ``dot``, ``matmul`` or ``einsum``, or uses
    ``@``: numpy picks the summation order of those at run time, by the
    BLAS build and the CPU."""
    for part in parts:
        tree = ast.parse(inspect.getsource(part))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"linalg", "einsum", "matmul", "dot"}, part.__name__
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), part.__name__


def test_each_metric_has_one_definition():
    assert det_metric is det_metric_batch and area_metric is area_metric_batch
    # the kernels and every helper they call: elementwise ufuncs only
    assert_elementwise({det_metric_batch, *det_metric_batch.factors, area_metric_batch,
                        *area_metric_batch.gram, spaces._area, spaces._dot, spaces._coords,
                        spaces._differences, spaces._lengths, spaces._lift})


def test_certify_norms_and_differences_are_elementwise():
    # and |det A|, which gives every certify artifact's det_A and bound, and
    # CertInput's checks of A
    assert_elementwise({_spectral_norms, jacobian_fd, hessian_bound_fd, _max_radius, _abs_det,
                        certify, CertInput})


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
# built-in maps: one formula, run on Python floats by ``f.step`` and on
# coordinate columns by the stacked ``f``, with the bits of a pure-Python
# reference that adds in the written order
# ---------------------------------------------------------------------------

def sphere_reference(k, theta):
    """z scaled by k, each coordinate divided by the root of the squares
    summed left to right, then the rotation by theta, on Python floats."""
    c, s = math.cos(theta), math.sin(theta)

    def f(p):
        x, y, z = map(float, p)
        z = k * z
        n = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / n, y / n, z / n
        return [c * x - s * y, s * x + c * y, z]
    return f


def linear_reference(M, k):
    """k times each row of ``M x``, its products summed left to right, on
    Python floats."""
    rows = np.asarray(M, dtype=float).tolist()

    def f(p):
        out = []
        for row in rows:
            acc = row[0] * float(p[0])
            for m, c in zip(row[1:], p[1:]):
                acc += m * float(c)
            out.append(k * acc)
        return out
    return f


def random_orthogonal(rng, dim):
    return np.linalg.qr(rng.normal(size=(dim, dim)))[0]


@pytest.mark.parametrize("theta", [0.0, np.pi / 7, 1.2345])
def test_sphere_map_stack_equals_per_point_calls(theta):
    map_ = make_sphere_map(SphereContractionParams(0.1, 0.5, theta))
    reference = sphere_reference(0.1, theta)
    P = map_.domain_sample(np.random.default_rng(15), 100_000)
    assert map_.f.broadcasts
    assert hexes(apply_rows(map_.f, P)) == hexes([reference(p) for p in P.tolist()])
    for p in P[:300]:
        out = map_.f(p)
        assert out.shape == (3,) and hexes(out) == hexes(reference(p))


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_linear_map_stack_equals_per_point_calls(dim):
    rng = np.random.default_rng(16 + dim)
    M, k = random_orthogonal(rng, dim), 0.63
    map_ = make_linear_map(M, k)
    reference = linear_reference(M, k)
    P = map_.domain_sample(rng, 50_000)
    assert map_.f.broadcasts
    assert hexes(apply_rows(map_.f, P)) == hexes([reference(p) for p in P.tolist()])
    for p in P[:300]:
        out = map_.f(p)
        assert out.shape == (dim,) and hexes(out) == hexes(reference(p))


def check_step(map_, reference, P):
    """``f.step`` on tuples of Python floats gives tuples of them, with
    the bits of the stacked ``f`` and of the reference."""
    want = hexes(apply_rows(map_.f, P))
    steps = [map_.f.step(p) for p in map(tuple, P.tolist())]
    assert all(type(q) is tuple and all(type(c) is float for c in q) for q in steps)
    assert hexes(steps) == want == hexes([reference(p) for p in P.tolist()])


@pytest.mark.parametrize("k, e, theta", [
    (0.1, 0.5, 0.0), (0.1, 0.5, np.pi / 7), (0.05, 0.3, 1.2345), (0.3, 0.9, 2.5),
    (0.9, 0.2, -0.7), (1e-3, 0.99, 3.0)])
def test_sphere_map_step_has_the_stack_bits(k, e, theta):
    map_ = make_sphere_map(SphereContractionParams(k, e, theta))
    check_step(map_, sphere_reference(k, theta),
               map_.domain_sample(np.random.default_rng(31), 10_000))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
def test_linear_map_step_has_the_stack_bits(dim):
    rng = np.random.default_rng(32 + dim)
    M, k = random_orthogonal(rng, dim), 0.71
    map_ = make_linear_map(M, k)
    check_step(map_, linear_reference(M, k), map_.domain_sample(rng, 10_000))


def domain_cases():
    """(map, points) pairs: points on both sides of one edge of the
    built-in domain checks, the sphere's 1e-9 and the tube's and the
    ball's 1e-12, and points with a NaN, an inf or a norm that overflows,
    all outside."""
    tiny = np.linspace(-1e-13, 1e-13, 41)
    cases = []
    for e in (0.5, 0.3):
        sphere = make_sphere_map(SphereContractionParams(0.1, e, 0.4))
        u = sphere.domain_sample(np.random.default_rng(33), 20)
        radial = [p * (1.0 + t) for p in u for t in np.r_[1e-9 + tiny, -1e-9 + tiny]]
        h = e - 1e-12 + tiny
        tube = np.column_stack([h * math.cos(1.1), h * math.sin(1.1), np.sqrt(1.0 - h * h)])
        cases += [(sphere, np.array(radial)), (sphere, tube)]
    for dim in (1, 3, 9):
        ball = make_linear_map(np.eye(dim), 0.5)
        u = ball.domain_sample(np.random.default_rng(34), 20)
        u /= np.sqrt((u * u).sum(axis=1, keepdims=True))
        cases.append((ball, np.concatenate([u * (0.5 + 1e-12 + t) for t in tiny])))
    bad = [[np.nan, 0.6, 0.8], [0.6, 0.8, np.nan], [np.inf, 0.0, 0.0], [0.6, -np.inf, 0.8],
           [1e300, 0.0, 0.0], [1e200, 1e200, 1e200], [1e308, 1e308, 0.0]]
    cases += [(make_sphere_map(SphereContractionParams(0.1, 0.5)), np.array(bad)),
              (make_linear_map(np.eye(3), 0.5), np.array(bad))]
    return cases


def test_domain_checks_read_tuples_as_arrays_at_every_edge():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for map_, P in domain_cases():
            contains = map_.domain_contains
            assert contains.floats
            on_arrays = [contains(p) for p in P]
            assert on_arrays == [contains(p) for p in map(tuple, P.tolist())]
            assert all(type(answer) is bool for answer in on_arrays)
            if np.isfinite(P).all() and (P < 1e200).all():
                assert True in on_arrays and False in on_arrays   # both sides of an edge
            else:
                assert not any(on_arrays)


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
        assert hexes(fast.trace.points) == hexes(ref.trace.points)
        assert set(calls) == {1}
        tags.append(fast.tag)
    assert tags == ["FixedPoint", "FixedLine", "FixedLine", "FixedPoint"]


def test_builtin_orbits_have_the_bits_of_their_array_paths():
    """A built-in map steps its orbit on tuples of Python floats; its
    per-point copy, a marked wrapper without ``step`` and a replaced domain
    check step it on arrays, with the same bits, and a declared ``step``
    is what the tuple path calls."""
    rng = np.random.default_rng(35)
    cases = [(make_sphere_map(SphereContractionParams(0.1, 0.5, theta)),
              spaces.unit_sphere([0.8, 0.1, 0.6])) for theta in (0.0, 0.3, 2.5)]
    cases += [(make_linear_map(random_orthogonal(rng, dim), 0.6), np.full(dim, 0.4 / dim ** 0.5))
              for dim in (1, 3, 9)]
    for map_, x0 in cases:
        W = WitnessSet.sampled(map_.space, 16, 35)
        fast = orbit(map_, x0, 300, W, seed=35)
        assert len(fast) == 301 and not fast.truncated
        slow, calls = per_point(map_)
        seen, stepped = [], []

        def contains(x):
            seen.append(type(x))
            return map_.domain_contains(x)
        stepping = broadcasting(lambda x: map_.f(x))
        stepping.step = lambda p: stepped.append(type(p)) or map_.f.step(p)
        others = [slow, replace(map_, f=broadcasting(lambda x: map_.f(x))),
                  replace(map_, domain_contains=contains), replace(map_, f=stepping)]
        for other in others:
            ref = orbit(other, x0, 300, W, seed=35)
            assert hexes(ref.points) == hexes(fast.points)
            assert hexes(ref.phi_steps) == hexes(fast.phi_steps)
            assert ref.decay_margin == fast.decay_margin
        assert calls == [1] * 300 and set(seen) == {np.ndarray} and stepped == [tuple] * 300


def test_orbit_paths_sum_in_a_fixed_order():
    # the maps, orbits and outcomes, and the spaces helpers that an orbit
    # or its outcome reaches: no dot, matmul, @ or norm, whose summation
    # order numpy's BLAS build picks at run time
    for part in (dynamics, spaces.unit_sphere, spaces._length, spaces._on_sphere,
                 spaces._in_ball, spaces.great_circle_points, spaces.chord_points):
        tree = ast.parse(inspect.getsource(part))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "norm"}, \
            part.__name__
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), part.__name__


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


# ---------------------------------------------------------------------------
# planar patch stacks: one coordinate column at a time, the bits of the
# norm, concatenate and mask forms they replace
# ---------------------------------------------------------------------------

def norm_rho(x, y, z):
    x, y, z = (np.asarray(p, dtype=float) for p in (x, y, z))
    return (np.linalg.norm(x - y, axis=-1) * np.linalg.norm(x - z, axis=-1)
            * np.linalg.norm(y - z, axis=-1))


def masked_convexity(radius, samples, seed):
    """The sandwich scan in one pass over whole stacks, with whole-row
    repeat tests, an unconditional mask and concatenated lifts."""
    patch = SpherePatch(radius)
    X, Y, Z = _stacks(patch.sample, seed, samples, 3)
    repeated = (X == Y).all(axis=1) | (X == Z).all(axis=1) | (Y == Z).all(axis=1)
    X, Y, Z = X[~repeated], Y[~repeated], Z[~repeated]
    h = area_metric_batch(*(patch_lift(P) for P in (X, Y, Z)))
    s = triangle_area2(X, Y, Z) + norm_rho(X, Y, Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        upper, lower = float((h / s).max()), float((s / h).max())
    return ConvexityBoundReport(r=radius, samples=samples, seed=seed, upper_ratio=upper,
                                lower_ratio=lower, C=max(upper, lower),
                                degenerate_skipped=int(repeated.sum()))


def report_hexes(report) -> list:
    """Each field of a report, every float as ``float.hex`` gives it."""
    return [float.hex(v) if isinstance(v, float) else v for v in astuple(report)]


# the block scan's edges: one row, a block less one, one block, a block and
# one row, and three blocks with a short fourth
BLOCK_EDGES = [1, _SANDWICH_ROWS - 1, _SANDWICH_ROWS, _SANDWICH_ROWS + 1, 3 * _SANDWICH_ROWS + 7]
# the same edges at two blocks, and six blocks with a short seventh: the
# block edges of the sandwich at the row budget of 2 ** 15
DOUBLE_EDGES = [2 * _SANDWICH_ROWS - 1, 2 * _SANDWICH_ROWS, 2 * _SANDWICH_ROWS + 1,
                6 * _SANDWICH_ROWS + 7]


@pytest.mark.parametrize("radius", [1e-160, 1e-5, 0.1, 0.2])
@pytest.mark.parametrize("samples", sorted({1, 2, 50, 10_000, *BLOCK_EDGES, *DOUBLE_EDGES}))
@pytest.mark.parametrize("seed", [0, 3, 41])
def test_convexity_report_has_the_masked_scan_bytes(radius, samples, seed):
    got = convexity_bound(radius=radius, samples=samples, seed=seed)
    assert report_hexes(got) == report_hexes(masked_convexity(radius, samples, seed))
    # the lifted areas underflow to 0 at r = 1e-160, so s / h is inf, or NaN
    # in a row whose s underflows too, as some row of a block's size does
    assert math.isfinite(got.C) == (radius != 1e-160)
    if radius == 1e-160 and samples >= _SANDWICH_ROWS - 1:
        assert math.isnan(got.C)


def test_convexity_on_a_three_point_grid_skips_as_the_masked_scan(monkeypatch):
    grid = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, -0.05]])
    monkeypatch.setattr(SpherePatch, "sample",
                        lambda self, rng, count, radius=None: grid[rng.integers(0, 3, count)])
    samples = BLOCK_EDGES[-1]
    got = convexity_bound(radius=0.2, samples=samples, seed=4)
    assert got.degenerate_skipped > 0 and got.degenerate_skipped < samples
    assert report_hexes(got) == report_hexes(masked_convexity(0.2, samples, 4))


def test_convexity_with_every_triple_skipped_has_ratios_of_minus_inf():
    # at r = 5e-324 the points are 0 or the least subnormal: seed 8 repeats
    # a point of its one triple, and the max over no triple is -inf
    got = convexity_bound(radius=5e-324, samples=1, seed=8)
    assert got.degenerate_skipped == 1
    assert got.upper_ratio == got.lower_ratio == got.C == -math.inf


def column_stack_sample(rng, count, radius):
    """The patch sampler as four temporaries and ``np.column_stack``."""
    ang = rng.random(count) * 2.0 * np.pi
    rad = radius * np.sqrt(rng.random(count))
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


@pytest.mark.parametrize("count", [1, 7, 100_000])
def test_patch_sample_has_the_column_stack_bits(count):
    for seed in range(30):
        got = PATCH.sample(np.random.default_rng(seed), count)
        want = column_stack_sample(np.random.default_rng(seed), count, PATCH.radius)
        assert got.shape == (count, 2) and got.flags.c_contiguous
        assert hexes(got) == hexes(want)


def test_rho_has_the_norm_bits_on_points_and_stacks():
    rng = np.random.default_rng(21)
    x, y, z = rng.normal(size=(3, 2))
    assert float(rho(x, y, z)).hex() == float(norm_rho(x, y, z)).hex()
    X, Y, Z = (rng.normal(size=(50_000, 2)) for _ in range(3))
    X[7, 1] = np.nan
    Y[9] = X[9]
    got = rho(X, Y, Z)
    assert hexes(got) == hexes(norm_rho(X, Y, Z))
    assert np.isnan(got[7]) and got[9] == 0.0
    A, B, C = X[:600].reshape(20, 30, 2), Y[:30], Z[:600].reshape(20, 30, 2)
    assert rho(A, B, C).shape == (20, 30)
    assert hexes(rho(A, B, C)) == hexes(norm_rho(A, B, C))


def test_sandwich_has_the_bits_of_the_lifted_area_and_the_flat_forms():
    rng = np.random.default_rng(24)
    X, Y, Z = (PATCH.sample(rng, 50_000) for _ in range(3))
    X[7, 1] = np.nan
    Y[9] = X[9]
    h, s = spaces._sandwich(X, Y, Z)
    assert hexes(h) == hexes(area_metric_batch(*(patch_lift(P) for P in (X, Y, Z))))
    assert hexes(s) == hexes(triangle_area2(X, Y, Z) + norm_rho(X, Y, Z))
    assert np.isnan(h[7]) and np.isnan(s[7]) and h[9] == s[9] == 0.0


def test_patch_metric_has_the_bits_of_the_area_kernel_on_concatenated_lifts():
    rng = np.random.default_rng(22)
    X, Y, Z = (PATCH.sample(rng, 20_000) for _ in range(3))
    X[5, 0] = np.nan

    def lifted(*points):
        return area_metric_batch(*(patch_lift(P) for P in points))

    assert float(PATCH.metric_batch(X[0], Y[0], Z[0])).hex() == float(lifted(X[0], Y[0], Z[0])).hex()
    got = PATCH.metric_batch(X, Y, Z)
    assert hexes(got) == hexes(lifted(X, Y, Z)) and np.isnan(got[5])
    scan = (X[:200, None], Y[:300], Z[:300])
    assert PATCH.metric_batch(*scan).shape == (200, 300)
    assert hexes(PATCH.metric_batch(*scan)) == hexes(lifted(*scan))
    assert hexes(np.stack(spaces._lift(X), axis=-1)) == hexes(patch_lift(X))


@pytest.mark.parametrize("count", [0, 1, 7, 100_000])
def test_sample_sphere_has_the_norm_bits(count):
    v = np.random.default_rng(23).normal(size=(count, 3))
    want = v / np.linalg.norm(v, axis=1, keepdims=True)
    got = sample_sphere(np.random.default_rng(23), count)
    assert got.shape == (count, 3) and hexes(got) == hexes(want)
