"""Factored det scans against the det kernel itself.

The det kernel declares ``factors = (_cross, _det_outer)``: ``core._d_max``
computes the cross products ``y x z`` once per scan when (y, z) is fixed
along the scan's chunk axis, and once per distinct y when z is fixed and y
repeats.  The oracle is the same kernel behind a plain ``broadcasting``
wrapper, which has no ``factors`` and so takes the kernel on every chunk.
Every value must have the same bits, compared with ``float.hex``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from twometric import (SphereContractionParams, audit, make_sphere_map,
                       sphere_witnesses)
from twometric import core
from twometric.core import _d_max, _lex_swap, broadcasting, eval_phi
from twometric.dynamics import orbit
from twometric.lines import Line, _pair_arrays, classify
from twometric.spaces import _cross, _det_outer, det_metric_batch, det_sphere_space

SPACE = det_sphere_space()


def hexes(values) -> list[str]:
    return [float.hex(float(v)) for v in np.ravel(values)]


def unfactored(space):
    """The space with its kernel behind a marked wrapper without ``factors``."""
    kernel = space.d_batch
    return replace(space, d_batch=broadcasting(lambda X, Y, Z: kernel(X, Y, Z)))


def counted():
    """A det space whose kernel counts its calls, and whose inner factor
    records the shape of the rows each of its calls gets."""
    calls = {"kernel": 0, "inner": []}

    @broadcasting
    def kernel(X, Y, Z):
        calls["kernel"] += 1
        return det_metric_batch(X, Y, Z)

    def inner(Y, Z):
        calls["inner"].append(np.shape(Y))
        return _cross(Y, Z)

    kernel.factors = (inner, _det_outer)
    return replace(SPACE, d_batch=kernel), calls


def sphere(rng, n):
    return SPACE.sample(rng, n)


def witness_pairs(W, rng, count):
    """Audit-like pairs: distinct unordered pairs of witness points, so the
    second point of each pair (after the lexicographic swap) repeats."""
    m = len(W)
    I, J = rng.integers(0, m, size=(2, count))
    keys = np.unique(np.minimum(I, J) * m + np.maximum(I, J))
    P = np.asarray(W.points)
    return P[keys // m], P[keys % m]


def demo_tail(steps=160):
    map_ = make_sphere_map(SphereContractionParams(0.1, 0.5, 1.234))
    seq = np.asarray(orbit(map_, np.array([0.8, 0.0, 0.6]), steps, sphere_witnesses(8, 0)).points)
    idx_i, idx_j = _pair_arrays(len(seq), len(seq) // 2)
    return seq, seq[idx_i], seq[idx_j]


def test_the_kernel_is_its_factors_composed():
    rng = np.random.default_rng(30)
    X, Y, Z = (sphere(rng, 5000) for _ in range(3))
    assert hexes(det_metric_batch(X, Y, Z)) == hexes(_det_outer(X, _cross(Y, Z)))
    W = sphere(rng, 40)
    assert hexes(det_metric_batch(X[:100, None], Y[:100, None], W)) == hexes(
        _det_outer(X[:100, None], _cross(Y[:100, None], W)))
    assert _cross(Y, Z).shape == (5000, 3)
    assert np.array_equal(_cross(Y, Z), np.cross(Y, Z))


# ---------------------------------------------------------------------------
# z fixed, y repeating: phi scans
# ---------------------------------------------------------------------------

def test_audit_like_phi_scan_has_the_kernel_bits():
    rng = np.random.default_rng(31)
    W = sphere_witnesses(60, 31)
    X, Y = witness_pairs(W, rng, 3000)
    space, calls = counted()
    fast = eval_phi(space, X, Y, W)
    assert hexes(fast) == hexes(eval_phi(unfactored(SPACE), X, Y, W))
    # one table over the distinct second points, and no kernel call
    assert calls["kernel"] == 0 and len(calls["inner"]) == 1
    distinct = len(np.unique(_lex_swap(X, Y, False)[1], axis=0))
    assert calls["inner"][0][0] == distinct < len(X)


def test_classify_like_phi_scan_has_the_kernel_bits():
    seq, XI, XJ = demo_tail()
    W = sphere_witnesses(40, 2)
    space, calls = counted()
    assert hexes(eval_phi(space, XI, XJ, W)) == hexes(eval_phi(unfactored(SPACE), XI, XJ, W))
    assert calls["kernel"] == 0 and len(calls["inner"]) == 1
    # passer-like pairs: every pair of a point set, and one point against all
    P = seq[-30:]
    pi, pj = np.triu_indices(len(P), k=1)
    for X, Y in ((P[pi], P[pj]), (P[:1], P)):
        assert hexes(eval_phi(SPACE, X, Y, W)) == hexes(eval_phi(unfactored(SPACE), X, Y, W))


def test_distinct_y_keeps_the_kernel():
    rng = np.random.default_rng(32)
    W = sphere_witnesses(20, 32)
    X, Y = sphere(rng, 50), sphere(rng, 50)
    space, calls = counted()
    assert hexes(eval_phi(space, X, Y, W)) == hexes(eval_phi(unfactored(SPACE), X, Y, W))
    assert calls["kernel"] > 0 and not calls["inner"]


def test_signed_zeros_are_distinct_rows_of_the_table():
    W = sphere_witnesses(10, 33)
    Y = np.tile([0.0, 0.6, 0.8], (4, 1))
    Y[1, 0] = -0.0
    Y = Y[:, None]
    X = np.array([[1.0, 0.0, 0.0], [0.6, -0.8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])[:, None]
    space, calls = counted()
    fast = _d_max(space, X, Y, np.asarray(W.points))
    assert hexes(fast) == hexes(_d_max(unfactored(SPACE), X, Y, np.asarray(W.points)))
    assert calls["inner"] == [(2, 1, 3)]


@pytest.mark.parametrize("where", ["x", "y", "w"])
def test_a_planted_nan_stays_in_its_own_rows(where):
    rng = np.random.default_rng(34)
    W = np.asarray(sphere_witnesses(30, 34).points).copy()
    Y = sphere(rng, 6)[rng.integers(0, 6, size=80)][:, None]
    X = sphere(rng, 80)[:, None]
    expected = np.zeros(80, dtype=bool)
    if where == "x":
        X[17, 0, 1] = np.nan
        expected[17] = True
    elif where == "y":
        bad = Y[5, 0].copy()
        rows = (Y[:, 0] == bad).all(axis=1)
        Y[rows, 0, 2] = np.nan
        expected[rows] = True
    else:
        W[7, 0] = np.nan
        expected[:] = True
    space, calls = counted()
    fast = _d_max(space, X, Y, W)
    assert calls["kernel"] == 0
    assert np.array_equal(np.isnan(fast), expected)
    assert hexes(fast) == hexes(_d_max(unfactored(SPACE), X, Y, W))


@pytest.mark.parametrize("budget", [1, 7, 40, 6 * 30 - 1, 6 * 30, 10 ** 6])
def test_a_small_budget_keeps_the_bits(budget, monkeypatch):
    # 6 distinct y against 30 witnesses: a table of 180 rows, which fits
    # only from a budget of 180 on
    rng = np.random.default_rng(35)
    W = sphere_witnesses(24, 35)
    Y = sphere(rng, 6)[rng.integers(0, 6, size=90)][:, None]
    X = sphere(rng, 90)[:, None]
    P = np.asarray(W.points)
    whole = hexes(_d_max(SPACE, X, Y, P))
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    space, calls = counted()
    assert hexes(_d_max(space, X, Y, P)) == whole
    assert hexes(_d_max(unfactored(SPACE), X, Y, P)) == whole
    assert (calls["kernel"] == 0) == (budget >= 180)


# ---------------------------------------------------------------------------
# (y, z) fixed along the chunk axis: the candidate scan and line membership
# ---------------------------------------------------------------------------

def test_candidate_scan_computes_the_crosses_once(monkeypatch):
    seq, XI, XJ = demo_tail()
    C = np.concatenate([np.asarray(sphere_witnesses(30, 3).points), seq[len(seq) // 2:]])
    crosses, outers = [], []

    def cross(Y, Z):
        crosses.append(1)
        return _cross(Y, Z)

    def outer(X, T):
        outers.append(1)
        return _det_outer(X, T)
    monkeypatch.setattr(det_metric_batch, "factors", (cross, outer))
    fast = _d_max(SPACE, C[:, None], XI, XJ)
    assert len(crosses) == 1 and len(outers) > 1
    assert hexes(fast) == hexes(_d_max(unfactored(SPACE), C[:, None], XI, XJ))


@pytest.mark.parametrize("budget", [1, 100, 10 ** 6])
def test_candidate_scan_has_the_kernel_bits_at_every_budget(budget, monkeypatch):
    rng = np.random.default_rng(36)
    C, A, B = sphere(rng, 70), sphere(rng, 300), sphere(rng, 300)
    C[11, 2] = A[250, 0] = np.nan
    whole = _d_max(unfactored(SPACE), C[:, None], A[:200], B[:200])
    assert np.flatnonzero(np.isnan(whole)).tolist() == [11]
    whole = hexes(whole)
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    for X, Y, Z in ((C[:, None], A[:200], B[:200]), (C[:, None], A, B)):
        assert hexes(_d_max(SPACE, X, Y, Z)) == hexes(_d_max(unfactored(SPACE), X, Y, Z))
    assert hexes(_d_max(SPACE, C[:, None], A[:200], B[:200])) == whole


def test_contains_each_has_the_kernel_bits():
    rng = np.random.default_rng(37)
    g1, g2 = sphere(rng, 2)
    on = np.cos(np.linspace(0, 6, 50))[:, None] * g1 + np.sin(np.linspace(0, 6, 50))[:, None] * g2
    P = np.concatenate([on, sphere(rng, 50)])
    P[60, 1] = np.nan
    line = Line(g1, g2, 1e-6)
    assert np.array_equal(line.contains_each(SPACE, P), line.contains_each(unfactored(SPACE), P))
    assert hexes(_d_max(SPACE, P[:, None], g1, g2)) == hexes(
        _d_max(unfactored(SPACE), P[:, None], g1, g2))
    assert not line.contains_each(SPACE, P)[60]


# ---------------------------------------------------------------------------
# whole verdicts
# ---------------------------------------------------------------------------

def test_audit_and_classify_are_byte_identical_without_factors():
    W = sphere_witnesses(40, 5)
    plain = unfactored(SPACE)
    assert json.dumps(audit(SPACE, witnesses=W, triples=500, seed=5).to_json()) == json.dumps(
        audit(plain, witnesses=W, triples=500, seed=5).to_json())
    seq, _, _ = demo_tail(200)
    assert json.dumps(classify(SPACE, seq, W).to_json()) == json.dumps(
        classify(plain, seq, W).to_json())
