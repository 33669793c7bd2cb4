"""Batch evaluation: broadcasting kernels against the stacked fallback.

A kernel marked ``broadcasting`` is called on broadcast inputs; any other
kernel gets materialised rows, in the order ``np.repeat``/``np.tile`` built
them before the broadcast path existed.  Per element the arithmetic is the
same, so the two paths, and the stacked oracle written out here, must agree
bit for bit.  So must the scalar oracle of each space, a loop over the
pure-Python reference of ``conftest``, which sums in the kernel's order.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import (area_reference, det_reference, hexes, lex_order, patch_metric, patch_space,
                      random_sphere_table, table_phi)
from twometric import (SphereContractionParams, SpherePatch, WitnessSet, audit,
                       detect_outcome, make_linear_map, make_sphere_map,
                       sphere_witnesses)
from twometric import core
from twometric.core import _d_max, broadcasting, eval_phi
from twometric.lines import Line, Thresholds, _pair_arrays, classify
from twometric.spaces import area_ball_space, det_sphere_space

SPACES = {
    "det-sphere": det_sphere_space,
    "area-ball-3": lambda: area_ball_space(3),
    "area-ball-5": lambda: area_ball_space(5),
    "sphere-patch": lambda: patch_space(SpherePatch(0.2)),
}
# The scalar reference each space's kernel must agree with bit for bit.
SCALAR = {"det-sphere": det_reference, "area-ball-3": area_reference,
          "area-ball-5": area_reference, "sphere-patch": patch_metric}


def recorded(space, marked):
    """The space with its kernel wrapped in a plain function that records
    the ndim of each call's inputs.  Unmarked, the wrapper has no
    ``broadcasts`` attribute, so every scan takes the stacked fallback."""
    calls = []
    kernel = space.d_batch

    def wrapped(X, Y, Z):
        calls.append({np.ndim(X), np.ndim(Y), np.ndim(Z)})
        return kernel(X, Y, Z)
    if marked:
        broadcasting(wrapped)
    return replace(space, d_batch=wrapped), calls


def stacked(space):
    return recorded(space, marked=False)[0]


def setup(name, pairs=60, witnesses=40, seed=0):
    space = SPACES[name]()
    rng = np.random.default_rng(seed)
    W = WitnessSet(space.sample(rng, witnesses))
    return space, W, space.sample(rng, pairs), space.sample(rng, pairs)


def scalar_phi(metric, X, Y, W):
    X, Y = lex_order(X, Y)
    return np.array([max(metric(x, y, w) for w in W.points) for x, y in zip(X, Y)])


# ---------------------------------------------------------------------------
# the kernels and their mark
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SPACES)
def test_kernel_is_marked_and_a_wrapper_is_not(name):
    space = SPACES[name]()
    assert space.d_batch.broadcasts is True
    assert not hasattr(stacked(space).d_batch, "broadcasts")


# ---------------------------------------------------------------------------
# phi: broadcast path, fallback, stacked oracle, scalar loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SPACES)
def test_phi_many_paths_agree_bitwise(name):
    space, W, X, Y = setup(name)
    slow_space, slow_calls = recorded(space, marked=False)
    fast_space, fast_calls = recorded(space, marked=True)
    fast = eval_phi(fast_space, X, Y, W)
    slow = eval_phi(slow_space, X, Y, W)
    Xs, Ys = lex_order(X, Y)
    P = np.asarray(W.points)
    oracle = space.d_batch(np.repeat(Xs, len(P), axis=0), np.repeat(Ys, len(P), axis=0),
                           np.tile(P, (len(X), 1))).reshape(len(X), len(P)).max(axis=1)
    assert np.array_equal(fast, oracle)
    assert np.array_equal(slow, oracle)
    assert fast_calls and all(ndims == {3} for ndims in fast_calls)
    assert slow_calls and all(ndims == {2} for ndims in slow_calls)
    assert hexes(fast) == hexes(scalar_phi(SCALAR[name], X, Y, W))


@pytest.mark.parametrize("name", SPACES)
def test_eval_phi_paths_agree_bitwise(name):
    space, W, X, Y = setup(name, pairs=12)
    slow_space = stacked(space)
    rows = eval_phi(space, X, Y, W)
    P = np.asarray(W.points)
    for i, (x, y) in enumerate(zip(X, Y)):
        x, y = lex_order(x[None], y[None])
        oracle = float(space.d_batch(np.repeat(x, len(P), axis=0),
                                     np.repeat(y, len(P), axis=0), P).max())
        assert eval_phi(space, X[i], Y[i], W) == oracle
        assert eval_phi(slow_space, X[i], Y[i], W) == oracle
        assert eval_phi(space, Y[i], X[i], W) == oracle
        assert rows[i] == oracle


@pytest.mark.parametrize("name", SPACES)
def test_chunked_scans_agree_bitwise(name, monkeypatch):
    # budgets below one row per first-axis entry, between, and above all rows
    space, W, X, Y = setup(name, pairs=25, witnesses=9)
    whole = eval_phi(space, X, Y, W)
    slow_space = stacked(space)
    for budget in (1, 7, 40, 10 ** 6):
        monkeypatch.setattr(core, "_ROW_BUDGET", budget)
        assert np.array_equal(eval_phi(space, X, Y, W), whole)
        assert np.array_equal(eval_phi(slow_space, X, Y, W), whole)


# ---------------------------------------------------------------------------
# classify's scans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SPACES)
def test_candidate_scan_paths_agree_bitwise(name):
    space, W, seq, _ = setup(name, pairs=30, witnesses=20)
    start = 12
    idx_i, idx_j = _pair_arrays(len(seq), start)
    XI, XJ = seq[idx_i], seq[idx_j]
    C = np.concatenate([np.asarray(W.points), seq[start:]])
    scan = (np.arange(len(C))[:, None], len(C) + idx_i, len(C) + idx_j)
    P = np.concatenate([C, seq])
    fast = _d_max(space, *scan, P)
    slow = _d_max(stacked(space), *scan, P)
    oracle = np.array([space.d_batch(np.broadcast_to(c, XI.shape), XI, XJ).max() for c in C])
    assert np.array_equal(fast, oracle)
    assert np.array_equal(slow, oracle)
    scalar = [max(SCALAR[name](c, xi, xj) for xi, xj in zip(XI, XJ)) for c in C]
    assert hexes(fast) == hexes(scalar)


def greedy_reps(space, points, W, min_phi):
    """Greedy cluster representatives, the oracle for classify's passer
    count: each point in turn becomes a representative unless some
    representative lies within pair distance ``min_phi`` of it."""
    reps = []
    for p in points:
        if all(eval_phi(space, p, r, W) > min_phi for r in reps):
            reps.append(p)
    return reps


def classify_passers(space, points, min_phi):
    """classify on a sequence whose passers are ``points``, in order: the
    points are both the witnesses and the tail, and every candidate passes."""
    P = np.asarray(points)
    thresholds = Thresholds(lim=np.inf, cauchy=-1.0, min_phi=min_phi, min_length=2)
    cls = classify(space, np.concatenate([P, P]), WitnessSet(P), thresholds)
    assert np.array_equal(np.asarray(cls.passers), P)
    return cls


def assert_matches_greedy(space, points, min_phi):
    """classify's tag and point on both kernel paths against the greedy
    representatives; returns the number of representatives."""
    reps = greedy_reps(space, points, WitnessSet(np.asarray(points)), min_phi)
    for space_ in (space, stacked(space)):
        cls = classify_passers(space_, points, min_phi)
        if len(reps) >= 2:
            assert cls.tag == "LineCase"
            assert cls.point is None
        else:
            assert cls.tag == "UniquePoint"
            assert np.array_equal(cls.point, reps[0])
    return len(reps)


@pytest.mark.parametrize("name", SPACES)
def test_passer_reps_paths_agree(name):
    # clusters of near-copies: the reps are one point per cluster, and one
    # cluster alone has a single rep, whichever of its points comes first
    space, _, X, _ = setup(name, pairs=8, witnesses=30)
    rng = np.random.default_rng(5)
    points = [x + 1e-10 * rng.normal(size=x.shape) * (k > 0) for x in X for k in range(3)]
    points = [points[i] for i in rng.permutation(len(points))]
    one = [p for p in points if np.abs(p - X[0]).max() < 1e-8]
    assert len(one) == 3
    for i in range(0, len(points), 5):
        assert assert_matches_greedy(space, points[i:] + points[:i], 1e-6) == len(X)
    for i in range(3):
        assert assert_matches_greedy(space, one[i:] + one[:i], 1e-6) == 1


@pytest.mark.parametrize("name", SPACES)
def test_classify_tag_and_point_match_greedy_reps(name):
    # clusters of three radii: the pair-distance floor decides how many
    # clusters count as one, so the sweep meets both tags
    space, _, X, _ = setup(name, pairs=3, seed=6)
    rng = np.random.default_rng(6)
    points = [x + r * rng.normal(size=x.shape)
              for x, r in zip(X, (1e-11, 1e-8, 1e-5)) for _ in range(4)]
    points = [points[i] for i in rng.permutation(len(points))]
    counts = [assert_matches_greedy(space, points, min_phi)
              for min_phi in (0.0, 1e-14, 1e-11, 1e-8, 1e-5, 1e-2, 10.0)]
    assert counts[0] == len(points) and counts[-1] == 1


def test_classify_and_outcomes_are_byte_identical_on_both_paths():
    W = sphere_witnesses(48, seed=4)
    x0 = np.array([0.8, 0.0, 0.6])
    for theta in (0.0, np.pi / 7, 1.08):
        map_ = make_sphere_map(SphereContractionParams(0.1, 0.5, theta))
        slow = replace(map_, space=stacked(map_.space))
        fast = detect_outcome(map_, x0, 120, witnesses=W, seed=4).to_json()
        assert json.dumps(fast) == json.dumps(
            detect_outcome(slow, x0, 120, witnesses=W, seed=4).to_json())
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
    linear = make_linear_map(q, 0.6)
    slow = replace(linear, space=stacked(linear.space))
    x0 = np.array([0.2, -0.1, 0.15])
    W = WitnessSet.sampled(linear.space, 64, 4)
    assert json.dumps(detect_outcome(linear, x0, 120, W, seed=4).to_json()) == json.dumps(
        detect_outcome(slow, x0, 120, W, seed=4).to_json())


@pytest.mark.parametrize("name", SPACES)
def test_audits_are_byte_identical_on_both_paths(name):
    space, W, _, _ = setup(name, witnesses=32)
    fast = audit(space, witnesses=W, triples=400, seed=9).to_json()
    slow = audit(stacked(space), witnesses=W, triples=400, seed=9).to_json()
    assert json.dumps(fast) == json.dumps(slow)


# ---------------------------------------------------------------------------
# index points index the dense table
# ---------------------------------------------------------------------------

def test_index_scans_match_table_lookups(rng):
    # the dense-array kernel and the stacked fallback, each against lookups
    # in the table
    table = random_sphere_table(rng, 9)
    fast = table.as_space()
    W = WitnessSet.all_of(table)
    I = rng.integers(0, table.n, size=30)
    J = rng.integers(0, table.n, size=30)
    seq = rng.integers(0, table.n, size=20)
    idx_i, idx_j = _pair_arrays(len(seq), 5)
    for space in (fast, stacked(fast)):
        assert eval_phi(space, I, J, W).tolist() == [table_phi(table, i, j) for i, j in zip(I, J)]
        # the index points of a table are the row numbers of np.arange(n)
        got = _d_max(space, np.arange(table.n)[:, None], seq[idx_i], seq[idx_j],
                     np.arange(table.n))
        assert got.tolist() == [max(table.d(c, seq[i], seq[j]) for i, j in zip(idx_i, idx_j))
                                for c in range(table.n)]


# ---------------------------------------------------------------------------
# one scan form: the point form of eval_phi and line defects are index scans
# ---------------------------------------------------------------------------

def points_of(name, seed=11):
    """A space, its witness set and a stack of 40 of its points with a NaN
    planted in point 7: a coordinate of it, or, on a table (index points),
    the entry of the points 0, 1 and 7, which only the first three of the
    stack are."""
    rng = np.random.default_rng(seed)
    if name == "table":
        table = random_sphere_table(rng, 12)
        table.table[(0, 1, 7)] = np.nan
        X = np.r_[0, 1, 7, rng.choice([2, 3, 4, 5, 6, 8, 9, 10, 11], size=37)]
        return table.as_space(), WitnessSet.all_of(table), X
    space, W, X, _ = setup(name, pairs=40, witnesses=30, seed=seed)
    X = X.copy()
    X[7, 1] = np.nan
    return space, W, X


def phi_oracle(space, X, Y, W):
    """phi of each pair of the stacks X and Y, in lexicographic order, by
    one kernel call on the stacked rows against every witness."""
    X, Y = lex_order(X, Y)
    P = np.asarray(W.points)
    rows = np.repeat(np.arange(len(X)), len(P))
    values = space.d_batch(X[rows], Y[rows], np.tile(P, (len(X),) + (1,) * (P.ndim - 1)))
    return np.asarray(values).reshape(len(X), len(P)).max(axis=1)


@pytest.mark.parametrize("name", [*SPACES, "table"])
def test_point_and_index_forms_of_eval_phi_have_the_same_bits(name):
    space, W, X = points_of(name)
    n = len(X)
    every = np.arange(n)
    # one pair, either way round, and through the planted NaN
    for i, j in ((3, 5), (5, 3), (7, 2), (4, 4)):
        want = float.hex(float(phi_oracle(space, X[[i]], X[[j]], W)[0]))
        assert float.hex(eval_phi(space, X[i], X[j], W)) == want
        assert float.hex(eval_phi(space, i, j, W, X)) == want
    # one against many
    want = hexes(phi_oracle(space, X[np.zeros(n, int)], X, W))
    assert hexes(eval_phi(space, X[:1], X, W)) == want
    assert hexes(eval_phi(space, np.zeros(1, int), every, W, X)) == want
    assert hexes(eval_phi(stacked(space), X[:1], X, W)) == want
    # stacked pairs, the NaN only in the pairs that reach it
    want = phi_oracle(space, X[:-1], X[1:], W)
    assert np.flatnonzero(np.isnan(want)).tolist() == ([0, 1] if name == "table" else [6, 7])
    for got in (eval_phi(space, X[:-1], X[1:], W), eval_phi(space, every[:-1], every[1:], W, X),
                eval_phi(stacked(space), X[:-1], X[1:], W)):
        assert hexes(got) == hexes(want)


@pytest.mark.parametrize("name", [*SPACES, "table"])
def test_line_defects_are_the_kernel_on_gathered_rows(name):
    space, _, X = points_of(name)
    g1, g2 = X[0], X[1]
    line = Line(g1, g2, 0.05)
    G1, G2 = (np.repeat(np.asarray(g)[None], len(X), axis=0) for g in (g1, g2))
    want = np.asarray(space.d_batch(X, G1, G2))
    assert np.isnan(want).any()
    for space_ in (space, stacked(space)):
        assert hexes(line.defects(space_, X)) == hexes(want)
        assert line.contains_each(space_, X).tolist() == (want <= 0.05).tolist()
    assert hexes(line.defects(space, X[5:6])) == hexes(want[5:6])
