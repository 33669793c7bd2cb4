"""Candidate scans asked for classes, against the exact scan.

``classify`` reads each candidate's residual only against lim, against
10 lim and for NaN, and asks ``core._d_max`` for it only up to that class
(``classes=(lim, 10 * lim)``).  A kernel's declared factorisation bounds
every value of a row: ``outer(|x|, m)``, with m the coordinatewise max of
|t| over the columns, for the det kernel's ``factors = (inner, outer)``,
``core._gram_bound`` for the area kernel's Gram split.  A row
whose bound is finite and at most lo reports the bound, and a row with no
column from its cut on and a finite bound reports the max of a first block
of columns when that is above hi.  The held columns of a row bounded under
lo are scanned only while their own bound is above the running max, and a
row not scanned reports that bound; in the Gram layout a row whose edges
are one edge, value for value, is bounded by 0 and so unscanned.  Every
test here compares the class of each row's first output with that of the
exact scan, the max over rows of the second output, the max from the cut
on, by ``float.hex``, and each row's second output with its exact value and
that max.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import DATA, hexes, patch_space
from twometric import (FiniteTwoMetricSpace, SphereContractionParams, SpherePatch, WitnessSet,
                       area_ball_space, det_sphere_space, detect_outcome, make_linear_map,
                       make_sphere_map, orbit, sphere_witnesses)
from twometric import core, lines
from twometric.core import _d_max, _gram_bound, _last_reads
from twometric.lines import classify
from twometric.spaces import _cross, _det_outer, _edges, _gram, _half_root

LIMS = [0.0, 1e-6, -1.0, np.inf, np.nan]
SPACES = ["det", "area-3", "area-9", "patch", "table"]
TAILS = ["fixed-point", "fixed-line", "linear", "random", "repeated", "converged"]
STEPS = 120


def space_of(name, seed):
    """A space of ``name``, its witnesses, and its points' dimension (0 for
    the table's index points)."""
    if name == "det":
        return det_sphere_space(), sphere_witnesses(30, seed), 3
    if name == "patch":
        space = patch_space(SpherePatch(0.2))
        return space, WitnessSet.sampled(space, 30, seed), 2
    if name == "table":
        table = FiniteTwoMetricSpace.load(DATA / "table12" / "table.json")
        return table.as_space(), WitnessSet.all_of(table), 0
    space = area_ball_space(int(name.split("-")[1]))
    return space, WitnessSet.sampled(space, 30, seed), int(name.split("-")[1])


def tail_of(kind, space, dim, rng):
    """``STEPS`` points of a sequence of ``kind``: converging to a point, to
    a line with its points spread along it, spiralling in at rate 0.95,
    sampled at random, three points repeated and then one held, or within
    1e-24 of its limit, as the tails of the benchmark's linear maps are."""
    if dim == 0:
        index = {"fixed-point": np.r_[rng.integers(0, 12, STEPS // 2), np.full(STEPS // 2, 4)],
                 "converged": np.r_[rng.integers(0, 12, 10), np.full(STEPS - 10, 7)],
                 "fixed-line": np.loadtxt(DATA / "table12" / "index_trace.csv", delimiter=",",
                                          skiprows=1, dtype=int)[:, 1],
                 "linear": np.arange(STEPS) % 5, "random": rng.integers(0, 12, STEPS),
                 "repeated": np.r_[rng.integers(0, 3, STEPS - 30), np.zeros(30, int)]}
        return index[kind]
    if kind == "random":
        return np.asarray(space.sample(rng, STEPS), dtype=float)
    if kind == "repeated":
        return np.asarray(space.sample(rng, 3))[np.r_[rng.integers(0, 3, STEPS - 30),
                                                      np.zeros(30, int)]]
    t = np.arange(STEPS)[:, None]
    c, a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(3, dim)))
    jitter = rng.normal(size=(STEPS, dim))
    scale = 0.1 if dim == 2 else 0.2
    if kind == "converged":
        # the origin of the ball and the patch, c on the sphere
        pts = (space.name == "det-sphere") * c + 1e-24 * 0.95 ** t * jitter
    elif kind == "fixed-point":
        pts = scale * c + 0.7 ** t * scale * jitter
    elif kind == "fixed-line":
        pts = scale * c + scale * np.cos(2.1 * t) * a + 0.7 ** t * scale * jitter
    else:
        pts = scale * c + 0.95 ** t * scale * (np.cos(1.7 * t) * a + np.sin(1.7 * t) * b)
    if space.name == "det-sphere":
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def candidate_scan(space, seq, witnesses):
    """The arguments ``(X, Y, Z, points, cuts)`` of classify's candidate
    scan, and the classes it asks for."""
    calls = []

    def spy(space, X, Y, Z, points, cuts=None, classes=None):
        if cuts is not None:
            calls.append(((X, Y, Z, points, cuts), classes))
        return _d_max(space, X, Y, Z, points, cuts, classes)

    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(lines, "_d_max", spy)
        classify(space, seq, witnesses)
    (scan, classes), = calls
    assert classes == (1e-6, 10.0 * 1e-6)
    return scan


def classes_of(values, lo, hi):
    """Each row's class as classify reads it: at most lo, in (lo, hi],
    above hi, NaN."""
    r = np.asarray(values)
    return np.stack([r <= lo, (lo < r) & (r <= hi), r > hi, np.isnan(r)], axis=1).tolist()


def check_held(fast, exact):
    """The held maxima of a bounded scan against the exact ones: the max
    over rows in its bits, and each row NaN where the exact one is, else at
    least its exact value and at most that max."""
    top = exact.max()
    assert float.hex(float(fast.max())) == float.hex(float(top))
    nan = np.isnan(exact)
    assert (np.isnan(fast) == nan).all()
    assert (fast[~nan] >= exact[~nan]).all()
    assert np.isnan(top) or (fast <= top).all()


def finite_bounds(held):
    """``core._held`` that first checks that every bound it is given is
    finite: a row bounded under lo has a finite bound, and the bound of its
    held columns is at most that one."""
    def spy(bound, *rest):
        assert np.isfinite(bound).all()
        return held(bound, *rest)
    return spy


def check_scan(space, scan, lims=LIMS):
    """For each lim, the bounded scan against the exact one: the same class
    in every row, and held maxima as ``check_held`` asks."""
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_held", finite_bounds(core._held))
        exact = _d_max(space, *scan)
        for lim in lims:
            lo, hi = lim, 10.0 * lim
            fast = _d_max(space, *scan, (lo, hi))
            assert classes_of(fast[:, 0], lo, hi) == classes_of(exact[:, 0], lo, hi), lim
            check_held(fast[:, 1], exact[:, 1])
            if not any(hasattr(space.d_batch, name) for name in ("factors", "gram")):
                # kernels without declarations ignore the classes
                assert hexes(fast) == hexes(exact)
    return exact


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 15, 2 ** 20])
@pytest.mark.parametrize("kind", TAILS)
@pytest.mark.parametrize("name", SPACES)
def test_classes_are_those_of_the_exact_scan(name, kind, budget, monkeypatch):
    rng = np.random.default_rng(sum(map(ord, name + kind)))
    space, witnesses, dim = space_of(name, 3)
    scan = candidate_scan(space, tail_of(kind, space, dim, rng), witnesses)
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    check_scan(space, scan)


def plant(where, name, W, seq):
    """A NaN at a witness or a tail point; NaN only at the pair of two late
    tail points; an inf coordinate at a tail point."""
    W, seq = np.array(W, dtype=float), np.array(seq, dtype=float)
    if where == "witness-nan":
        W[8, 1] = np.nan
    elif where == "tail-nan":
        seq[-10, 1] = np.nan
    elif where == "inf":
        seq[-5, 0] = np.inf
    elif name == "det":
        # y x z is (0, 0, inf) on this pair alone: an axis witness x with
        # x2 = 0 has x . (y x z) = 0 * inf, NaN, on it, and no other NaN
        seq[-8], seq[-4] = [1e200, 0.0, 0.0], [0.0, 1e200, 0.0]
    else:
        # uu vv and uv uv both overflow on this pair alone: inf - inf
        seq[-8, 0], seq[-4, 0] = 1e154, 1.0000001e154
    return WitnessSet(W), seq


@pytest.mark.parametrize("kind", ["fixed-point", "fixed-line", "random"])
@pytest.mark.parametrize("where", ["witness-nan", "tail-nan", "pair-nan", "inf"])
@pytest.mark.parametrize("name", ["det", "area-3", "area-9", "patch"])
def test_planted_nans_and_infs_keep_their_classes(name, where, kind, monkeypatch):
    rng = np.random.default_rng(sum(map(ord, name + kind)) + 1)
    space, witnesses, dim = space_of(name, 4)
    W, seq = plant(where, name, witnesses.points, tail_of(kind, space, dim, rng))
    scan = candidate_scan(space, seq, W)
    for budget in (2 ** 9, 2 ** 15):
        monkeypatch.setattr(core, "_ROW_BUDGET", budget)
        exact = check_scan(space, scan)
        assert np.isnan(exact).any() or where == "inf"
    if name == "det" and where == "pair-nan":
        # witness rows hold the NaN, past their first block at both budgets
        X, Y, Z, P, cuts = scan
        witness = np.flatnonzero(cuts >= len(Y))
        with np.errstate(all="ignore"):
            values = _det_outer(P[X[witness]], _cross(P[Y], P[Z]))
        rows, cols = np.nonzero(np.isnan(values))
        assert len(rows) and cols.min() >= 2 ** 15 // len(witness)


# ---------------------------------------------------------------------------
# one-edge rows and pruned held columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 15, 2 ** 20])
@pytest.mark.parametrize("plant", ["near-miss", "overflow", "nan"])
@pytest.mark.parametrize("name", ["area-3", "area-9"])
def test_one_edge_rows_at_their_edges(name, plant, budget, monkeypatch):
    # on a converged tail every edge from a witness rounds to minus the
    # witness, so each witness row is one edge and every value of it is 0;
    # witness 3 is planted: at 1e80, where fl(n n) overflows and every value
    # is NaN; with a NaN coordinate; or as a near miss, at (1e-30, 1e-20,
    # 0, ...) against a tail on the second axis within a few ulps of 1e-20
    # of the origin, so that its edges differ in the last bits of one
    # coordinate and its max is above 0
    space, witnesses, dim = space_of(name, 8)
    seq = tail_of("converged", space, dim, np.random.default_rng(8))
    W = np.array(witnesses.points)
    W[3] = {"near-miss": np.r_[1e-30, 1e-20, np.zeros(dim - 2)], "overflow": np.full(dim, 1e80),
            "nan": np.r_[np.nan, W[3, 1:]]}[plant]
    if plant == "near-miss":
        seq = np.zeros_like(seq)
        seq[:, 1] = 1e-35 * np.random.default_rng(8).random(STEPS)
    scan = candidate_scan(space, seq, WitnessSet(W))
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    exact = check_scan(space, scan)
    with np.errstate(all="ignore"):
        edges, n = _edges(W[:, None], seq[len(seq) // 2:])
        finite = n[:, 0] * n[:, 0] < np.inf
    one = np.logical_and.reduce([(u == u[:, :1]).all(axis=1) for u in edges]) & finite
    assert one.sum() == len(W) - 1 and not one[3]
    assert (exact[:len(W), 0][one] == 0.0).all()
    assert exact[3, 0] > 0.0 if plant == "near-miss" else np.isnan(exact[3, 0])


@pytest.mark.parametrize("name", ["det", "area-3", "area-9"])
def test_most_held_rows_of_a_bounded_tail_report_their_bound(name):
    # tails whose rows are bounded under lim, the demo's orbit to the
    # equator and a converged tail: most held rows are not scanned
    space, witnesses, dim = space_of(name, 9)
    if name == "det":
        demo = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
        seq = orbit(demo, np.array([0.8, 0.0, 0.6]), STEPS, witnesses, seed=0).points
    else:
        seq = tail_of("converged", space, dim, np.random.default_rng(9))
    scan = candidate_scan(space, seq, witnesses)
    exact, fast = _d_max(space, *scan), _d_max(space, *scan, (1e-6, 1e-5))
    check_held(fast[:, 1], exact[:, 1])
    held = scan[4] < len(scan[1])
    assert (fast[held, 1] > exact[held, 1]).mean() > 0.5


def test_a_tail_of_zero_triples_scans_one_block_of_held_rows(monkeypatch):
    # the demo's pure squeeze from a point of the plane y = 0 stays in it:
    # every held value and every held bound is 0, so once one block has
    # read 0 no other row is above it
    blocks = []
    held = core._held
    monkeypatch.setattr(core, "_held", lambda bound, cuts, end, top, values: held(
        bound, cuts, end, top, lambda rows, c: blocks.append(len(rows)) or values(rows, c)))
    demo = make_sphere_map(SphereContractionParams(0.1, 0.5, 0.0))
    witnesses = sphere_witnesses(30, 9)
    seq = orbit(demo, np.array([0.8, 0.0, 0.6]), STEPS, witnesses, seed=0).points
    assert classify(demo.space, seq, witnesses).tri_cauchy_modulus == 0.0
    assert len(blocks) == 1 and blocks[0] < len(seq) // 2 - 1


def test_the_benchmark_tails_scan_no_row_whole(monkeypatch):
    # a 300-step linear tail of the benchmark's shape and the demo's 300-step
    # FixedLine tail: ``_settle`` proves every row's class, so no row is
    # scanned whole, in either layout
    marks, settle = [], core._settle

    def spy(*args):
        scan, floor = settle(*args)
        marks.append(scan)
        return scan, floor
    monkeypatch.setattr(core, "_settle", spy)
    linear = make_linear_map(np.eye(3), 0.6)
    witnesses = WitnessSet.sampled(linear.space, 64, 0)
    seq = orbit(linear, np.full(3, 0.4 / np.sqrt(3)), 300, witnesses).points
    assert classify(linear.space, seq, witnesses).tag == "CauchySequence"
    demo = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    outcome = detect_outcome(demo, np.array([0.8, 0.0, 0.6]), 300, sphere_witnesses(128, 0))
    assert outcome.tag == "FixedLine"
    assert len(marks) == 2
    assert not any(scan.any() for scan in marks)


@pytest.mark.parametrize("name", ["det", "area-3", "area-9"])
def test_random_tails_keep_every_held_max(name):
    # no row of a random tail is bounded under lim, so none is pruned
    space, witnesses, dim = space_of(name, 7)
    scan = candidate_scan(space, tail_of("random", space, dim, np.random.default_rng(7)),
                          witnesses)
    exact, fast = _d_max(space, *scan), _d_max(space, *scan, (1e-6, 1e-5))
    assert hexes(fast[:, 1]) == hexes(exact[:, 1])


# ---------------------------------------------------------------------------
# the rules at their edges: a bound equal to lo, a first block equal to hi
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["det", "area-3", "area-9"])
def test_a_row_whose_bound_is_lo_reports_the_bound(name):
    # lo set to one row's bound: that row, and every row bounded lower,
    # reports its bound, which lies above its exact max
    space, witnesses, dim = space_of(name, 5)
    seq = tail_of("fixed-point", space, dim, np.random.default_rng(5))
    X, Y, Z, P, cuts = scan = candidate_scan(space, seq, witnesses)
    x = P[X[:, 0]]
    if name == "det":
        bound = _det_outer(np.abs(x), np.abs(_cross(P[Y], P[Z])).max(axis=-2))
    else:
        bound = _gram_bound(_half_root, _edges(x, P[np.unique(np.r_[Y, Z])][:, None])[1])
    exact = _d_max(space, *scan)
    # the last held tail row whose bound exceeds its max
    r = np.flatnonzero((cuts < len(Y)) & (bound > exact[:, 0]))[-1]
    fast = _d_max(space, *scan, (bound[r], 10.0 * bound[r]))
    low = bound <= bound[r]
    assert low.sum() > 1
    assert hexes(fast[low, 0]) == hexes(bound[low])
    check_held(fast[:, 1], exact[:, 1])
    lo, hi = bound[r], 10.0 * bound[r]
    assert classes_of(fast[:, 0], lo, hi) == classes_of(exact[:, 0], lo, hi)
    # a held row above lo is scanned whole
    held = ~low & (cuts < len(Y))
    assert held.any() and hexes(fast[held, 0]) == hexes(exact[held, 0])


@pytest.mark.parametrize("name, budget", [("det", 2 ** 9), ("area-3", 2 ** 15),
                                          ("area-9", 2 ** 15)])
def test_a_witness_row_whose_first_block_is_hi_is_scanned(name, budget, monkeypatch):
    # hi set to the max of one witness row's first block, below the max of
    # the row: that row is not settled, since its max is not known above hi
    space, witnesses, dim = space_of(name, 6)
    seq = np.asarray(space.sample(np.random.default_rng(6), STEPS))
    X, Y, Z, P, cuts = scan = candidate_scan(space, seq, witnesses)
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    witness = np.flatnonzero(cuts >= len(Y))
    # the first block: ``_ROW_BUDGET // rows`` columns in both layouts
    width = budget // len(witness)
    values = space.d_batch(P[X[witness]], P[Y], P[Z])
    first = values[:, :width].max(axis=1)
    r = int(np.flatnonzero(values.max(axis=1) > first)[0])
    lo, hi = -1.0, first[r]
    fast, exact = _d_max(space, *scan, (lo, hi)), _d_max(space, *scan)
    assert classes_of(fast[:, 0], lo, hi) == classes_of(exact[:, 0], lo, hi)
    assert fast[witness[r], 0] > hi
    # the rows whose first block passes hi report its max
    settled = witness[first > hi]
    assert len(settled) and hexes(fast[settled, 0]) == hexes(first[first > hi])


# ---------------------------------------------------------------------------
# the bounds themselves: at least every value, and not finite where a value
# is NaN
# ---------------------------------------------------------------------------

def inputs(kind, rng, n, dim):
    """Points of ``kind``: with signs that cancel in a dot product, near the
    subnormal range, or at the 1e150 scale."""
    if kind == "cancelling":
        base = rng.normal(size=(n, dim))
        base[::2, 1] = -base[::2, 0]        # x0 + x1 = 0 in half the rows
        base[1::3] = np.round(base[1::3])   # small integers, exact sums
        return base
    scale = {"subnormal": 1e-160, "huge": 1e150}[kind]
    return scale * rng.normal(size=(n, dim))


def check_bound(bound, values):
    """bound[i] >= every values[i, j], and not finite where one is NaN."""
    finite = np.isfinite(bound)
    assert not np.isnan(values[finite]).any()
    assert (values[finite] <= bound[finite, None]).all()
    assert not finite[np.isnan(values).any(axis=1)].any()


@pytest.mark.parametrize("kind", ["cancelling", "subnormal", "huge"])
def test_the_factor_bound_is_at_least_every_value(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    X, Y, Z = (inputs(kind, rng, 400, 3) for _ in range(3))
    # pairs whose cross products cancel, and rows orthogonal to their max
    Y[:50], Z[:50] = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    Y[50:100], Z[50:100] = [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
    X[:20] = [1.0, -1.0, 0.0]
    X[20:40] = X[20:40] * [1.0, -1.0, 1.0]
    with np.errstate(all="ignore"):
        T = _cross(Y, Z)
        values = _det_outer(X[:, None], T)
        bound = _det_outer(np.abs(X), np.abs(T).max(axis=-2))
    check_bound(bound, values)


@pytest.mark.parametrize("dim", [2, 3, 9])
@pytest.mark.parametrize("kind", ["cancelling", "subnormal", "huge"])
def test_the_gram_bound_is_at_least_every_value(kind, dim):
    rng = np.random.default_rng(sum(map(ord, kind)) + dim)
    X, targets = inputs(kind, rng, 60, dim), inputs(kind, rng, 40, dim)
    targets[:5] = X[:5]                     # a target at its own row: a 0 edge
    with np.errstate(all="ignore"):
        e, n = _edges(X, targets[:, None])
        i, j = np.triu_indices(len(targets), k=1)
        values = _half_root(_gram([u[i] for u in e], n[i], [u[j] for u in e], n[j])).T
        bound = _gram_bound(_half_root, n.copy())
    check_bound(bound, values)


@pytest.mark.parametrize("kind", ["tail pairs", "unsorted", "repeated", "one column"])
def test_last_reads_is_the_max_scatter_of_the_column_numbers(kind):
    # the oracle: np.maximum.at of each column's number at the rows it reads
    rng = np.random.default_rng(sum(map(ord, kind)))
    size = 300
    if kind == "tail pairs":
        y, z = np.triu_indices(150, 1)
        y, z = y + 64, z + 64
    elif kind == "unsorted":
        y, z = rng.permutation(size)[:200], rng.permutation(size)[:200]
    elif kind == "repeated":
        y, z = rng.integers(0, 12, 5000), rng.integers(5, 20, 5000)
        y[-1] = z[-1] = 7
    else:
        y, z = np.array([5]), np.array([299])
    want = np.full(size, -1)
    np.maximum.at(want, np.r_[y, z], np.tile(np.arange(len(y)), 2))
    assert np.array_equal(_last_reads(size, y, z), want)
    # each order of the columns, and y and z swapped, give the same rows read
    order = rng.permutation(len(y))
    want = np.full(size, -1)
    np.maximum.at(want, np.r_[y[order], z[order]], np.tile(np.arange(len(y)), 2))
    assert np.array_equal(_last_reads(size, z[order], y[order]), want)
