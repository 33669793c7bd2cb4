"""Factored scans against the plain kernel on gathered rows.

The det kernel declares ``factors = (_cross, _det_outer)``: ``core._d_max``
computes the cross products ``y x z`` once per scan when (y, z) is fixed
along the scan's chunk axis.  The area kernel declares a Gram split, which
only bounds the rows of a scan asked for classes, so its index scans
(row numbers of a point array) call the kernel.  A phi scan (x and y along
the rows, the witnesses along the columns) keeps the kernel.
The oracle is the same kernel behind a plain ``broadcasting`` wrapper,
which declares neither and so takes the kernel on every chunk, called on
the gathered rows.  Every value must have the same bits, compared with
``float.hex``.  The spaces here have no declared phi, so that ``eval_phi``
scans the witnesses, but in one case of the line generators.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import wraps
from itertools import combinations

import numpy as np
import pytest

from conftest import gathered_max, hexes, patch_space
from twometric import (FiniteTwoMetricSpace, SphereContractionParams, SpherePatch, WitnessSet,
                       area_ball_space, audit, make_linear_map, make_sphere_map,
                       sphere_witnesses)
from twometric import core
from twometric.core import _d_max, broadcasting, eval_phi
from twometric.dynamics import orbit
from twometric.lines import Line, _pair_arrays, classify
from twometric.spaces import (_cross, _det_outer, area_metric_batch, det_metric_batch,
                              det_sphere_space)

SPACE = replace(det_sphere_space(), phi=None)


def unfactored(space):
    """The space with its kernel behind a marked wrapper without ``factors``,
    and without a declared phi."""
    kernel = space.d_batch
    return replace(space, d_batch=broadcasting(lambda X, Y, Z: kernel(X, Y, Z)), phi=None)


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


def demo_tail(steps=160):
    """A demo orbit and the row numbers of its tail pairs, as classify
    scans them."""
    map_ = make_sphere_map(SphereContractionParams(0.1, 0.5, 1.234))
    seq = np.asarray(orbit(map_, np.array([0.8, 0.0, 0.6]), steps, sphere_witnesses(8, 0)).points)
    return (seq, *_pair_arrays(len(seq), len(seq) // 2))


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
# x and y along the rows, the witnesses along the columns: phi scans
# ---------------------------------------------------------------------------

def test_classify_like_phi_scan_has_the_kernel_bits():
    seq, I, J = demo_tail()
    W = sphere_witnesses(40, 2)
    space, calls = counted()
    assert hexes(eval_phi(space, I, J, W, seq)) == hexes(
        eval_phi(unfactored(SPACE), seq[I], seq[J], W))
    # the kernel on the gathered rows, without the crosses of a table
    assert calls["kernel"] > 0 and not calls["inner"]
    # passer-like pairs: every pair of a point set, and one point against all
    P = seq[-30:]
    pi, pj = np.triu_indices(len(P), k=1)
    plain = eval_phi(unfactored(SPACE), P[pi], P[pj], W)
    assert hexes(eval_phi(SPACE, pi, pj, W, P)) == hexes(plain)
    assert hexes(eval_phi(SPACE, P[pi], P[pj], W)) == hexes(plain)
    assert hexes(eval_phi(SPACE, P[:1], P, W)) == hexes(eval_phi(unfactored(SPACE), P[:1], P, W))


def planted_scan(rng, witnesses, distinct, rows):
    """Points and row numbers of a phi-like scan: ``rows`` x rows against
    every witness, with y one of ``distinct`` points."""
    W = np.asarray(witnesses.points)
    P = np.concatenate([sphere(rng, distinct), sphere(rng, rows), W])
    xi = distinct + np.arange(rows)
    yi = rng.integers(0, distinct, size=rows)
    return P, (xi[:, None], yi[:, None], distinct + rows + np.arange(len(W)))


@pytest.mark.parametrize("where", ["x", "y", "w"])
def test_a_planted_nan_stays_in_its_own_rows(where):
    rng = np.random.default_rng(34)
    P, (xi, yi, wi) = planted_scan(rng, sphere_witnesses(30, 34), 6, 80)
    expected = np.zeros(80, dtype=bool)
    if where == "x":
        P[xi[17], 1] = np.nan
        expected[17] = True
    elif where == "y":
        P[yi[5], 2] = np.nan
        expected = yi[:, 0] == yi[5, 0]
    else:
        P[wi[7], 0] = np.nan
        expected[:] = True
    space, calls = counted()
    fast = _d_max(space, xi, yi, wi, P)
    assert not calls["inner"]
    assert np.array_equal(np.isnan(fast), expected)
    assert hexes(fast) == hexes(_d_max(unfactored(SPACE), xi, yi, wi, P))
    assert hexes(fast) == hexes(gathered_max(det_metric_batch, P, xi, yi, wi))


@pytest.mark.parametrize("budget", [1, 7, 40, 6 * 30 - 1, 6 * 30, 2 ** 9, 10 ** 6, 2 ** 20])
def test_a_small_budget_keeps_the_bits(budget, monkeypatch):
    # 6 distinct y against 30 witnesses, split in blocks of every size
    P, scan = planted_scan(np.random.default_rng(35), sphere_witnesses(24, 35), 6, 90)
    whole = hexes(_d_max(SPACE, *scan, P))
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    space, calls = counted()
    assert hexes(_d_max(space, *scan, P)) == whole
    assert hexes(_d_max(unfactored(SPACE), *scan, P)) == whole
    assert hexes(gathered_max(det_metric_batch, P, *scan)) == whole
    assert not calls["inner"]


# ---------------------------------------------------------------------------
# (y, z) fixed along the chunk axis: the candidate scan and line membership
# ---------------------------------------------------------------------------

def test_candidate_scan_computes_the_crosses_once(monkeypatch):
    seq, I, J = demo_tail()
    XI, XJ = seq[I], seq[J]
    C = np.concatenate([np.asarray(sphere_witnesses(30, 3).points), seq[len(seq) // 2:]])
    crosses, outers = [], []

    def cross(Y, Z):
        crosses.append(1)
        return _cross(Y, Z)

    def outer(X, T):
        outers.append(1)
        return _det_outer(X, T)
    monkeypatch.setattr(det_metric_batch, "factors", (cross, outer))
    # by row numbers, as classify calls it
    P = np.concatenate([C, seq])
    fast = _d_max(SPACE, np.arange(len(C))[:, None], len(C) + I, len(C) + J, P)
    assert len(crosses) == 1 and len(outers) > 1
    assert hexes(fast) == hexes(
        _d_max(unfactored(SPACE), np.arange(len(C))[:, None], len(C) + I, len(C) + J, P))
    assert hexes(fast) == hexes(det_metric_batch(C[:, None], XI, XJ).max(axis=1))
    assert len(crosses) == 1


@pytest.mark.parametrize("budget", [1, 100, 10 ** 6])
def test_candidate_scan_has_the_kernel_bits_at_every_budget(budget, monkeypatch):
    rng = np.random.default_rng(36)
    C, A, B = sphere(rng, 70), sphere(rng, 300), sphere(rng, 300)
    C[11, 2] = A[250, 0] = np.nan
    P = np.concatenate([C, A, B])
    X = np.arange(70)[:, None]
    first, every = (X, 70 + np.arange(200), 370 + np.arange(200)), (X, 70 + np.arange(300),
                                                                     370 + np.arange(300))
    whole = gathered_max(det_metric_batch, P, *first)
    assert np.flatnonzero(np.isnan(whole)).tolist() == [11]
    whole = hexes(whole)
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    for scan in (first, every):
        assert hexes(_d_max(SPACE, *scan, P)) == hexes(_d_max(unfactored(SPACE), *scan, P))
    assert hexes(_d_max(SPACE, *first, P)) == whole


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 20])
@pytest.mark.parametrize("subsample", [False, True], ids=["all-pairs", "subsampled"])
def test_det_index_scans_have_the_kernel_bits(subsample, budget, monkeypatch):
    # classify's candidate and Cauchy scans by row numbers, with a point
    # repeated under two row numbers and a signed zero among the witnesses
    seq, I, J = demo_tail(200)
    if subsample:
        pick = np.random.default_rng(6).choice(len(I), size=len(I) // 3, replace=False)
        I, J = I[pick], J[pick]
    seq[-3] = seq[-9]
    W = np.asarray(sphere_witnesses(20, 6).points).copy()
    W[0, 1] = -0.0
    P = np.concatenate([W, seq])
    m, start = len(W), len(seq) // 2
    candidate = (np.r_[:m, m + start:len(P)][:, None], m + I, m + J)
    phi = ((m + I)[:, None], (m + J)[:, None], np.arange(m))
    want = [hexes(gathered_max(det_metric_batch, P, *scan)) for scan in (candidate, phi)]
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    space, calls = counted()
    for scan, bits in zip((candidate, phi), want):
        assert hexes(_d_max(space, *scan, P)) == bits
        assert hexes(_d_max(unfactored(SPACE), *scan, P)) == bits
        # the candidate scan from the crosses of the tail pairs alone
        assert (calls["kernel"] == 0) == (scan is candidate)


def test_contains_each_has_the_kernel_bits():
    rng = np.random.default_rng(37)
    g1, g2 = sphere(rng, 2)
    on = np.cos(np.linspace(0, 6, 50))[:, None] * g1 + np.sin(np.linspace(0, 6, 50))[:, None] * g2
    P = np.concatenate([on, sphere(rng, 50)])
    P[60, 1] = np.nan
    line = Line(g1, g2, 1e-6)
    assert np.array_equal(line.contains_each(SPACE, P), line.contains_each(unfactored(SPACE), P))
    assert hexes(line.defects(SPACE, P)) == hexes(line.defects(unfactored(SPACE), P))
    assert hexes(line.defects(SPACE, P)) == hexes(det_metric_batch(P, g1, g2))
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


# ---------------------------------------------------------------------------
# the area kernel's Gram split: index scans by the kernel, with the split
# ---------------------------------------------------------------------------

def area(dim):
    """The area ball's space, and the same kernel counting its calls, with
    its Gram split."""
    calls = []

    @broadcasting
    def kernel(X, Y, Z):
        calls.append(1)
        return area_metric_batch(X, Y, Z)

    kernel.gram = area_metric_batch.gram
    return replace(area_ball_space(dim), d_batch=kernel, phi=None), calls


def area_tail(dim, steps, seed):
    """Witnesses and a linear-map orbit of the area ball, with signed zeros,
    a candidate on the tail and one point twice, under two row numbers."""
    rng = np.random.default_rng(seed)
    space = area_ball_space(dim)
    M = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    x0 = rng.normal(size=dim)
    seq = orbit(make_linear_map(M, 0.97), 0.4 * x0 / np.linalg.norm(x0), steps,
                WitnessSet.sampled(space, 4, seed)).points
    W = np.asarray(WitnessSet.sampled(space, 40, seed).points)
    W[0], W[1] = 0.0, -0.0
    W[2, 0] = -0.0
    W[3] = seq[-1]
    seq[-5] = seq[-7]
    return W, seq


def area_scans(W, seq, subsample):
    """The candidate scan and the Cauchy scan of ``classify`` in the index
    form, on every tail pair or on a random subsample of them."""
    P = np.concatenate([W, seq])
    m, start = len(W), len(seq) // 2
    I, J = np.triu_indices(len(seq) - start, k=1)
    if subsample:
        pick = np.random.default_rng(5).choice(len(I), size=len(I) // 3, replace=False)
        I, J = I[pick], J[pick]
    I, J = m + start + I, m + start + J
    candidates = np.r_[:m, m + start:len(P)][:, None]
    return P, (candidates, I, J), (I[:, None], J[:, None], np.arange(m))


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 20])
@pytest.mark.parametrize("subsample", [False, True], ids=["all-pairs", "subsampled"])
@pytest.mark.parametrize("dim", [2, 3, 5, 8, 9, 12])
def test_area_index_scans_have_the_kernel_bits(dim, subsample, budget, monkeypatch):
    W, seq = area_tail(dim, 90, dim)
    P, candidate, phi = area_scans(W, seq, subsample)
    plain = unfactored(area_ball_space(dim))
    want = [hexes(gathered_max(area_metric_batch, P, *scan)) for scan in (candidate, phi)]
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    space, calls = area(dim)
    for scan, bits in zip((candidate, phi), want):
        assert hexes(_d_max(space, *scan, P)) == bits
        assert hexes(_d_max(plain, *scan, P)) == bits
        # without classes the split is not read: the kernel serves both
        assert calls


def check_planted_nan(where, dim):
    """A NaN coordinate at a candidate, a tail point or a witness: the
    index scans give the plain kernel's bits, NaN rows included, both by
    the kernel."""
    W, seq = area_tail(dim, 90, 7)
    P, candidate, phi = area_scans(W, seq, False)
    row = {"candidate": 5, "tail": len(W) + 80, "witness": 9}[where]
    P[row, 1] = np.nan
    plain = unfactored(area_ball_space(dim))
    space, calls = area(dim)
    for scan in (candidate, phi):
        fast = _d_max(space, *scan, P)
        assert np.isnan(fast).any()
        assert hexes(fast) == hexes(_d_max(plain, *scan, P))
        assert hexes(fast) == hexes(gathered_max(area_metric_batch, P, *scan))
        assert calls
    if where == "candidate":
        assert np.flatnonzero(np.isnan(_d_max(space, *candidate, P))).tolist() == [5]


@pytest.mark.parametrize("where", ["candidate", "tail", "witness"])
def test_area_index_scans_keep_a_planted_nan_in_its_own_rows(where):
    check_planted_nan(where, 3)


@pytest.mark.parametrize("dim", [8, 9, 12])
@pytest.mark.parametrize("where", ["candidate", "tail", "witness"])
def test_area_index_scans_keep_a_planted_nan_past_8_coordinates(where, dim):
    check_planted_nan(where, dim)


def test_a_kernel_without_the_split_gets_the_gathered_rows():
    # a plain function, as a benchmark's timing wrapper gives it: no mark,
    # no split, so it takes the stacked rows of the gathered points
    W, seq = area_tail(3, 70, 8)
    P, candidate, phi = area_scans(W, seq, True)
    rows = []

    def wrapped(X, Y, Z):
        rows.append(np.shape(X))
        return area_metric_batch(X, Y, Z)

    space = replace(area_ball_space(3), d_batch=wrapped)
    for scan in (candidate, phi):
        rows.clear()
        assert hexes(_d_max(space, *scan, P)) == hexes(gathered_max(area_metric_batch, P, *scan))
        assert rows and all(len(shape) == 2 and shape[1] == 3 for shape in rows)
        assert sum(shape[0] for shape in rows) == np.broadcast(*scan).size


@pytest.mark.parametrize("steps", [120, 300, 500])
def test_area_classify_and_audit_are_byte_identical_without_the_split(steps):
    # 500 steps subsample the tail pairs; the LineCase verdicts also scan
    # every pair of their passers
    W, seq = area_tail(3, steps, steps)
    space = replace(area_ball_space(3), phi=None)
    plain = unfactored(space)
    witnesses = WitnessSet(W)
    assert json.dumps(classify(space, seq, witnesses).to_json()) == json.dumps(
        classify(plain, seq, witnesses).to_json())
    if steps == 120:
        assert json.dumps(audit(space, witnesses=witnesses, triples=500, seed=5).to_json()) == (
            json.dumps(audit(plain, witnesses=witnesses, triples=500, seed=5).to_json()))


# ---------------------------------------------------------------------------
# cuts of the last axis: the max of each row and of its columns from its
# cut on, as classify's candidate scan takes them
# ---------------------------------------------------------------------------

def table_space():
    """A 40-point sphere table with NaN at one triple, and an index trace
    of 301 points on it."""
    rng = np.random.default_rng(38)
    T = FiniteTwoMetricSpace.from_points(sphere(rng, 40), det_metric_batch).dense()
    entries = {t: float(T[t]) for t in combinations(range(40), 3)}
    entries[(3, 17, 29)] = np.nan
    space = FiniteTwoMetricSpace(40, entries).as_space()
    trace = rng.integers(0, 40, size=301)
    trace[-20:-14] = [3, 17, 29, 3, 17, 29]
    return space, space.d_batch, trace, lambda: None


def factored(kind):
    """A space with the kernel of ``kind``, its points, and whether its
    factorised path ran: ``(space, kernel, points, ran)``."""
    rng = np.random.default_rng(39)
    if kind == "table":
        return table_space()
    if kind == "det":
        space, calls = counted()
        return space, det_metric_batch, sphere(rng, 301), lambda: calls["kernel"] == 0
    if kind == "patch":
        patch = SpherePatch(0.2)
        return patch_space(patch), patch.metric_batch, patch.sample(rng, 301), lambda: None
    if kind == "stacked":
        # no mark: the kernel gets the stacked rows
        return (replace(SPACE, d_batch=lambda X, Y, Z: det_metric_batch(X, Y, Z)),
                det_metric_batch, sphere(rng, 301), lambda: None)
    # the Gram split only bounds rows, so no path here runs without the kernel
    dim = int(kind.split("-")[1])
    space, _ = area(dim)
    return space, area_metric_batch, area_ball_space(dim).sample(rng, 301), lambda: None


def cut_scans(rng):
    """Row numbers of scans of 301 points, each with a cut per row: the
    candidate scan of the first 40 rows over every pair of the last 150, in
    lexicographic order, cut between first points of pairs as ``classify``
    cuts it; the same over a shuffled pick of those pairs, cut anywhere;
    line membership; and a phi-like scan over its witnesses.  Some cuts are
    at the first column and some past the last."""
    I, J = np.triu_indices(150, k=1)
    I, J = I + 151, J + 151
    pick = rng.permutation(len(I))[:3000]
    return [
        ((np.arange(40)[:, None], I, J),
         np.searchsorted(I, 151 + np.r_[-1, 150, rng.integers(0, 151, 38)], side="right")),
        ((np.arange(40)[:, None], I[pick], J[pick]), np.r_[0, 3000, rng.integers(0, 3001, 38)]),
        ((np.arange(301)[:, None], [[5]], [[9]]), rng.integers(0, 2, 301)),
        ((np.arange(100, 160)[:, None], np.arange(200, 260)[:, None], np.arange(40)),
         np.r_[0, 40, rng.integers(0, 41, 58)]),
    ]


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 15, 2 ** 20])
@pytest.mark.parametrize("kind", ["det", "area-3", "area-5", "area-8", "area-9", "area-12",
                                  "patch", "table", "stacked"])
def test_triple_scans_have_the_kernel_bits(kind, budget, monkeypatch):
    # scans with a cut per row, as classify's candidate scan takes them:
    # the max of each row and of its columns from the cut on are those of
    # the kernel values, on every layout, with a NaN tail point (a NaN
    # entry of the table) and one point under two row numbers; without
    # cuts, the max of each row alone
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    space, kernel, P, ran = factored(kind)
    if P.ndim == 2:
        P[-10, 1] = np.nan
        P[-7] = P[-12]
    for number, (scan, cuts) in enumerate(cut_scans(np.random.default_rng(40))):
        values = np.asarray(kernel(*(P[np.asarray(A)] for A in scan)))
        want = hexes([[row.max(), row[c:].max(initial=-np.inf)] for row, c in zip(values, cuts)])
        assert number > 1 or "nan" in want
        assert "-inf" in want
        assert hexes(_d_max(space, *scan, P, cuts)) == want
        assert hexes(_d_max(space, *scan, P)) == hexes(values.max(axis=-1))
        # the factorised paths serve the scans with y and z along the columns
        assert number == 3 or ran() in (None, True)


# ---------------------------------------------------------------------------
# the declarations live on the kernel: a ``functools.wraps`` wrapper keeps
# them, and a metric put in by ``replace`` has none of the old kernel's
# ---------------------------------------------------------------------------

def declaring(kind):
    """A space whose kernel declares ``factors`` (det), ``gram`` (area) or
    only ``broadcasts`` (table), and 301 points of it."""
    if kind == "table":
        space, _, trace, _ = table_space()
        return space, trace
    space = SPACE if kind == "det" else area_ball_space(3)
    return space, space.sample(np.random.default_rng(41), 301)


@pytest.mark.parametrize("kind", ["det", "area", "table"])
def test_a_wrapped_kernel_keeps_its_declarations(kind):
    space, P = declaring(kind)
    kernel, calls = space.d_batch, []

    @wraps(kernel)
    def wrapper(X, Y, Z):
        calls.append(np.shape(X))
        return kernel(X, Y, Z)

    for name in ("broadcasts", "factors", "gram"):
        assert getattr(wrapper, name, None) is getattr(kernel, name, None)
    wrapped = replace(space, d_batch=wrapper)
    for number, (scan, cuts) in enumerate(cut_scans(np.random.default_rng(42))):
        for c in (cuts, None):
            calls.clear()
            assert hexes(_d_max(wrapped, *scan, P, c)) == hexes(_d_max(space, *scan, P, c))
            # the factor layout serves the scans with y and z along the
            # columns from the declared parts alone; the Gram split only
            # bounds rows of a scan asked for classes
            assert bool(calls) == (kind != "det" or number == 3)


@pytest.mark.parametrize("kind", ["det", "area", "table"])
def test_a_replaced_metric_is_computed_without_the_old_declarations(kind):
    # as a planted defect is put in: 1.5 times the kernel, with no phi
    space, P = declaring(kind)
    kernel = space.d_batch
    planted = replace(space, d_batch=lambda X, Y, Z: 1.5 * kernel(X, Y, Z), phi=None)
    for scan, cuts in cut_scans(np.random.default_rng(43)):
        for c in (cuts, None):
            # x -> 1.5 x rounds monotonically, so it commutes with the max
            assert hexes(_d_max(planted, *scan, P, c)) == hexes(1.5 * _d_max(space, *scan, P, c))


# ---------------------------------------------------------------------------
# the line generators: the farthest pair of passers
# ---------------------------------------------------------------------------

def farthest_of_every_pair(space, witnesses, passers):
    """The generators as an oracle finds them: the first argmax, in
    ``np.triu_indices`` order, of a scan of every pair of passers."""
    P = np.asarray(passers)
    pi, pj = np.triu_indices(len(P), k=1)
    best = int(np.argmax(eval_phi(space, pi, pj, witnesses, P)))
    return [list(P[pi[best]]), list(P[pj[best]])]


def hit(A, p):
    return (np.asarray(A) == p).all(axis=-1)


@pytest.mark.parametrize("steps, theta, nan, declared", [
    (200, np.pi / 7, False, False), (300, np.pi / 7, False, False),
    (300, 1.234, False, False),
    (460, np.pi / 7, False, False),     # a tail of 230 points, whose pairs are subsampled
    (300, 1.234, True, False),          # phi NaN on one pair of tail passers
    (300, np.pi / 7, False, True),      # the sphere's declared phi, no witness scan
], ids=["200", "300", "300-irrational", "460-subsampled", "300-nan", "300-declared"])
def test_classify_generators_are_those_of_every_passer_pair(steps, theta, nan, declared):
    W = sphere_witnesses(128, 0)
    seq = orbit(make_sphere_map(SphereContractionParams(0.1, 0.5, theta)),
                np.array([0.8, 0.0, 0.6]), steps, W).points
    space = det_sphere_space() if declared else SPACE
    k = len(seq) - (len(seq) - round(len(seq) / 2))
    if nan:
        # NaN at the phi of the 5th and 9th tail passers, and nowhere else:
        # only the witnesses off the equator have |z| above 1e-3
        passers = classify(SPACE, seq, W).passers
        pa, pb = passers[-k + 5], passers[-k + 9]
        at_pair = (lambda X, Y, Z: (hit(X, pa) & hit(Y, pb) | hit(X, pb) & hit(Y, pa))
                   & (np.abs(Z[..., 2]) > 1e-3))
        space = replace(SPACE, d_batch=broadcasting(lambda X, Y, Z: np.where(
            at_pair(X, Y, Z), np.nan, det_metric_batch(X, Y, Z))))
    verdict = classify(space, seq, W)

    assert verdict.tag == "LineCase"
    generators = [list(g) for g in (verdict.line.g1, verdict.line.g2)]
    assert generators == farthest_of_every_pair(space, W, verdict.passers)
    witness = sum(bool(hit(W.points, p).any()) for p in verdict.passers)
    assert witness and len(verdict.passers) - witness > 2
    if nan:
        assert generators == [list(pa), list(pb)]
        assert "cauchy modulus is NaN" in verdict.notes
