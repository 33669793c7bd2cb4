"""Factored scans against the plain kernel on gathered rows.

The det kernel declares ``factors = (_cross, _det_outer)``: ``core._d_max``
computes the cross products ``y x z`` once per scan when (y, z) is fixed
along the scan's chunk axis, and, in the index form (row numbers of a point
array), once per distinct y row when z is fixed and y repeats.  The area
kernel declares a Gram split, which the index form evaluates from the edges
between its points.  The oracle is the same kernel behind a plain
``broadcasting`` wrapper, which declares neither and so takes the kernel on
every chunk, called on the gathered rows.  Every value must have the same
bits, compared with ``float.hex``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from conftest import gathered_max, hexes, lex_order, patch_space
from twometric import (FiniteTwoMetricSpace, SphereContractionParams, SpherePatch, WitnessSet,
                       area_ball_space, audit, make_linear_map, make_sphere_map,
                       sphere_witnesses)
from twometric import core, lines
from twometric.core import _d_max, broadcasting, eval_phi
from twometric.dynamics import orbit
from twometric.lines import Line, _pair_arrays, _triple_arrays, classify
from twometric.spaces import (_cross, _det_outer, area_metric_batch, det_metric_batch,
                              det_sphere_space)

SPACE = det_sphere_space()


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
    """Audit-like pairs: the row numbers of distinct unordered pairs of
    witness points, so the second point of each pair (after the
    lexicographic swap) repeats."""
    m = len(W)
    I, J = rng.integers(0, m, size=(2, count))
    keys = np.unique(np.minimum(I, J) * m + np.maximum(I, J))
    return keys // m, keys % m


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
# z fixed, y repeating: phi scans
# ---------------------------------------------------------------------------

def test_audit_like_phi_scan_has_the_kernel_bits():
    rng = np.random.default_rng(31)
    W = sphere_witnesses(60, 31)
    P = np.asarray(W.points)
    I, J = witness_pairs(W, rng, 3000)
    space, calls = counted()
    fast = eval_phi(space, I, J, W, P)
    assert hexes(fast) == hexes(eval_phi(unfactored(SPACE), P[I], P[J], W))
    # one table over the distinct second points, and no kernel call
    assert calls["kernel"] == 0 and len(calls["inner"]) == 1
    distinct = len(np.unique(lex_order(P[I], P[J])[1], axis=0))
    assert calls["inner"][0][0] == distinct < len(I)


def test_classify_like_phi_scan_has_the_kernel_bits():
    seq, I, J = demo_tail()
    W = sphere_witnesses(40, 2)
    space, calls = counted()
    assert hexes(eval_phi(space, I, J, W, seq)) == hexes(
        eval_phi(unfactored(SPACE), seq[I], seq[J], W))
    assert calls["kernel"] == 0 and len(calls["inner"]) == 1
    # passer-like pairs: every pair of a point set, and one point against all
    P = seq[-30:]
    pi, pj = np.triu_indices(len(P), k=1)
    plain = eval_phi(unfactored(SPACE), P[pi], P[pj], W)
    assert hexes(eval_phi(SPACE, pi, pj, W, P)) == hexes(plain)
    assert hexes(eval_phi(SPACE, P[pi], P[pj], W)) == hexes(plain)
    assert hexes(eval_phi(SPACE, P[:1], P, W)) == hexes(eval_phi(unfactored(SPACE), P[:1], P, W))


def test_distinct_y_keeps_the_kernel():
    rng = np.random.default_rng(32)
    W = sphere_witnesses(20, 32)
    X, Y = sphere(rng, 50), sphere(rng, 50)
    # repeating y rows given as coordinates: a table is keyed by row numbers
    # only, so this scan keeps the kernel too
    for y in (Y, Y[rng.integers(0, 5, size=50)]):
        space, calls = counted()
        assert hexes(eval_phi(space, X, y, W)) == hexes(eval_phi(unfactored(SPACE), X, y, W))
        assert calls["kernel"] > 0 and not calls["inner"]


def test_signed_zeros_are_distinct_rows_of_the_table():
    # rows 4 and 6 are one point under two row numbers, row 5 its signed zero
    W = np.asarray(sphere_witnesses(10, 33).points)
    X = np.array([[1.0, 0.0, 0.0], [0.6, -0.8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    Y = np.array([[0.0, 0.6, 0.8], [-0.0, 0.6, 0.8], [0.0, 0.6, 0.8]])
    P = np.concatenate([X, Y, W])
    xi, yi, wi = np.arange(4)[:, None], np.array([4, 5, 6, 4])[:, None], 7 + np.arange(len(W))
    space, calls = counted()
    fast = _d_max(space, xi, yi, wi, P)
    assert hexes(fast) == hexes(_d_max(unfactored(SPACE), xi, yi, wi, P))
    assert hexes(fast) == hexes(gathered_max(det_metric_batch, P, xi, yi, wi))
    assert calls["inner"] == [(3, 1, 3)] and calls["kernel"] == 0


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
    assert calls["kernel"] == 0
    assert np.array_equal(np.isnan(fast), expected)
    assert hexes(fast) == hexes(_d_max(unfactored(SPACE), xi, yi, wi, P))
    assert hexes(fast) == hexes(gathered_max(det_metric_batch, P, xi, yi, wi))


@pytest.mark.parametrize("budget", [1, 7, 40, 6 * 30 - 1, 6 * 30, 2 ** 9, 10 ** 6, 2 ** 20])
def test_a_small_budget_keeps_the_bits(budget, monkeypatch):
    # 6 distinct y against 30 witnesses: a table of 180 rows, which fits
    # only from a budget of 180 on
    P, scan = planted_scan(np.random.default_rng(35), sphere_witnesses(24, 35), 6, 90)
    whole = hexes(_d_max(SPACE, *scan, P))
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    space, calls = counted()
    assert hexes(_d_max(space, *scan, P)) == whole
    assert hexes(_d_max(unfactored(SPACE), *scan, P)) == whole
    assert hexes(gathered_max(det_metric_batch, P, *scan)) == whole
    assert (calls["kernel"] == 0) == (budget >= 180)


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
    # at 2^9 rows the phi scan's table of distinct y does not fit
    assert (calls["kernel"] == 0) == (budget == 2 ** 20)


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
# the area kernel's Gram split: index scans from the edges between points
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
    return replace(area_ball_space(dim), d_batch=kernel), calls


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
    # the split evaluates without the kernel, in every dimension
    assert not calls


def check_planted_nan(where, dim):
    """A NaN coordinate at a candidate, a tail point or a witness: the
    index scans by the split give the plain kernel's bits, NaN rows
    included, without calling the kernel."""
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
    assert not calls
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
    space = area_ball_space(3)
    plain = unfactored(space)
    witnesses = WitnessSet(W)
    assert json.dumps(classify(space, seq, witnesses).to_json()) == json.dumps(
        classify(plain, seq, witnesses).to_json())
    if steps == 120:
        assert json.dumps(audit(space, witnesses=witnesses, triples=500, seed=5).to_json()) == (
            json.dumps(audit(plain, witnesses=witnesses, triples=500, seed=5).to_json()))


# ---------------------------------------------------------------------------
# x, y and z along the rows: the triple modulus through a pair table
# ---------------------------------------------------------------------------

def triple_scans(length):
    """Row numbers of three triple scans of ``length`` points, as classify's
    triple modulus makes them: the draw over the last 150 rows, every
    triple of the last 20, and the first 40 rows of that draw, each with
    rows of repeated indices added."""
    scans = []
    for start, rows in ((length - 150, None), (length - 20, None), (length - 150, 40)):
        c = _triple_arrays(length, start)[:rows]
        # with the NaN rows of ``test_triple_scans_have_the_kernel_bits``
        extra = np.array([[start, start, start + 9], [start, start + 9, start + 9],
                          [start + 9, start, start + 9], [length - 5] * 3,
                          [start, length - 10, length - 1],
                          [length - 20, length - 19, length - 18]])
        scans.append(tuple(np.concatenate([c, extra])[:, [k]] for k in range(3)))
    return scans


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
    dim = int(kind.split("-")[1])
    space, calls = area(dim)
    return space, area_metric_batch, area_ball_space(dim).sample(rng, 301), lambda: not calls


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 15, 2 ** 20])
@pytest.mark.parametrize("kind", ["det", "area-3", "area-5", "area-8", "area-9", "area-12",
                                  "patch", "table"])
def test_triple_scans_have_the_kernel_bits(kind, budget, monkeypatch):
    # a NaN tail point (a NaN entry of the table), and one point under two
    # row numbers
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    for scan in triple_scans(301):
        space, kernel, P, ran = factored(kind)
        if P.ndim == 2:
            P[-10, 1] = np.nan
            P[-7] = P[-12]
        want = hexes(gathered_max(kernel, P, *scan))
        assert "nan" in want
        got = hexes(_d_max(space, *scan, P))
        assert got == want
        # a table of the s * s pairs of the s rows spanned pays with fewer
        # entries than triples and fits the budget: the 20-row scan's 400
        # pairs at every budget, the 150-row draw's 22,500 pairs from 2^15
        # on, and never for 46 triples
        span = np.ptp(np.concatenate(scan)) + 1
        assert ran() in (None, span ** 2 <= min(budget, len(scan[0]) - 1))
    # no triple, and one
    for rows in (0, 1):
        scan = [np.full((rows, 1), k) for k in (3, 9, 12)]
        assert hexes(_d_max(space, *scan, P)) == hexes(gathered_max(kernel, P, *scan))


# ---------------------------------------------------------------------------
# the line generators: passer pairs looked up in the Cauchy scan
# ---------------------------------------------------------------------------

def farthest_of_every_pair(space, witnesses, P, tail, k, tail_phi):
    """The generators as an oracle classify finds them: the argmax of a
    scan of every pair of passers."""
    pi, pj = np.triu_indices(len(P), k=1)
    best = int(np.argmax(eval_phi(space, pi, pj, witnesses, P)))
    return int(pi[best]), int(pj[best])


def hit(A, p):
    return (np.asarray(A) == p).all(axis=-1)


@pytest.mark.parametrize("steps, theta, nan", [
    (200, np.pi / 7, False), (300, np.pi / 7, False), (300, 1.234, False),
    (460, np.pi / 7, False),    # a tail of 230 points, whose pairs are subsampled
    (300, 1.234, True),         # phi NaN on one pair of tail passers
], ids=["200", "300", "300-irrational", "460-subsampled", "300-nan"])
def test_classify_generators_are_those_of_every_passer_pair(steps, theta, nan, monkeypatch):
    W = sphere_witnesses(128, 0)
    seq = orbit(make_sphere_map(SphereContractionParams(0.1, 0.5, theta)),
                np.array([0.8, 0.0, 0.6]), steps, W).points
    space = SPACE
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
    sizes = []

    def recorded(space, x, y, witnesses, points=None):
        sizes.append(np.size(x) if points is not None else None)
        return eval_phi(space, x, y, witnesses, points)
    monkeypatch.setattr(lines, "eval_phi", recorded)
    verdict = classify(space, seq, W)
    scanned = sizes[-1]
    monkeypatch.setattr(lines, "_farthest_pair", farthest_of_every_pair)
    oracle = classify(space, seq, W)
    assert json.dumps(verdict.to_json()) == json.dumps(oracle.to_json())

    assert verdict.tag == "LineCase"
    witness = sum(bool(hit(W.points, p).any()) for p in verdict.passers)
    K = len(verdict.passers)
    assert witness and K - witness > 2
    # the first scan is the Cauchy scan, the last the passer pairs
    subsampled = k * (k - 1) // 2 > lines._MAX_PAIRS
    own = witness * K - witness * (witness + 1) // 2
    assert scanned == (K * (K - 1) // 2 if subsampled else own)
    if nan:
        assert [list(g) for g in (verdict.line.g1, verdict.line.g2)] == [list(pa), list(pb)]
        assert "cauchy modulus is NaN" in verdict.notes
