"""Lines: colinearity, enumeration vs brute force, tail classification."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import (DATA, det_reference, first_of_each, oracle_maximal_colinear, patch_space,
                      point_key, random_sphere_table, table_items, table_phi, tail_residual)
from twometric import (FiniteTwoMetricSpace, Line, SpherePatch, Thresholds, WitnessSet,
                       area_ball_space, classify, demo_five_point_space, det_metric,
                       det_sphere_space, enumerate_lines, maximal_colinear_sets,
                       sphere_witnesses)
from twometric import core
import twometric.lines as lines_module
from twometric.core import _d_many
from twometric.lines import Classification, _pair_arrays

E1, E2, E3 = np.eye(3)
SPHERE = det_sphere_space()


def equatorial(t: float) -> np.ndarray:
    return np.array([np.cos(t), np.sin(t), 0.0])


# ---------------------------------------------------------------------------
# colinearity and line membership
# ---------------------------------------------------------------------------

def test_colinear_with_repeated_point(rng):
    x, z = SPHERE.sample(rng, 2)
    assert Line(x, z, 1e-12).contains_each(SPHERE, [x])[0]


def test_equatorial_triples_are_exactly_colinear():
    assert Line(E1, E2, 1e-15).contains_each(SPHERE, [equatorial(0.9)])[0]


def test_line_through_equator_membership(rng):
    line = Line(E1, E2, 1e-9)
    on = [equatorial(t) for t in np.linspace(0.0, 2 * np.pi, 17)]
    assert line.contains_each(SPHERE, on).all()
    off = SPHERE.sample(rng, 50)
    assert not line.contains_each(SPHERE, off[np.abs(off[:, 2]) > 1e-3]).any()


def test_orthonormal_frame_is_not_colinear():
    assert not Line(E2, E3, 0.5).contains_each(SPHERE, [E1])[0]


def test_line_members_match_the_scalar_scan(rng):
    # values with many exact zeros, so members, non-members and (on a NaN)
    # entries that are no member all occur
    for trial in range(200):
        n = int(rng.integers(3, 9))
        finite = FiniteTwoMetricSpace(n)
        for t in combinations(range(n), 3):
            finite.table[t] = float(rng.choice([0.0, 0.0, 1e-13, 0.5, 1.0]))
        if trial % 2 and n > 3:
            finite.table[tuple(sorted(rng.choice(n, 3, replace=False).tolist()))] = np.nan
        space = finite.as_space()
        x, y = (int(v) for v in rng.choice(n, 2, replace=False))
        for tol in (1e-12, 0.7):
            scan = tuple(a for a in range(n) if finite.d(a, x, y) <= tol)
            assert lines_module._members(space, Line(np.intp(x), y, tol)) == scan


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_demo_space_has_exactly_eight_lines():
    lines = enumerate_lines(demo_five_point_space())
    got = {frozenset(line.members) for line in lines}
    assert got == {frozenset(s) for s in
                   [{0, 1, 2}, {0, 3}, {0, 4}, {1, 3}, {1, 4},
                    {2, 3}, {2, 4}, {3, 4}]}


def test_all_positive_space_yields_all_pairs(rng):
    space = random_sphere_table(rng, 5)
    assert all(v > 1e-6 for _, v in table_items(space))
    got = {frozenset(line.members) for line in enumerate_lines(space)}
    expected = {frozenset({i, j}) for i in range(5) for j in range(i + 1, 5)}
    assert got == expected


def test_degenerate_space_is_a_single_line():
    space = FiniteTwoMetricSpace(4)
    lines = enumerate_lines(space)
    assert len(lines) == 1 and frozenset(lines[0].members) == {0, 1, 2, 3}


def test_a_small_entry_is_colinear_at_the_floor_only():
    # lines._COLINEAR is 1e-12: an entry of 1e-11 is no line, its pairs are
    for value, lines in ((1e-11, [[0, 1], [0, 2], [1, 2]]), (1e-12, [[0, 1, 2]])):
        space = FiniteTwoMetricSpace(3, {(0, 1, 2): value})
        assert [list(line.members) for line in enumerate_lines(space)] == lines


def test_enumeration_matches_exhaustive_oracle(rng):
    for trial in range(25):
        n = int(rng.integers(3, 7))
        space = random_sphere_table(rng, n, planted_equatorial=int(rng.integers(0, n + 1)))
        got = maximal_colinear_sets(space)
        assert got == oracle_maximal_colinear(space), f"trial {trial}"


def test_nan_entry_is_not_colinear():
    # NaN <= tol is False: (0, 1, 3) is no line, its pairs are
    space = demo_five_point_space()
    space.table[(0, 1, 3)] = float("nan")
    got = maximal_colinear_sets(space)
    assert got == oracle_maximal_colinear(space)
    assert {frozenset({0, 3}), frozenset({1, 3})} <= got
    assert frozenset({0, 1, 3}) not in got


def test_enumeration_matches_oracle_with_zero_distance_copies(rng):
    # a point with antipodal copies: every pair of copies has the whole
    # table as its closure, so their lines come from the recursion
    for trial in range(10):
        pts = list(rng.normal(size=(4, 3)))
        pts += [(-1) ** i * pts[0] for i in range(1, int(rng.integers(1, 4)))]
        space = FiniteTwoMetricSpace.from_points(pts, det_metric)
        assert maximal_colinear_sets(space) == oracle_maximal_colinear(space), f"trial {trial}"


def test_separated_pairs_lie_on_exactly_one_line(rng):
    for _ in range(10):
        space = random_sphere_table(rng, 6, planted_equatorial=3)
        lines = [frozenset(line.members) for line in enumerate_lines(space)]
        for i in range(space.n):
            for j in range(i + 1, space.n):
                if table_phi(space, i, j) > 1e-6:
                    assert sum({i, j} <= s for s in lines) == 1


def test_lines_intersect_in_at_most_one_separated_point(rng):
    for _ in range(10):
        space = random_sphere_table(rng, 6, planted_equatorial=3)
        sets = [frozenset(line.members) for line in enumerate_lines(space)]
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                common = sets[a] & sets[b]
                separated = [(i, j) for i in common for j in common
                             if i < j and table_phi(space, i, j) > 1e-6]
                assert not separated


# ---------------------------------------------------------------------------
# the triple modulus, read off the candidate scan
# ---------------------------------------------------------------------------

def held_triples(length, start):
    """Row numbers (t, i, j) of every tail triple t < i < j from ``start``
    whose pair (i, j) is one of the tail pairs of ``_pair_arrays``."""
    I, J = _pair_arrays(length, start)
    count = I - start
    t = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + start
    return t, np.repeat(I, count), np.repeat(J, count)


def held_triples_max(space, seq, start, block=1 << 16):
    """The rule's triple modulus by brute force: the NaN-keeping max of d
    over every held tail triple, by the kernel on gathered rows, in blocks
    that keep the gathered rows small."""
    P, T = np.asarray(seq), held_triples(len(seq), start)
    return float(np.max([_d_many(space, *(np.take(P, A[s:s + block], axis=0) for A in T)).max()
                         for s in range(0, len(T[0]), block)]))


def table_case():
    """The 12-point table and a random index trace on it, with every point
    as a witness."""
    table = FiniteTwoMetricSpace.load(DATA / "table12" / "table.json")
    return table.as_space(), WitnessSet.all_of(table), lambda rng, n: rng.integers(0, 12, n)


def tri_case(kind):
    """A space, its witnesses and a sampler of its sequences."""
    if kind == "table":
        return table_case()
    space = {"det": SPHERE, "area": area_ball_space(3), "area-9": area_ball_space(9),
             "patch": patch_space(SpherePatch(0.2))}[kind]
    return space, WitnessSet.sampled(space, 16, 1), space.sample


@pytest.mark.parametrize("tail", [
    3, 4, 100, 108, 114, 120, 121, 150, 200,   # every triple
    201, 250,                                  # the triples over the picked pairs
])
@pytest.mark.parametrize("kind", ["det", "area", "area-9", "patch", "table"])
def test_tri_modulus_of_a_tail_to_120_points_is_that_of_every_triple(kind, tail, monkeypatch):
    # every tail triple up to 200 tail points, and past that the triples
    # whose pair is one of _pair_arrays' seeded pick, at every row budget
    # (area-9 takes the Gram split past 8 coordinates)
    space, witnesses, sample = tri_case(kind)
    seq = np.asarray(sample(np.random.default_rng(tail), 2 * tail))
    if tail <= 200:
        assert len(held_triples(2 * tail, tail)[0]) == comb(tail, 3)
    want = held_triples_max(space, seq, tail)
    for budget in (2 ** 9, 2 ** 15, 2 ** 20):
        monkeypatch.setattr(core, "_ROW_BUDGET", budget)
        got = classify(space, seq, witnesses, Thresholds(min_length=3)).tri_cauchy_modulus
        assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("steps", [60, 1000])
def test_tri_modulus_of_a_trace_that_repeats_points(steps):
    # an index trace cycling over 4 points of the 12-point table: every
    # tail point is a witness (all of the table), at the tail position of
    # its first occurrence; 1,000 steps pick the tail pairs
    space, witnesses, _ = table_case()
    seq = np.resize([0, 1, 2, 5], steps)
    want = held_triples_max(space, seq, steps // 2)
    assert want > 0
    got = classify(space, seq, witnesses).tri_cauchy_modulus
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("repeat", [False, True], ids=["once", "again"])
def test_tri_modulus_with_a_tail_point_equal_to_a_witness(repeat):
    # a tail that spirals into E3, so its widest triples start at its
    # first point x_30; a witness equal to x_30 stands for it as a
    # candidate, at its tail position, also when x_30 comes again at 35
    t = np.arange(60)[:, None]
    seq = E3 + 0.9 ** t * (np.cos(2.0 * t) * E1 + np.sin(2.0 * t) * E2)
    seq /= np.linalg.norm(seq, axis=1, keepdims=True)
    if repeat:
        seq[35] = seq[30]
    W = np.asarray(sphere_witnesses(16, 1).points).copy()
    W[3] = seq[30]
    want = held_triples_max(SPHERE, seq, 30)
    assert want > held_triples_max(SPHERE, seq, 31)
    got = classify(SPHERE, seq, WitnessSet(W)).tri_cauchy_modulus
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 15, 2 ** 20])
@pytest.mark.parametrize("nan", [False, True], ids=["clean", "nan"])
@pytest.mark.parametrize("space", [SPHERE, area_ball_space(3), area_ball_space(8)],
                         ids=["det", "area-3", "area-8"])
def test_tri_modulus_is_the_block_loop_at_every_budget(space, nan, budget, monkeypatch):
    # 150 tail points: the 551,300 tail triples in blocks of the row
    # budget, each evaluated in one kernel call, and the NaN-keeping max of
    # the block maxima; a NaN tail point reaches the modulus
    length = 301
    seq = np.asarray(space.sample(np.random.default_rng(budget), length))
    if nan:
        seq[-40, 1] = np.nan
    want = held_triples_max(space, seq, length - round(length * Thresholds().tail_fraction),
                            block=budget)
    assert np.isnan(want) == nan
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    got = classify(space, seq, WitnessSet.sampled(space, 16, 1)).tri_cauchy_modulus
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("length", [
    201,    # 100 tail points
    241,    # 120 tail points
])
def test_tri_modulus_blocks_match_one_kernel_call(length):
    seq = np.asarray(SPHERE.sample(np.random.default_rng(length), length))
    start = length - round(length * Thresholds().tail_fraction)
    c = core._triples(length - start) + start
    want = _d_many(SPHERE, seq[c[:, 0]], seq[c[:, 1]], seq[c[:, 2]]).max()
    got = classify(SPHERE, seq, sphere_witnesses(16, seed=1)).tri_cauchy_modulus
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("length", [4000, 20000])
def test_classify_of_a_long_tail_peaks_under_16_mb(length):
    # the candidate scan reduces each block of rows before the next: an
    # array of the candidates x the first points of the 20,000 tail pairs
    # would take 52 MB at 4,000 points and about 1 GB at 20,000
    seq = np.asarray(SPHERE.sample(np.random.default_rng(1), length))
    W = sphere_witnesses(128, seed=0)
    tracemalloc.start()
    try:
        classify(SPHERE, seq, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# tail pairs
# ---------------------------------------------------------------------------

def triu_pick_pairs(length, start, cap=20000):
    """The tail pairs as classify once picked them: all of them in
    ``np.triu_indices`` order, or those at ``cap`` positions of a seeded
    ``choice`` from that order when there are more."""
    i, j = np.triu_indices(length - start, k=1)
    if len(i) > cap:
        pick = np.random.default_rng(0x5EED).choice(len(i), size=cap, replace=False)
        i, j = i[pick], j[pick]
    return i + start, j + start


@pytest.mark.parametrize("tail", [199, 200, 201, 250, 1000, 4000])
def test_tail_pairs_are_the_triu_pick_in_key_order(tail):
    # 199 and 200 tail points keep every pair, 201 and more a pick
    i, j = _pair_arrays(2 * tail, tail)
    want_i, want_j = triu_pick_pairs(2 * tail, tail)
    keys = (i - tail) * tail + j - tail
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(keys, np.sort((want_i - tail) * tail + want_j - tail))


@pytest.mark.parametrize("tail", [201, 1000, 1414, 4000, 10000])
def test_tail_pairs_peak_under_16_mb(tail):
    # no array of every tail pair, which took 144 MB at 4,000 points; the
    # seeded pick itself peaks at 1,414 points (8.2 MB), the last tail
    # whose pairs number at most 50 times the pick
    tracemalloc.start()
    try:
        _pair_arrays(2 * tail, tail)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_alternating_sequence_classifies_as_equator_line():
    seq = np.array([E1, E2] * 30)
    W = sphere_witnesses(128, seed=5)
    verdict = classify(SPHERE, seq, W)
    assert verdict.tag == "LineCase"
    assert verdict.tri_cauchy_modulus == 0.0
    assert verdict.cauchy_modulus == 1.0
    normal = np.cross(verdict.line.g1, verdict.line.g2)
    assert abs(normal[2]) / np.linalg.norm(normal) >= 1.0 - 1e-12
    equator = [equatorial(t) for t in np.linspace(0, 2 * np.pi, 9)]
    assert verdict.line.contains_each(SPHERE, equator).all()


def test_passers_satisfy_derived_colinearity_bound():
    seq = np.array([E1, E2] * 30)
    W = sphere_witnesses(128, seed=6)
    verdict = classify(SPHERE, seq, W)
    assert len(verdict.passers) >= 3
    # classify notes a passer membership defect above the derived tolerance
    assert verdict.notes == []
    derived = 6.0 * verdict.thresholds.lim * (1.0 + 1.0 / verdict.cauchy_modulus)
    P = verdict.passers
    for a in range(min(6, len(P))):
        for b in range(a + 1, min(6, len(P))):
            for c in range(b + 1, min(6, len(P))):
                assert det_metric(P[a], P[b], P[c]) <= derived


def test_colinear_points_inherit_the_tail_property():
    # anything colinear with two separated passers must pass a derived
    # threshold; here the whole equator sits at residual zero
    seq = np.array([E1, E2] * 30)
    thresholds = Thresholds()
    for t in np.linspace(0.2, 2 * np.pi, 8):
        assert tail_residual(det_reference, equatorial(t), seq, 30) <= 3.0 * thresholds.lim


def test_accumulation_points_pass_on_three_phase_cycle():
    mid = equatorial(0.7)
    seq = np.array([E1, mid, E2] * 20)
    W = sphere_witnesses(128, seed=7)
    verdict = classify(SPHERE, seq, W)
    assert verdict.tag == "LineCase"
    assert verdict.tri_cauchy_modulus == 0.0
    for accumulation_point in (E1, mid, E2):
        assert tail_residual(det_reference, accumulation_point, seq, 30) <= 1e-12


def test_convergent_sequence_classifies_as_cauchy():
    seq = np.array([np.array([np.cos(0.3 ** i), np.sin(0.3 ** i), 0.0])
                    for i in range(60)])
    W = sphere_witnesses(128, seed=8)
    verdict = classify(SPHERE, seq, W)
    assert verdict.tag == "CauchySequence"
    assert np.allclose(verdict.limit, E1, atol=1e-6)


def test_no_point_case_on_orthonormal_cycle():
    seq = np.array([E1, E2, E3] * 20)
    W = sphere_witnesses(64, seed=9)
    verdict = classify(SPHERE, seq, W)
    assert verdict.tag == "NoPoint"
    assert verdict.cauchy_modulus == 1.0
    assert verdict.tri_cauchy_modulus == 1.0
    assert not verdict.passers


def test_unique_point_when_passers_collapse():
    # every distinct triple microscopically positive: the whole space is one
    # pair-distance cluster, so the passer set counts as a single point
    space = FiniteTwoMetricSpace(4)
    for t in combinations(range(space.n), 3):
        space.table[t] = 1e-7
    seq = np.array([0, 1] * 30)
    verdict = classify(space.as_space(), seq, WitnessSet.all_of(space))
    assert verdict.tag == "UniquePoint"
    assert verdict.cauchy_modulus == pytest.approx(1e-7)


def test_finite_alternating_pair_yields_two_point_line():
    space = demo_five_point_space()
    verdict = classify(space.as_space(), np.array([3, 4] * 30),
                       WitnessSet.all_of(space))
    assert verdict.tag == "LineCase"
    assert frozenset(verdict.line.members) == {3, 4}


def test_finite_alternating_pair_inside_long_line():
    space = demo_five_point_space()
    verdict = classify(space.as_space(), np.array([0, 1] * 30),
                       WitnessSet.all_of(space))
    assert verdict.tag == "LineCase"
    assert frozenset(verdict.line.members) == {0, 1, 2}


def test_low_confidence_flag_near_thresholds():
    wobble = 3e-8
    seq = np.array([np.array([1.0, wobble * (-1.0) ** i, 0.0]) / np.sqrt(1 + wobble ** 2)
                    for i in range(60)])
    W = sphere_witnesses(64, seed=10)
    verdict = classify(SPHERE, seq, W)
    assert verdict.low_confidence
    assert verdict.notes


def test_classify_rejects_short_sequences():
    with pytest.raises(ValueError, match="below minimum"):
        classify(SPHERE, np.tile(E1, (10, 1)), sphere_witnesses(16, seed=11))


@pytest.mark.parametrize("length", [3, 4, 5])
def test_classify_takes_a_tail_of_three_points_at_least(length):
    seq = np.asarray(SPHERE.sample(np.random.default_rng(length), length))
    verdict = classify(SPHERE, seq, sphere_witnesses(16, seed=11), Thresholds(min_length=3))
    assert verdict.tag == "NoPoint" and verdict.tri_cauchy_modulus > 0.0


@pytest.mark.parametrize("length", [0, 1, 2])
def test_classify_refuses_fewer_than_three_points(length):
    with pytest.raises(ValueError, match=f"sequence length {length} below minimum 3"):
        classify(SPHERE, np.tile(E1, (length, 1)), sphere_witnesses(16, seed=11),
                 Thresholds(min_length=0))


def test_classification_json_schema():
    seq = np.array([E1, E2] * 30)
    verdict = classify(SPHERE, seq, sphere_witnesses(64, seed=12))
    payload = verdict.to_json()
    assert payload["tag"] == "LineCase"
    assert {"cauchy_modulus", "tri_cauchy_modulus", "thresholds",
            "passers", "line"} <= set(payload)
    assert set(payload["line"]) == {"generators", "tolerance", "members"}


ODD = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-300, 1e300, 0.1]


@pytest.mark.parametrize("points", [
    [], (), np.zeros((0, 3)),
    [np.array([1, 0, 0]), np.array([0, 2, 0])],
    np.array([[1, 0], [0, -3]]),
    [np.int64(3), np.int64(0), np.int64(3)], (1, 4, 2), np.arange(5),
    [np.array(ODD[i:i + 3]) for i in range(8)],
    np.array(ODD).reshape(5, 2),
    np.array(ODD), [0.5, -0.0],
    np.arange(12.0).reshape(2, 3, 2),
    # no stack: each point on its own
    [0, np.array([0.0, 1.0, 2.0])], [3, 1.5, np.int64(2)], [np.array([1.0, 2.0]), np.array([3.0])],
    np.array([True, False]),
], ids=lambda p: type(p).__name__)
def test_points_json_is_point_json_of_each_point(points):
    # json.dumps tells 1 from 1.0 and compares NaN by its spelling
    got = core.points_json(points)
    assert json.dumps(got) == json.dumps([core.point_json(p) for p in points])


def test_passers_and_members_write_int_coordinates_as_floats():
    passers = [np.array([1, 0, 0]), np.array([0, 1, 0])]
    verdict = Classification("NoPoint", 1.0, 1.0, Thresholds(), passers=passers)
    assert json.dumps(verdict.to_json()["passers"]) == "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]"
    assert replace(verdict, passers=[]).to_json()["passers"] == []
    line = Line(E1, E2, 1e-6, members=tuple(passers))
    assert json.dumps(line.to_json()["members"]) == "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]"
    assert Line(0, 1, 1e-6, members=(0, 1, 4)).to_json()["members"] == [0, 1, 4]
    assert Line(0, 1, 1e-6, members=()).to_json()["members"] == []


@pytest.mark.parametrize("points", [
    np.array([[0.0, 1.0], [-0.0, 1.0], [np.nan, 0.0], [np.nan, 0.0], [2.0, 3.0], [0.0, 1.0],
              [2.0, 3.0], [5.0, 5.0]]),
    np.array([3, 1, 3, 0, 1, 1, 4, 2]),
    np.array([[1, 2], [1, 2], [2, 1]]),
])
@pytest.mark.parametrize("m", [0, 2, 5])
def test_first_of_each_keys_points_as_point_key_does(points, m):
    # classify's candidates over m witnesses and a tail: the classes of
    # _key_classes, numbered in order of first appearance, are those of
    # point_key, so np.unique gives each class's first position and, on
    # the stack rolled to start at the tail, its first tail position, or
    # one at or past the tail's end for a class of witnesses only
    m = min(m, len(points))
    classes = core._key_classes(points)
    numbers: dict = {}
    assert classes.tolist() == [numbers.setdefault(point_key(p), len(numbers)) for p in points]
    first = np.unique(classes, return_index=True)[1]
    position = np.unique(np.roll(classes, -m), return_index=True)[1]
    assert (first.tolist(), np.minimum(position, len(points) - m).tolist()) == \
        first_of_each(points, m)


def classify_reference(space, seq, witnesses, thresholds=Thresholds()):
    """``classify``'s passers, the count of its NaN residuals and its
    triple modulus by brute force: the candidates of ``first_of_each`` over
    the witnesses and the tail, each one's residual the NaN-keeping max of
    d over the tail pairs of ``_pair_arrays``, by the kernel on gathered
    rows, and ``held_triples_max``."""
    seq = np.asarray(seq)
    start = len(seq) - max(3, round(len(seq) * thresholds.tail_fraction))
    points = np.concatenate([np.asarray(witnesses.points), seq[start:]])
    first, _ = first_of_each(points, len(witnesses))
    I, J = _pair_arrays(len(seq), start)
    residuals = [np.max(_d_many(space, np.take(points, np.full(len(I), f), axis=0), seq[I],
                                seq[J])) for f in first]
    passers = [points[f] for f, r in zip(first, residuals) if r <= thresholds.lim]
    return passers, int(np.isnan(residuals).sum()), held_triples_max(space, seq, start)


def equator_case(nan_witnesses=False, nan_tail=False):
    """A tail alternating between E1, written with -0.0, and E2, on
    witnesses whose first point is E1 with 0.0; optionally two witnesses,
    or two tail points, with the same NaN coordinates."""
    seq = np.array([[1.0, -0.0, 0.0], E2] * 30)
    W = np.asarray(sphere_witnesses(16, 1).points).copy()
    assert json.dumps(core.point_json(W[0])) == "[1.0, 0.0, 0.0]"
    if nan_witnesses:
        W[[5, 9]] = [np.nan, 0.0, 0.0]
    if nan_tail:
        seq[[44, 50]] = [np.nan, 0.0, 0.0]
    return SPHERE, seq, WitnessSet(W)


def spiral_case():
    """A tail spiralling into E3 whose first point x_30 is a witness and
    comes again at 35."""
    t = np.arange(60)[:, None]
    seq = E3 + 0.9 ** t * (np.cos(2.0 * t) * E1 + np.sin(2.0 * t) * E2)
    seq /= np.linalg.norm(seq, axis=1, keepdims=True)
    seq[35] = seq[30]
    W = np.asarray(sphere_witnesses(16, 1).points).copy()
    W[3] = seq[30]
    return SPHERE, seq, WitnessSet(W)


def repeats_case():
    """A table trace cycling over four points, one twice a cycle: 500
    tail points, whose pairs are a seeded pick."""
    space, witnesses, _ = table_case()
    return space, np.resize([0, 1, 2, 5, 1], 1000), witnesses


def index_trace_case():
    """The 12-point table's committed index trace, every point a witness."""
    space, witnesses, _ = table_case()
    seq = np.loadtxt(DATA / "table12" / "index_trace.csv", delimiter=",", skiprows=1,
                     dtype=int)[:, 1]
    return space, seq, witnesses


@pytest.mark.parametrize("case", [
    pytest.param(equator_case, id="signed-zero"),
    pytest.param(lambda: equator_case(nan_witnesses=True), id="nan-witnesses"),
    pytest.param(lambda: equator_case(nan_tail=True), id="nan-tail"),
    pytest.param(spiral_case, id="witness-in-tail"),
    pytest.param(repeats_case, id="repeats"),
    pytest.param(index_trace_case, id="index-trace"),
])
def test_classify_takes_the_candidates_of_the_first_of_each_oracle(case):
    # the passers in order and in their bits (a witness's 0.0, not the
    # tail's -0.0), one NaN residual per NaN point, and the triple modulus
    space, seq, witnesses = case()
    passers, nan, tri = classify_reference(space, seq, witnesses)
    verdict = classify(space, seq, witnesses)
    assert json.dumps(core.points_json(verdict.passers)) == json.dumps(core.points_json(passers))
    assert (f"{nan} candidate residuals are NaN" in verdict.notes) == (nan > 0)
    assert float(verdict.tri_cauchy_modulus).hex() == float(tri).hex()
