"""Lines: colinearity, enumeration vs brute force, tail classification."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from conftest import (det_reference, oracle_maximal_colinear, random_sphere_table, table_items,
                      table_phi, tail_residual)
from twometric import (FiniteTwoMetricSpace, Line, Thresholds, WitnessSet, area_ball_space,
                       classify, demo_five_point_space, det_metric, det_sphere_space,
                       enumerate_lines, maximal_colinear_sets, sphere_witnesses)
from twometric import core
import twometric.lines as lines_module
from twometric.core import _d_many
from twometric.lines import _triple_arrays

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
# tail triples
# ---------------------------------------------------------------------------

def old_triple_arrays(length, start, cap=200000):
    """The tail triples as classify once drew them: every row of the m^3
    grid filtered to i < j < k, or the sorted rows of 2 * cap random draws
    filtered the same way."""
    m = length - start
    total = m * (m - 1) * (m - 2) // 6
    if m > 120 or total > 4 * cap:
        rng = np.random.default_rng(0x5EED)
        combos = np.sort(rng.integers(0, m, size=(cap * 2, 3)), axis=1)
        combos = combos[(combos[:, 0] < combos[:, 1]) & (combos[:, 1] < combos[:, 2])]
        combos = combos[:cap]
    else:
        combos = np.array(np.meshgrid(np.arange(m), np.arange(m), np.arange(m),
                                      indexing="ij")).reshape(3, -1).T
        combos = combos[(combos[:, 0] < combos[:, 1]) & (combos[:, 1] < combos[:, 2])]
        if len(combos) > cap:
            pick = np.random.default_rng(0x5EED).choice(len(combos), size=cap, replace=False)
            combos = combos[pick]
    return combos + start


@pytest.mark.parametrize("length, start", [
    (2, 0), (40, 37), (60, 10), (106, 0),
    (120, 13),                  # every triple, up to C(107, 3) <= 200,000
    (108, 0), (140, 20),        # a subsample of the grid: 108..120
    (121, 0), (300, 150), (500, 100),   # random draws
])
def test_triple_arrays_match_the_grid_and_sort_forms(length, start):
    got = _triple_arrays(length, start)
    want = old_triple_arrays(length, start)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def full_draw(seed, m, draws, keep):
    """The first ``keep`` distinct rows of all ``draws`` random rows, each
    sorted: the oracle of a draw sized to what it keeps."""
    rows = np.random.default_rng(seed).integers(0, m, size=(draws, 3))
    rows = rows[(rows[:, 0] != rows[:, 1]) & (rows[:, 1] != rows[:, 2])
                & (rows[:, 0] != rows[:, 2])]
    return np.sort(rows, axis=1)[:keep]


@pytest.mark.parametrize("sigmas", [None, 0.0, -3.0], ids=["default", "even", "short"])
@pytest.mark.parametrize("m", [3, 4, 5, 10, 121, 150, 151, 301, 1000])
def test_a_draw_sized_to_what_it_keeps_is_the_full_draw(m, sigmas, monkeypatch):
    # a margin of 0 or -3 standard deviations makes the short draw fall
    # short about half the time or nearly always, so the full draw runs too
    if sigmas is not None:
        monkeypatch.setattr(core, "_SHORT_DRAW_SIGMAS", sigmas)
    sizes = []
    sort = core._sorted_distinct

    def recorded(draw, keep):
        rows = sort(draw, keep)
        sizes.append((len(draw), len(rows)))
        return rows
    monkeypatch.setattr(core, "_sorted_distinct", recorded)
    cases = [(seed, 40, 10) for seed in range(6)] + [(seed, 4000, 1000) for seed in range(6)]
    cases += [(0, 2 * lines_module._MAX_TRIPLES, lines_module._MAX_TRIPLES)] if m >= 121 else []
    short = fell_short = 0
    for seed, draws, keep in cases:
        sizes.clear()
        got = core._distinct_triples(np.random.default_rng(seed), m, draws, keep)
        want = full_draw(seed, m, draws, keep)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert sizes[-1][0] == draws or sizes[-1][1] == keep
        short += sizes[0][0] < draws
        fell_short += len(sizes) == 2 and sizes[0][1] < keep
    if sigmas is None:
        assert not fell_short and (short or m == 3)
    elif sigmas == -3.0:
        assert fell_short or m == 3

@pytest.mark.parametrize("length", [
    201,    # 100 tail points: every triple, in blocks
    241,    # 120 tail points: a subsample of the triples
    401,    # 200 tail points: random draws
])
def test_tri_modulus_blocks_match_one_kernel_call(length):
    seq = np.asarray(SPHERE.sample(np.random.default_rng(length), length))
    c = _triple_arrays(length, length - round(length * Thresholds().tail_fraction))
    want = _d_many(SPHERE, seq[c[:, 0]], seq[c[:, 1]], seq[c[:, 2]]).max()
    got = classify(SPHERE, seq, sphere_witnesses(16, seed=1)).tri_cauchy_modulus
    assert float(got).hex() == float(want).hex()


def block_loop_tri_modulus(space, seq, combos, budget):
    """The triple modulus as classify once took it: blocks of ``budget``
    index triples, each gathered with np.take and evaluated in one kernel
    call, and the NaN-keeping np.max of the block maxima."""
    return float(np.max([
        _d_many(space, *(np.take(seq, combos[s:s + budget, k], axis=0) for k in range(3))).max()
        for s in range(0, len(combos), budget)]))


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 15, 2 ** 20])
@pytest.mark.parametrize("nan", [False, True], ids=["clean", "nan"])
@pytest.mark.parametrize("space", [SPHERE, area_ball_space(3), area_ball_space(8)],
                         ids=["det", "area-3", "area-8"])
def test_tri_modulus_is_the_block_loop_at_every_budget(space, nan, budget, monkeypatch):
    # 150 tail points: 200,000 random triple draws, 7 blocks at 2^15
    length = 301
    seq = np.asarray(space.sample(np.random.default_rng(budget), length))
    if nan:
        seq[-40, 1] = np.nan
    combos = _triple_arrays(length, length - round(length * Thresholds().tail_fraction))
    want = block_loop_tri_modulus(space, seq, combos, budget)
    assert np.isnan(want) == nan
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    got = classify(space, seq, WitnessSet.sampled(space, 16, 1)).tri_cauchy_modulus
    assert float(got).hex() == float(want).hex()


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
