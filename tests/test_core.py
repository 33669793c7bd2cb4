"""Core: pair distance, audits, finite tables, quotient."""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np
import pytest

from conftest import random_sphere_table, table_items, table_phi
from twometric.cli import COMMANDS
from twometric.core import _triples
from twometric import (FiniteTwoMetricSpace, WitnessSet, audit,
                       demo_five_point_space, det_metric, det_sphere_space, eval_phi,
                       quotient_by_zero_phi, sphere_witnesses, witness_refinement_gap)

E1, E2, E3 = np.eye(3)


# ---------------------------------------------------------------------------
# eval_phi
# ---------------------------------------------------------------------------

def test_phi_vanishes_on_identical_arguments():
    space = det_sphere_space()
    W = sphere_witnesses(64, seed=1)
    north = np.array([0.0, 0.0, 1.0])
    assert eval_phi(space, north, north, W) <= 1e-12


def test_phi_matches_equatorial_supremum():
    # against e1 and (u, v, 0) the sup over the sphere is |v|, attained at
    # the poles, which the axis-augmented witness set contains exactly
    space = det_sphere_space()
    W = sphere_witnesses(256, seed=2)
    for t in (0.3, 1.2, 2.5):
        y = np.array([np.cos(t), np.sin(t), 0.0])
        assert eval_phi(space, E1, y, W) == pytest.approx(abs(np.sin(t)), abs=1e-12)


def test_phi_exact_table_maximum_on_finite_space(rng):
    space = random_sphere_table(rng, 6)
    view = space.as_space()
    W = WitnessSet.all_of(space)
    for i in range(space.n):
        for j in range(space.n):
            expected = max(space.d(i, j, k) for k in range(space.n))  # oracle
            assert eval_phi(view, i, j, W) == expected


def test_phi_is_exactly_symmetric(rng):
    space = det_sphere_space()
    W = sphere_witnesses(64, seed=3)
    for _ in range(50):
        x, y = space.sample(rng, 2)
        assert eval_phi(space, x, y, W) == eval_phi(space, y, x, W)


def test_phi_rejects_empty_witness_set():
    with pytest.raises(ValueError):
        WitnessSet(np.empty((0, 3)))


def test_witness_refinement_gap_nonnegative_and_small_on_sphere():
    space = det_sphere_space()
    W = sphere_witnesses(128, seed=4)
    gap = witness_refinement_gap(space, W)
    assert 0.0 <= gap < 0.2


def test_witness_refinement_gap_zero_with_all_points():
    space = demo_five_point_space()
    gap = witness_refinement_gap(space.as_space(), WitnessSet.all_of(space))
    assert gap == 0.0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def by_axiom(report) -> dict:
    return {r.axiom: r for r in report.records}


def test_audit_det_sphere_all_axioms_within_tolerance():
    space = det_sphere_space()
    report = audit(space, witnesses=sphere_witnesses(128, seed=7),
                   triples=2000, seed=7)
    assert not report.failing()
    assert max(r.max_violation for r in report.records) <= 1e-9
    assert by_axiom(report)["Sym"].samples == 2000


def test_audit_area_ball_all_axioms_within_tolerance():
    from twometric import area_ball_space

    space = area_ball_space()
    W = WitnessSet.sampled(space, 128, seed=8)
    report = audit(space, witnesses=W, triples=2000, seed=8)
    assert not report.failing()
    assert max(r.max_violation for r in report.records) <= 1e-9


def test_audit_flags_planted_negative_entry():
    space = demo_five_point_space()
    space.table[(0, 1, 3)] = -0.5
    report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                   triples=2000, seed=9)
    rec = by_axiom(report)["Z"]
    assert rec.max_violation >= 0.5 - 1e-12
    assert tuple(sorted(int(w) for w in rec.witness)) == (0, 1, 3)
    assert report.failing()


def test_audit_flags_degeneracy_violation():
    # a pair with phi = 0 fails the nondegeneracy axiom, as an indicator
    space = FiniteTwoMetricSpace(3, {(0, 1, 2): 0.0})
    report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                   triples=500, seed=10)
    assert by_axiom(report)["N"].max_violation == 1.0
    assert not report.failing(non_fatal=("N",))


def test_audit_fails_on_a_nan_entry_with_witnesses():
    # NaN compares false with everything: it must still fail, with a
    # witness, and the report must stay valid JSON
    import json

    space = demo_five_point_space()
    space.table[(0, 1, 3)] = float("nan")
    report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                   triples=2000, seed=9)
    nan_axioms = [r.axiom for r in report.records if np.isnan(r.max_violation)]
    assert nan_axioms and set(nan_axioms) <= set(report.failing())
    assert all(by_axiom(report)[a].witness is not None for a in nan_axioms)
    records = json.loads(json.dumps(report.to_json(), allow_nan=False))["axioms"]
    for rec in records:
        if rec["axiom"] in nan_axioms:
            assert rec["max_violation"] is None and rec["non_finite"] is True
        else:
            assert "non_finite" not in rec and rec["max_violation"] is not None


def test_audit_z_record_sees_a_nan_entry(rng):
    # Z compares its two parts; a NaN in either must reach the record
    space = random_sphere_table(rng, 12)
    space.table[(2, 5, 9)] = float("nan")
    report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                   triples=2000, seed=9)
    rec = by_axiom(report)["Z"]
    assert np.isnan(rec.max_violation) and "Z" in report.failing()
    assert tuple(sorted(int(w) for w in rec.witness)) == (2, 5, 9)


def test_audit_sym_vacuous_on_finite_tables():
    space = demo_five_point_space()
    report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                   triples=200, seed=11)
    rec = by_axiom(report)["Sym"]
    assert rec.max_violation == 0.0 and rec.samples == 0


def test_audit_phi_inequalities_exact_on_finite_spaces(rng):
    # with all points as witnesses the truncated sup is the true sup, so
    # the derived inequalities have no truncation slack at all
    for planted in (0, 3):
        space = random_sphere_table(rng, 6, planted_equatorial=planted)
        report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                       triples=1500, seed=12)
        for name in ("AT", "CostTriangle", "DphiLipschitz"):
            assert by_axiom(report)[name].max_violation <= 1e-12


def test_audit_report_json_schema():
    space = demo_five_point_space()
    report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                   triples=100, seed=13)
    payload = report.to_json()
    assert set(payload) == {"seed", "tolerance", "axioms"}
    assert payload["seed"] == 13
    names = [rec["axiom"] for rec in payload["axioms"]]
    assert names == ["Sym", "Tetr", "Z", "N", "B", "Trans", "AT",
                     "CostTriangle", "DphiLipschitz"]
    for rec in payload["axioms"]:
        assert set(rec) == {"axiom", "max_violation", "witness", "samples"}


def test_audit_rejects_bad_sample_count():
    space = demo_five_point_space()
    with pytest.raises(ValueError):
        audit(space.as_space(), witnesses=WitnessSet.all_of(space), triples=0)


# ---------------------------------------------------------------------------
# finite tables
# ---------------------------------------------------------------------------

def test_finite_space_json_round_trip(tmp_path, rng):
    space = random_sphere_table(rng, 5)
    path = tmp_path / "table.json"
    space.save(path)
    loaded = FiniteTwoMetricSpace.load(path)
    assert loaded.n == space.n
    assert table_items(loaded) == table_items(space)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert set(payload) == {"n", "entries"}
    assert all(set(e) == {"i", "j", "k", "d"} for e in payload["entries"])


def test_finite_space_rejects_repeated_index_entries():
    with pytest.raises(ValueError):
        FiniteTwoMetricSpace(4, {(0, 0, 1): 0.5})
    with pytest.raises(ValueError):
        FiniteTwoMetricSpace(2, {(0, 1, 2): 0.5})


def test_finite_phi_propagates_nan_like_the_dense_scans():
    space = demo_five_point_space()
    space.table[(0, 1, 3)] = float("nan")
    n = space.n
    I, J = (a.ravel() for a in np.indices((n, n)))
    batch = eval_phi(space.as_space(), I, J, WitnessSet.all_of(space))
    got = np.array([table_phi(space, i, j) for i, j in zip(I.tolist(), J.tolist())])
    assert np.array_equal(got, batch, equal_nan=True)
    assert np.array_equal(got, space.dense().max(axis=2).ravel(), equal_nan=True)
    assert np.isnan(table_phi(space, 0, 1)) and np.isnan(table_phi(space, 3, 0))


def test_finite_space_symmetric_and_degenerate_by_construction():
    space = demo_five_point_space()
    assert space.d(3, 1, 0) == space.d(0, 1, 3) == 1.0
    assert space.d(2, 2, 4) == 0.0


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------

def test_quotient_identity_when_strictly_reflexive():
    space = demo_five_point_space()
    assert quotient_by_zero_phi(space) is space


def test_quotient_merges_antipodal_pair(rng):
    pts = [p / np.linalg.norm(p) for p in rng.normal(size=(4, 3))]
    pts.append(-pts[0])
    space = FiniteTwoMetricSpace.from_points(pts, det_metric)
    assert table_phi(space, 0, 4) <= 1e-12
    quotient = quotient_by_zero_phi(space)
    assert quotient.n == 4
    for i in range(quotient.n):
        for j in range(i + 1, quotient.n):
            assert table_phi(quotient, i, j) > 0.0


def scalar_quotient(space, tol=1e-12):
    """The quotient as a loop over pairs and triples of scalar lookups;
    a NaN pair distance never merges."""
    parent = list(range(space.n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(space.n):
        for j in range(i + 1, space.n):
            if np.max([space.d(i, j, k) for k in range(space.n)]) <= tol:
                parent[find(i)] = find(j)
    roots = sorted({find(i) for i in range(space.n)})
    index = {r: c for c, r in enumerate(roots)}
    out = FiniteTwoMetricSpace(len(roots))
    for i, j, k in combinations(range(space.n), 3):
        c = sorted({index[find(i)], index[find(j)], index[find(k)]})
        if len(c) == 3:
            out.table[tuple(c)] = space.d(i, j, k)
    return out


def test_quotient_matches_scalar_loop(rng, tmp_path):
    # points with antipodal and exact copies, some NaN entries
    for trial in range(8):
        pts = list(rng.normal(size=(6, 3)))
        pts += [(-1) ** int(rng.integers(2)) * pts[int(rng.integers(6))] for _ in range(4)]
        space = FiniteTwoMetricSpace.from_points(pts, det_metric)
        if trial % 2:
            space.table[(0, 1, 2)] = space.table[(3, 4, 5)] = float("nan")
        got, want = quotient_by_zero_phi(space), scalar_quotient(space)
        assert got.n == want.n < space.n
        assert list(got.table) == list(want.table)
        got.save(tmp_path / "got.json")
        want.save(tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_quotient_merges_at_the_zero_floor_only():
    # core._ZERO_PHI is 1e-12: a pair at pair distance 1e-11 stays apart,
    # one at 1e-13 merges
    for phi, n in ((1e-11, 4), (1e-12, 3), (1e-13, 3)):
        space = FiniteTwoMetricSpace(4, {(0, 1, 2): phi, (0, 1, 3): phi, (0, 2, 3): 1.0,
                                         (1, 2, 3): 1.0})
        assert table_phi(space, 0, 1) == phi and quotient_by_zero_phi(space).n == n


def test_audit_defaults_to_the_cli_tolerance():
    table = demo_five_point_space()
    report = audit(table.as_space(), witnesses=WitnessSet.all_of(table), triples=10)
    assert report.tolerance == COMMANDS["audit"][1]["tolerance"] == 1e-9


def test_quotient_collapses_totally_degenerate_space():
    space = FiniteTwoMetricSpace(3, {(0, 1, 2): 0.0})
    assert quotient_by_zero_phi(space).n == 1


def test_triples_are_the_lexicographic_combinations():
    for n in (*range(13), 40, 100, 121):
        rows = _triples(n)
        assert rows.dtype == np.intp and rows.shape == (len(list(combinations(range(n), 3))), 3)
        assert rows.tolist() == [list(t) for t in combinations(range(n), 3)]
        # one contiguous column per index, as the scans read them
        assert rows.flags.f_contiguous

