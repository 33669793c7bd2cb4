"""audit evaluates each distinct witness pair's phi once: a differential
test against one eval_phi call per check and pair slot, in draw order."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from twometric import (FiniteTwoMetricSpace, WitnessSet, area_ball_space, audit,
                       det_sphere_space, sphere_witnesses)
from twometric import core
from twometric.core import (DEFAULT_TOLERANCE, AxiomRecord, _record_from, broadcasting,
                            eval_phi, point_key)
from twometric.spaces import det_metric_batch

DATA = Path(__file__).parent / "data"
# The axioms whose tuples audit draws from the witness set itself, with phi
# over that set: their derived inequalities hold exactly there.
PHI_AXIOMS = ("N", "AT", "CostTriangle", "DphiLipschitz")


def phi_records_per_slot(space, witnesses, triples, seed, tolerance=DEFAULT_TOLERANCE):
    """The phi checks' records with every pair slot in its own eval_phi call:
    N's pairs of distinct classes from seed + 1, then the AT/CostTriangle
    triples and the DphiLipschitz quadruples from seed + 2."""
    m, W = len(witnesses), np.asarray(witnesses.points)
    widx = np.random.default_rng(seed + 1).integers(0, m, size=(triples, 2))
    canon = space.canon or (lambda p: p)
    keep = [r for r, (i, j) in enumerate(widx)
            if point_key(canon(W[i])) != point_key(canon(W[j]))]
    NX, NY = W[widx[keep, 0]], W[widx[keep, 1]]
    records = [AxiomRecord("N", 0.0, None, 0)]
    if keep:
        phis = eval_phi(space, NX, NY, witnesses)
        records = [_record_from("N", np.where(phis > tolerance, 0.0, 1.0), (NX, NY), len(keep))]

    prng = np.random.default_rng(seed + 2)
    tidx = prng.integers(0, m, size=(triples, 3))
    X, Y, Z = W[tidx[:, 0]], W[tidx[:, 1]], W[tidx[:, 2]]
    xy, xz, zy = (eval_phi(space, P, Q, witnesses) for P, Q in ((X, Y), (X, Z), (Z, Y)))
    d = core._d_many(space, X, Y, Z)
    records.append(_record_from("AT", xy - xz - 2.0 * zy, (X, Y, Z), triples))
    records.append(_record_from("CostTriangle", xy - xz - zy - d, (X, Y, Z), triples))

    qidx = prng.integers(0, m, size=(triples, 4))
    A, B, DX, DY = (W[qidx[:, c]] for c in range(4))
    lhs = np.abs(core._d_many(space, A, B, DX) - core._d_many(space, A, B, DY))
    rhs = 2.0 * eval_phi(space, DX, DY, witnesses)
    records.append(_record_from("DphiLipschitz", lhs - rhs, (A, B, DX, DY), triples))
    return [r.to_json() for r in records]


def phi_records(report):
    return [r for r in report.to_json()["axioms"] if r["axiom"] in PHI_AXIOMS]


def skewed_unmarked(X, Y, Z):
    """A det kernel scaled by the first point's first coordinate: not
    symmetric, so the phi inequalities fail, and not marked
    ``broadcasting``, so scans get materialised rows."""
    return det_metric_batch(X, Y, Z) * (1.0 + 0.5 * np.asarray(X)[..., 0])


def table12():
    return FiniteTwoMetricSpace.load(DATA / "table12" / "table.json")


def with_repeats(W):
    pts = np.asarray(W.points)
    return WitnessSet(np.concatenate([pts, pts[3:9], pts[:1]]))


CASES = {
    "det-sphere": (det_sphere_space, lambda: sphere_witnesses(128, 0), (1, 2000, 8000)),
    "area-ball-3": (lambda: area_ball_space(3), lambda: WitnessSet.sampled(area_ball_space(3), 128, 0),
                    (1, 2000)),
    "area-ball-5": (lambda: area_ball_space(5), lambda: WitnessSet.sampled(area_ball_space(5), 128, 0),
                    (1, 2000, 8000)),
    "unmarked-kernel": (lambda: replace(det_sphere_space(), d_batch=skewed_unmarked),
                        lambda: sphere_witnesses(24, 3), (1, 500)),
    "finite-table": (lambda: table12().as_space(), lambda: WitnessSet.all_of(table12()),
                     (1, 2000, 8000)),
    "repeated-witness": (det_sphere_space, lambda: with_repeats(sphere_witnesses(40, 5)),
                         (1, 2000)),
    # one point three times: every pair is one class, so N keeps none
    "one-class": (det_sphere_space, lambda: WitnessSet(np.repeat([[0.6, 0.0, 0.8]], 3, 0)),
                  (1, 500)),
}


@pytest.mark.parametrize("name, triples", [(name, t) for name, case in CASES.items()
                                           for t in case[2]])
def test_audit_phi_checks_match_one_call_per_slot(name, triples):
    make_space, make_witnesses, _ = CASES[name]
    space, W = make_space(), make_witnesses()
    for seed in (0, 7):
        report = audit(space, witnesses=W, triples=triples, seed=seed)
        assert phi_records(report) == phi_records_per_slot(space, W, triples, seed)
    if name == "one-class":
        assert {r.axiom: r.samples for r in report.records}["N"] == 0
    if name == "unmarked-kernel" and triples > 1:
        assert report.failing()


def test_audit_makes_one_phi_call_on_the_distinct_pairs(monkeypatch):
    calls = []

    def counted(space, x, y, witnesses):
        calls.append((np.asarray(x), np.asarray(y)))
        return eval_phi(space, x, y, witnesses)

    monkeypatch.setattr(core, "eval_phi", counted)
    W = sphere_witnesses(128, 0)
    m = len(W)
    for triples in (1, 2000, 8000):
        calls.clear()
        audit(det_sphere_space(), witnesses=W, triples=triples)
        (X, Y), = calls
        pairs = {tuple(sorted((point_key(x), point_key(y)))) for x, y in zip(X, Y)}
        assert len(pairs) == len(X) <= min(5 * triples, m * (m + 1) // 2)


def test_a_nan_on_one_witness_pair_reaches_every_record_that_drew_it():
    space = det_sphere_space()
    W = WitnessSet.sampled(space, 12, 1)
    pts = np.asarray(W.points)
    triples, seed = 500, 3
    a, b = np.random.default_rng(seed + 2).integers(0, len(W), size=(triples, 3))[0, :2]
    assert a != b

    def at(P, i):
        return (np.asarray(P) == pts[i]).all(axis=-1)

    @broadcasting
    def d_batch(X, Y, Z):
        pair = (at(X, a) & at(Y, b)) | (at(X, b) & at(Y, a))
        return np.where(pair, np.nan, det_metric_batch(X, Y, Z))

    planted = replace(space, d_batch=d_batch)
    report = audit(planted, witnesses=W, triples=triples, seed=seed)
    assert phi_records(report) == phi_records_per_slot(planted, W, triples, seed)
    # the pair is drawn by every phi check at this seed: N counts its NaN phi
    # as a violation, the three inequalities carry the NaN
    violations = {r.axiom: r.max_violation for r in report.records}
    assert violations["N"] == 1.0
    for axiom in ("AT", "CostTriangle", "DphiLipschitz"):
        assert np.isnan(violations[axiom])
    assert set(PHI_AXIOMS) <= set(report.failing())
    clean = audit(space, witnesses=W, triples=triples, seed=seed)
    assert not set(PHI_AXIOMS) & set(clean.failing())
