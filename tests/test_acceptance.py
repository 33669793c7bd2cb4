"""Acceptance suite: the ten exit criteria, one test each.

Run `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Tolerances are pinned here and are not calibration knobs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import arc_ladder_space, oracle_maximal_colinear, random_sphere_table, trajectory
from twometric import (CertInput, SpherePatch, SphereContractionParams,
                       WitnessSet, audit, banach_direct, banach_multcost,
                       banach_power, certifier_baseline, certify, classify,
                       convexity_baseline, convexity_bound,
                       demo_five_point_space, det_metric, det_sphere_space,
                       detect_outcome, enumerate_lines, interval_space,
                       make_sphere_map, maximal_colinear_sets,
                       measured_contraction_factor, orbit, quasi_from_two_metric,
                       sphere_witnesses)
from twometric.baselines import REGRESSION_TOLERANCE, within_regression
from twometric.core import _triples, _worst_ratio
from twometric.spaces import area_ball_space, sample_sphere

E1, E2, E3 = np.eye(3)
CHECKED_AXIOMS = ("Sym", "Tetr", "Z", "B", "Trans", "AT", "CostTriangle",
                  "DphiLipschitz")


def test_criterion_01_axiom_suite():
    start = time.monotonic()
    sphere_report = audit(det_sphere_space(),
                          witnesses=sphere_witnesses(128, seed=1),
                          triples=2000, seed=1)
    ball = area_ball_space()
    ball_report = audit(ball, witnesses=WitnessSet.sampled(ball, 128, seed=2),
                        triples=2000, seed=2)
    elapsed = time.monotonic() - start
    for report, label in ((sphere_report, "det-sphere"), (ball_report, "area-ball")):
        violations = {r.axiom: r.max_violation for r in report.records}
        for axiom in CHECKED_AXIOMS:
            violation = violations[axiom]
            assert violation <= 1e-9, f"{label}/{axiom}: {violation}"
    assert elapsed < 5.0
    print(f"[PASS] criterion 1: both audits clean at 1e-9 in {elapsed:.2f}s")


def test_criterion_02_cramer_identities(rng):
    done = 0
    while done < 500:
        x, y, z, a = sample_sphere(rng, 4)
        d0 = det_metric(x, y, z)
        if d0 < 0.05:
            continue
        # Cramer's rule: the coordinates of a in the basis (x, y, z) are
        # the determinant ratios, up to sign
        coefficients = np.abs(np.linalg.solve(np.column_stack([x, y, z]), a))
        ratios = np.array([det_metric(a, y, z), det_metric(x, a, z), det_metric(x, y, a)]) / d0
        assert np.abs(ratios - coefficients).max() <= 1e-9
        assert coefficients.sum() >= 1.0 - 1e-12
        done += 1
    print("[PASS] criterion 2: 500 ratio identities at 1e-9, norms >= 1")


def test_criterion_03_contraction_bound():
    squeeze = make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7))
    # the exact factor k / (e^2 + k^2 (1 - e^2))^(3/2), not the bound k / e^3 = 0.8
    exact = 0.1 / (0.25 + 0.01 * 0.75) ** 1.5
    assert squeeze.claimed_factor == pytest.approx(exact, rel=1e-9)
    assert round(squeeze.claimed_factor, 4) == 0.7653
    measured = measured_contraction_factor(squeeze, samples=2000, seed=3)
    assert measured <= squeeze.claimed_factor
    trace = orbit(squeeze, np.array([0.8, 0.0, 0.6]), 150,
                  witnesses=sphere_witnesses(64, seed=3), seed=3)
    assert trace.decay_margin is not None
    assert trace.decay_margin <= 1e-9
    print(f"[PASS] criterion 3: measured factor {measured:.4f} <= {exact:.4f}, "
          f"orbit decay margin {trace.decay_margin:.2e}")


def test_criterion_04_fixed_line_vs_fixed_point():
    witnesses = sphere_witnesses(128, seed=4)
    start = time.monotonic()
    rotated = detect_outcome(
        make_sphere_map(SphereContractionParams(0.1, 0.5, np.pi / 7)),
        np.array([0.8, 0.0, 0.6]), 200, witnesses=witnesses, seed=4)
    rotated_time = time.monotonic() - start
    assert rotated.tag == "FixedLine"
    assert max(abs(p[2]) for p in rotated.line.members) <= 1e-6
    assert rotated.invariance_defect <= 1e-6
    assert rotated.min_point_residual >= 0.43
    assert rotated_time < 2.0

    start = time.monotonic()
    squeezed = detect_outcome(
        make_sphere_map(SphereContractionParams(0.1, 0.5, 0.0)),
        np.array([np.cos(0.4), np.sin(0.4), 0.0]), 200,
        witnesses=witnesses, seed=4)
    squeeze_time = time.monotonic() - start
    assert squeezed.tag == "FixedPoint"
    assert squeezed.residual <= 1e-10
    assert squeeze_time < 2.0
    print(f"[PASS] criterion 4: FixedLine (defect {rotated.invariance_defect:.1e}, "
          f"no fixed point at {rotated.min_point_residual:.3f}) in {rotated_time:.2f}s; "
          f"FixedPoint (residual {squeezed.residual:.1e}) in {squeeze_time:.2f}s")


def test_criterion_05_line_enumeration_oracle(rng):
    demo_lines = {frozenset(line.members) for line in enumerate_lines(demo_five_point_space())}
    assert demo_lines == {frozenset(s) for s in
                          [{0, 1, 2}, {0, 3}, {0, 4}, {1, 3}, {1, 4},
                           {2, 3}, {2, 4}, {3, 4}]}
    for trial in range(100):
        n = int(rng.integers(3, 7))
        planted = int(rng.integers(0, n + 1))
        space = random_sphere_table(rng, n, planted_equatorial=planted)
        assert maximal_colinear_sets(space) == oracle_maximal_colinear(space), \
            f"trial {trial}"
    print("[PASS] criterion 5: demo yields 8 lines; 100 random spaces match "
          "the exhaustive oracle")


def test_criterion_06_alternating_sequence():
    sequence = np.array([E1, E2] * 30)
    verdict = classify(det_sphere_space(), sequence, sphere_witnesses(128, seed=6))
    assert verdict.tag == "LineCase"
    assert verdict.tri_cauchy_modulus == 0.0
    assert verdict.cauchy_modulus == 1.0
    normal = np.cross(verdict.line.g1, verdict.line.g2)
    normal /= np.linalg.norm(normal)
    assert abs(normal[2]) >= 1.0 - 1e-12  # the plane spanned by e1, e2
    print("[PASS] criterion 6: LineCase equator, tri modulus exactly 0, "
          "pair modulus exactly 1")


def test_criterion_07_quasi_banach():
    def verify_tail(space, F, x0, run, k):
        iterates = trajectory(F, x0, run.steps)
        assert iterates[-1] == run.fixed_point
        first = space.phi(iterates[0], iterates[1])
        coeff = first / (1.0 - space.C * k)
        for n in range(len(iterates)):
            for m in range(n + 1, len(iterates)):
                assert space.phi(iterates[n], iterates[m]) < coeff * k ** n + 1e-12

    interval = interval_space()
    direct = banach_direct(interval, lambda x: x / 3.0, 1.0, 1.0 / 3.0)
    assert direct.tail_bound_ok
    verify_tail(interval, lambda x: x / 3.0, 1.0, direct, 1.0 / 3.0)

    table, mapping = arc_ladder_space()
    quasi = quasi_from_two_metric(table.as_space(), WitnessSet.all_of(table))
    finite_run = banach_direct(quasi, lambda i: mapping[int(i)], 6, 0.4, seed=7)
    assert finite_run.tail_bound_ok and finite_run.residual <= 1e-12
    verify_tail(quasi, lambda i: mapping[int(i)], 6, finite_run, 0.4)

    power = banach_power(interval_space(C=2.0), lambda x: 0.6 * x, 1.0, 0.6)
    assert power.power == 2
    assert power.residual <= 1e-10

    from dataclasses import replace

    zero_cost = replace(interval_space(), psi=lambda x, y, z: 0.0, psi_bound=0.0)
    mult = banach_multcost(zero_cost, lambda x: x / 3.0, 1.0, 1.0 / 3.0)
    assert mult.steps == direct.steps
    assert mult.fixed_point == direct.fixed_point
    assert mult.residual == direct.residual
    print("[PASS] criterion 7: tail bounds on every recorded pair; power "
          "trick a=2; zero-cost variant identical to direct")


def test_criterion_08_convexity_sandwich():
    base = convexity_baseline()
    report = convexity_bound(radius=0.2, samples=10000, seed=base["seed"])
    assert np.isfinite(report.C) and report.C >= 1.0
    assert REGRESSION_TOLERANCE == 0.05
    assert within_regression(report.C, base["C"])
    print(f"[PASS] criterion 8: empirical C {report.C:.4f} within 5% of "
          f"baseline {base['C']:.4f}")


def test_criterion_09_certifier():
    base = certifier_baseline()
    A = 0.25 * np.eye(2)
    good = CertInput(map=lambda x: A @ np.asarray(x, dtype=float), jac_target=A,
                     norm_bound=base["C_A"], patch=SpherePatch(0.2),
                     inner_radius=0.1, ratio_constant=base["C_prime"])
    result = certify(good, seed=9)
    assert result.passes
    assert result.worst_ratio <= base["C_prime"] * 0.0625

    shift = 10.0 * result.c_prime
    bad = CertInput(
        map=lambda x: A @ np.asarray(x, dtype=float) + shift * np.array([x[0], 0.0]),
        jac_target=A, norm_bound=base["C_A"], patch=SpherePatch(0.2),
        inner_radius=0.1, ratio_constant=base["C_prime"])
    rejection = certify(bad, seed=9)
    assert not rejection.passes
    fail = rejection.failures[0]
    assert fail["hypothesis"] == "jacobian_proximity"
    assert abs(fail["value"] - shift) <= 0.05 * shift
    assert np.linalg.norm(fail["witness"]) <= 0.1
    print(f"[PASS] criterion 9: 0.25I certified (ratio {result.worst_ratio:.4f} "
          f"<= {base['C_prime'] * 0.0625:.4f}); planted 10c' rejected with witness")


def test_criterion_10_surjective_maps_cannot_contract(rng):
    for trial in range(50):
        n = int(rng.integers(4, 7))
        planted = int(rng.integers(0, n // 2 + 1))
        space = random_sphere_table(rng, n, planted_equatorial=planted)
        perm = rng.permutation(space.n)
        # the worst ratio d(F i, F j, F k) / d(i, j, k) over every triple
        # of the table, as the measured contraction factor takes it
        rows = _triples(space.n)
        k, kept = _worst_ratio(space.as_space().d_batch, rows.T, perm[rows].T)
        assert kept and k >= 1.0, f"trial {trial}: {k}"
    print("[PASS] criterion 10: 50 random permutations all measure k >= 1")
