"""Quasi-distance solvers: direct, power trick, multiplicative cost."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import arc_ladder_space, trajectory
from twometric import (ContractionViolation, QuasiSpace, WitnessSet,
                       banach_direct, banach_multcost, banach_power,
                       check_quasi_axioms, demo_five_point_space,
                       interval_space, minimal_power, quasi_from_two_metric)
from twometric.core import broadcasting


def tail_bound_oracle(space, F, x0, run, k):
    """Rebuild the run's iterates from F and x0, and recompute the
    geometric tail bound on every pair of them."""
    iterates = trajectory(F, x0, run.steps)
    assert iterates[-1] == run.fixed_point
    first = space.phi(iterates[0], iterates[1])
    coeff = first / (1.0 - space.C * k)
    for n in range(len(iterates)):
        for m in range(n + 1, len(iterates)):
            assert space.phi(iterates[n], iterates[m]) < coeff * k ** n + 1e-12


# ---------------------------------------------------------------------------
# spaces and axioms
# ---------------------------------------------------------------------------

def test_quasi_space_rejects_small_constant():
    with pytest.raises(ValueError):
        interval_space(C=0.5)


def test_interval_space_axioms():
    report = check_quasi_axioms(interval_space(), samples=200, seed=1)
    assert report["reflexivity"] == 0.0
    assert report["symmetry"] == 0.0
    assert report["triangle"] == 0.0


def test_quasi_axioms_report_nan_instead_of_skipping_it():
    # the builtin max keeps a NaN only when it comes first
    nan = float("nan")
    base = interval_space()
    space = replace(base, phi=lambda x, y: np.where(x > 0.9, nan, base.phi(x, y)))
    report = check_quasi_axioms(space, samples=200, seed=1)
    assert all(math.isnan(report[key]) for key in ("reflexivity", "symmetry", "triangle"))
    costed = replace(base, psi=lambda x, y, z: np.where(z > 0.9, nan, 0.0), psi_bound=1.0)
    report = check_quasi_axioms(costed, samples=200, seed=1)
    assert report["triangle"] == 0.0
    assert math.isnan(report["multiplicative_triangle"])
    assert math.isnan(report["cost_magnitude"])


def test_quasi_axioms_refuse_an_empty_sample():
    with pytest.raises(ValueError):
        check_quasi_axioms(interval_space(), samples=0)


def test_factor_measurement_refuses_nan_distances():
    # NaN is neither <= the floor nor > the ratio so far, so it was skipped
    nan = float("nan")
    base = interval_space()
    space = replace(base, phi=lambda x, y: np.where(x > 0.9, nan, base.phi(x, y)))
    with pytest.raises(ContractionViolation, match="ratio is NaN") as info:
        banach_direct(space, lambda x: x / 3.0, 0.5, 1.0 / 3.0)
    assert info.value.witness[0] > 0.9
    # finite on the samples, NaN on their images
    space = replace(base, phi=lambda x, y: np.where(x > 1.5, nan, base.phi(x, y)))
    with pytest.raises(ContractionViolation, match="ratio is NaN"):
        banach_direct(space, lambda x: x / 3.0 + 2.0, 0.5, 1.0 / 3.0)


def test_tail_check_fails_on_a_nan_distance():
    # samples within 0.5 of each other; the iterates from 1.0 meet a pair
    # farther apart than 0.7, where phi is NaN
    nan = float("nan")
    base = interval_space()
    space = replace(base, sample=lambda rng, n: 0.5 * rng.random(n),
                    phi=lambda x, y: np.where(np.abs(x - y) > 0.7, nan, base.phi(x, y)))
    run = banach_direct(space, lambda x: x / 3.0, 1.0, 1.0 / 3.0)
    assert run.residual <= 1e-12
    assert not run.tail_bound_ok
    assert math.isnan(run.tail_margin)


def test_derived_distance_satisfies_lopsided_triangle_exactly():
    demo = demo_five_point_space()
    space = quasi_from_two_metric(demo.as_space(), WitnessSet.all_of(demo))
    assert space.C == 2.0
    report = check_quasi_axioms(space, samples=400, seed=2)
    assert report["triangle"] == 0.0
    assert report["symmetry"] == 0.0


# ---------------------------------------------------------------------------
# direct iteration
# ---------------------------------------------------------------------------

def test_direct_interval_contraction():
    space = interval_space()
    F = lambda x: x / 3.0  # noqa: E731
    run = banach_direct(space, F, 1.0, 1.0 / 3.0)
    assert abs(run.fixed_point) <= 1e-11
    assert run.residual <= 1e-12
    assert run.steps <= 30
    assert run.tail_bound_ok
    tail_bound_oracle(space, F, 1.0, run, 1.0 / 3.0)


def test_direct_refuses_factor_at_or_above_threshold():
    with pytest.raises(ValueError, match="banach_power"):
        banach_direct(interval_space(C=2.0), lambda x: 0.6 * x, 1.0, 0.6)


def test_direct_rejects_false_contraction_claim():
    with pytest.raises(ContractionViolation) as err:
        banach_direct(interval_space(), lambda x: 0.5 * x, 1.0, 0.1)
    assert err.value.witness is not None


def test_direct_on_finite_arc_ladder():
    space_table, mapping = arc_ladder_space()
    quasi = quasi_from_two_metric(space_table.as_space(), WitnessSet.all_of(space_table))
    measured = max(
        quasi.phi(mapping[i], mapping[j]) / quasi.phi(i, j)
        for i in range(space_table.n) for j in range(space_table.n)
        if quasi.phi(i, j) > 1e-15)
    assert measured == pytest.approx(0.4, abs=1e-12)
    F = lambda i: mapping[int(i)]  # noqa: E731
    run = banach_direct(quasi, F, 6, 0.4, seed=3)
    assert run.fixed_point == 5
    assert run.residual == 0.0
    assert run.tail_bound_ok
    tail_bound_oracle(quasi, F, 6, run, 0.4)


def test_direct_on_demo_space_with_collapse_map():
    demo = demo_five_point_space()
    quasi = quasi_from_two_metric(demo.as_space(), WitnessSet.all_of(demo))
    run = banach_direct(quasi, lambda i: 0, 4, 0.4, seed=4)
    assert run.fixed_point == 0
    assert run.residual == 0.0
    assert run.k_measured == 0.0  # the collapse map beats its claimed factor
    assert run.tail_bound_ok


def test_uniqueness_across_starts():
    space = interval_space()
    za = banach_direct(space, lambda x: 0.3 * x + 0.14, 0.0, 0.3).fixed_point
    zb = banach_direct(space, lambda x: 0.3 * x + 0.14, 1.0, 0.3).fixed_point
    assert space.phi(za, zb) <= 2e-12


# ---------------------------------------------------------------------------
# power trick
# ---------------------------------------------------------------------------

def test_minimal_power_matches_log_oracle():
    for k in (0.1, 0.43, 0.6, 0.9, 0.99):
        for C in (1.0, 2.0, 3.5):
            oracle = 1
            while k ** oracle >= 1.0 / C:
                oracle += 1
            assert minimal_power(k, C) == oracle
    assert minimal_power(0.6, 2.0) == 2
    assert minimal_power(0.99, 2.0) == 69


@pytest.mark.parametrize("gap, caught", [(5e-16, False), (5e-15, True)])
def test_a_measured_factor_leaves_out_pairs_below_the_floor_of_1e_15(gap, caught):
    # one sampled pair ``gap`` apart, which the map tears apart: a violation
    # when the pair is kept, none when it is left out
    near = 0.5 + gap
    draws = iter([np.array([0.1, 0.5, 0.7]), np.array([0.4, near, 0.2])])
    space = replace(interval_space(), sample=lambda rng, n: next(draws))

    def F(x):
        return 0.9 if x == near else 0.3 * x
    if caught:
        with pytest.raises(ContractionViolation, match="claimed factor 0.5 violated"):
            banach_direct(space, F, 0.2, 0.5)
    else:
        assert banach_direct(space, F, 0.2, 0.5).k_measured == pytest.approx(0.3)


def test_minimal_power_refuses_past_its_cap_of_100000():
    # k^a < 1/2 first at a = 100000, and at 100001 for the second k
    assert minimal_power(0.5 ** (1 / 99999.5), 2.0) == 100000
    with pytest.raises(ValueError, match="no admissible power below cap"):
        minimal_power(0.5 ** (1 / 100000.5), 2.0)


def test_power_run_with_declared_constant_two():
    run = banach_power(interval_space(C=2.0), lambda x: 0.6 * x, 1.0, 0.6)
    assert run.power == 2
    assert run.residual <= 1e-10
    assert abs(run.fixed_point) <= 1e-10
    assert run.tail_bound_ok


def test_power_degenerates_to_direct_for_constant_one():
    run = banach_power(interval_space(C=1.0), lambda x: 0.6 * x, 1.0, 0.6)
    assert run.power == 1
    assert run.residual <= 1e-10


def test_power_with_factor_near_one():
    run = banach_power(interval_space(C=2.0), lambda x: 0.99 * x, 1.0, 0.99,
                       max_steps=400)
    assert run.power == 69
    assert run.residual <= 1e-10
    assert abs(run.fixed_point) <= 1e-9


def test_each_step_maps_once():
    calls = []

    @broadcasting
    def F(x):
        calls.append(x)
        return 0.4 * x

    run = banach_direct(interval_space(C=2.0), F, 1.0, 0.4)
    # two stacked calls measure the factor, then each iterate x_0 ... x_steps
    # is mapped once
    assert run.steps > 10 and len(calls) == 2 + run.steps + 1


def test_solvers_refuse_a_negative_step_count():
    def no_work(x):
        raise AssertionError("work started")

    space = replace(interval_space(C=2.0), psi=lambda x, y, z: 0.0, psi_bound=0.0)
    for solver, k in ((banach_direct, 0.3), (banach_power, 0.6), (banach_multcost, 0.3)):
        with pytest.raises(ValueError, match="step count must be >= 0, got -1"):
            solver(space, no_work, 1.0, k, max_steps=-1)


# ---------------------------------------------------------------------------
# multiplicative cost
# ---------------------------------------------------------------------------

def zero_cost_space():
    return replace(interval_space(), psi=lambda x, y, z: 0.0, psi_bound=0.0)


def test_multcost_requires_cost_data():
    with pytest.raises(ValueError, match="cost"):
        banach_multcost(interval_space(), lambda x: x / 3.0, 1.0, 1.0 / 3.0)


def test_multcost_with_zero_cost_matches_direct_exactly():
    F = lambda x: x / 3.0  # noqa: E731
    direct = banach_direct(interval_space(), F, 1.0, 1.0 / 3.0)
    mult = banach_multcost(zero_cost_space(), F, 1.0, 1.0 / 3.0)
    assert mult.fixed_point == direct.fixed_point
    assert mult.residual == direct.residual
    assert mult.steps == direct.steps
    assert mult.tail_bound_ok


def test_multcost_interval_model_converges():
    # cost 0.1*|z| satisfies the inflated triangle inequality (the factor
    # exp(cost) is at least one) and halves under the map
    space = replace(interval_space(), psi=lambda x, y, z: 0.1 * abs(z),
                    psi_bound=0.1)
    run = banach_multcost(space, lambda x: x / 2.0, 1.0, 0.5)
    assert abs(run.fixed_point) <= 1e-11
    assert run.residual <= 1e-12
    assert run.tail_bound_ok


def test_multcost_tail_bound_matches_series_oracle():
    space = replace(interval_space(), psi=lambda x, y, z: 0.1 * abs(z),
                    psi_bound=0.1)
    k = 0.5
    run = banach_multcost(space, lambda x: x / 2.0, 1.0, k)
    iterates = trajectory(lambda x: x / 2.0, 1.0, run.steps)
    assert iterates[-1] == run.fixed_point
    first = space.phi(iterates[0], iterates[1])
    for n in range(len(iterates)):
        for m in range(n + 1, len(iterates)):
            total = sum(k ** j * math.exp(0.1 * sum(k ** (n + t) for t in range(j + 1)))
                        for j in range(m - n))
            assert space.phi(iterates[n], iterates[m]) <= k ** n * first * total + 1e-12


def test_multcost_rejects_cost_expansion():
    space = replace(interval_space(), psi=lambda x, y, z: 0.1 * (1.0 - abs(z)),
                    psi_bound=0.1)
    with pytest.raises(ContractionViolation, match="cost contraction"):
        banach_multcost(space, lambda x: x / 2.0, 1.0, 0.5)


def test_multcost_rejects_a_nan_cost():
    # NaN is neither above the bound nor above k times the cost, so a NaN
    # cost on a sample, or on the image of one, passed
    nan = float("nan")
    rng = np.random.default_rng(0)
    X, Y, Z = (rng.random(100) for _ in range(3))
    first = int(np.argmax(Z > 0.5))
    space = replace(interval_space(), psi_bound=0.1,
                    psi=lambda x, y, z: np.where(z > 0.5, nan, 0.1 * np.abs(z)))
    with pytest.raises(ContractionViolation, match="cost is NaN") as info:
        banach_multcost(space, lambda x: x / 2.0, 1.0, 0.5)
    assert info.value.witness == (X[first], Y[first], Z[first])
    # finite on the samples, NaN on their images
    space = replace(space, psi=lambda x, y, z: np.where(z > 1.5, nan, 0.1 * np.abs(z)))
    with pytest.raises(ContractionViolation, match="cost is NaN") as info:
        banach_multcost(space, lambda x: x / 2.0 + 2.0, 1.0, 0.5)
    assert info.value.witness == (X[0], Y[0], Z[0])


def test_multcost_rejects_unbounded_cost():
    space = replace(interval_space(), psi=lambda x, y, z: 5.0, psi_bound=0.1)
    with pytest.raises(ContractionViolation, match="declared bound"):
        banach_multcost(space, lambda x: x / 2.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def test_banach_run_json_schema():
    run = banach_direct(interval_space(), lambda x: x / 3.0, 1.0, 1.0 / 3.0)
    payload = run.to_json()
    assert {"fixed_point", "residual", "steps", "k_measured", "C",
            "tail_bound_ok"} <= set(payload)
    assert payload["C"] == 1.0 and payload["tail_bound_ok"] is True


def test_quasi_space_sampling_is_seed_deterministic():
    space = interval_space()
    a = space.sample(np.random.default_rng(9), 5)
    b = space.sample(np.random.default_rng(9), 5)
    assert np.array_equal(a, b)
