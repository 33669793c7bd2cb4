"""No verdict passes on NaN: one NaN planted in a finite table, and each
verdict on that table must fail, report NaN, or keep the NaN out."""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sphere_points
from twometric import (FiniteTwoMetricSpace, WitnessSet, audit, det_metric,
                       enumerate_lines, quotient_by_zero_phi,
                       surjective_contraction_check)


@st.composite
def nan_tables(draw):
    """A sphere table on n points, the last a copy of point 0 (pair
    distance 0) and at least one off the planted equatorial line, with NaN
    at one triple, whose key comes in any order, and a self-map of the
    indices."""
    n = draw(st.integers(4, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = random_sphere_points(rng, n - 1, planted_equatorial=draw(st.integers(0, n - 2)))
    space = FiniteTwoMetricSpace.from_points(pts + [pts[0]], det_metric)
    key = tuple(draw(st.permutations(range(n)))[:3])
    if draw(st.booleans()):              # through the zero-distance pair
        key = (0, n - 1, draw(st.integers(1, n - 2)))
    space.table[key] = float("nan")
    mapping = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return space, tuple(sorted(key)), mapping, draw(st.integers(0, 99))


def nan_free_classes(space, tol=1e-12):
    """The number of classes when every pair whose phi, from scalar
    lookups, is <= tol is merged; a NaN phi is not."""
    n = space.n
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(n), 2):
        if np.max([space.d(i, j, k) for k in range(n)]) <= tol:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


@settings(max_examples=60, deadline=None)
@given(nan_tables())
def test_a_planted_nan_reaches_every_finite_table_verdict(case):
    space, nan_triple, mapping, seed = case

    report = audit(space.as_space(), witnesses=WitnessSet.all_of(space),
                   triples=500, seed=seed)
    non_finite = [r.axiom for r in report.records if not np.isfinite(r.max_violation)]
    assert non_finite and set(non_finite) <= set(report.failing())
    assert any(rec.get("non_finite") for rec in report.to_json()["axioms"])

    for line in enumerate_lines(space):
        assert not set(nan_triple) <= set(line.members)

    quotient = quotient_by_zero_phi(space)
    assert quotient.n == nan_free_classes(space)
    if {0, space.n - 1} <= set(nan_triple):     # the one zero pair has phi NaN
        assert quotient is space

    check = surjective_contraction_check(space, mapping)
    first = next(t for t in combinations(range(space.n), 3)
                 if np.isnan(space.d(*t)) or np.isnan(space.d(*(mapping[i] for i in t))))
    assert np.isnan(check.measured_k) and check.witness == first
