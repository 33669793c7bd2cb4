"""Property tests: the dense-table paths against scalar and brute-force
oracles on generated tables and point sets."""

from __future__ import annotations

import json
from dataclasses import replace
from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import oracle_maximal_colinear
from twometric import (FiniteTwoMetricSpace, WitnessSet, audit, det_metric,
                       maximal_colinear_sets)

NAN = float("nan")


@st.composite
def tables(draw, max_n=7, values=(0.0, 5e-13, 1.0, NAN)):
    """A table on at most ``max_n`` points, each entry drawn from
    ``values``: colinear, colinear within the tolerance, not, and NaN."""
    n = draw(st.integers(1, max_n))
    entries = draw(st.lists(st.sampled_from(values), min_size=comb(n, 3),
                            max_size=comb(n, 3)))
    space = FiniteTwoMetricSpace(n)
    space.table = dict(zip(space.distinct_triples(), entries))
    return space


@settings(max_examples=300, deadline=None)
@given(tables())
def test_maximal_colinear_sets_match_oracle(space):
    assert maximal_colinear_sets(space) == oracle_maximal_colinear(space)


@settings(deadline=None)
@given(tables(max_n=8, values=(0.0, 0.25, 1.0, 1.25, -0.5, NAN)))
def test_table_kernel_matches_lookups_on_every_triple(space):
    n = space.n
    I, J, K = np.indices((n, n, n)).reshape(3, -1)
    want = np.array([space.d(i, j, k) for i, j, k in zip(I, J, K)])
    view = space.as_space()
    assert np.array_equal(view.d_batch(I, J, K), want, equal_nan=True)
    assert np.array_equal([view.d(i, j, k) for i, j, k in zip(I, J, K)], want,
                          equal_nan=True)


@settings(deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(3)),
                  elements=st.floats(-1.0, 1.0)))
def test_tabulation_in_one_call_matches_the_scalar_loop(tmp_path_factory, points):
    # the parent form of det_metric, one np.dot per triple, is the oracle
    fast = FiniteTwoMetricSpace.from_points(points, det_metric)
    slow = FiniteTwoMetricSpace.from_points(points, lambda x, y, z: det_metric(x, y, z))
    want = {t: float(abs(np.dot(points[t[0]], np.cross(points[t[1]], points[t[2]]))))
            for t in slow.distinct_triples()}
    assert list(fast.table.items()) == list(slow.table.items()) == list(want.items())
    path = tmp_path_factory.mktemp("tables")
    fast.save(path / "fast.json")
    slow.save(path / "slow.json")
    assert (path / "fast.json").read_bytes() == (path / "slow.json").read_bytes()


@settings(max_examples=40, deadline=None)
@given(tables(max_n=9, values=(0.0, 5e-13, 0.3, 1.0, 1.25, NAN)), st.integers(0, 99))
def test_audit_on_the_dense_table_matches_scalar_lookups(space, seed):
    view = space.as_space()
    W = WitnessSet.all_of(space)
    fast = audit(view, witnesses=W, triples=200, seed=seed).to_json()
    slow = audit(replace(view, d=space.d, d_batch=None), witnesses=W, triples=200,
                 seed=seed).to_json()
    assert json.dumps(fast) == json.dumps(slow)
