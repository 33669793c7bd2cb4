"""The table store, a dense array and a mask: its writes against a dict
oracle, the byte-keyed closure dedupe against the boolean-row form it
replaced, and a golden 12-point table with its audit and lines."""

from __future__ import annotations

import json
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (TABLE12, check_golden, det_reference, random_sphere_points, table_items,
                      table_json)
from twometric import (DDecreasingMap, FiniteTwoMetricSpace, WitnessSet, det_metric,
                       maximal_colinear_sets, orbit)
from twometric.cli import main

NAN = float("nan")
GOLDEN = Path(__file__).parent / "data" / "table12"


# ---------------------------------------------------------------------------
# one entry per triple, whatever the index order of its key
# ---------------------------------------------------------------------------

def test_out_of_order_keys_name_one_entry(tmp_path):
    space = FiniteTwoMetricSpace(4)
    space.table[(2, 1, 0)] = 0.5
    assert space.d(0, 1, 2) == space.dense()[1, 0, 2] == space.as_space().d_batch(0, 1, 2) == 0.5
    assert list(space.table) == [(0, 1, 2)]

    space = FiniteTwoMetricSpace(4)
    space.table[(0, 1, 2)] = 0.25
    space.table[(2, 1, 0)] = 0.75
    assert space.d(0, 1, 2) == space.dense()[2, 0, 1] == 0.75
    space.save(tmp_path / "table.json")
    entries = json.loads((tmp_path / "table.json").read_text(encoding="utf-8"))["entries"]
    assert entries == [{"i": 0, "j": 1, "k": 2, "d": 0.75}]


def test_constructor_keeps_the_last_of_two_keys_for_one_triple():
    space = FiniteTwoMetricSpace(5, {(0, 1, 2): 0.25, (3, 2, 4): 0.5, (2, 0, 1): 0.75})
    assert table_items(space) == [((0, 1, 2), 0.75), ((2, 3, 4), 0.5)]


def test_keys_in_increasing_order_and_a_triple_named_twice_in_a_row():
    # rows in strictly increasing order name each triple once, and skip the
    # dedupe; a triple named twice in a row keeps its later value
    entries = {(0, 1, 2): 0.25, (0, 1, 3): 0.5, (1, 2, 3): 0.125}
    assert table_items(FiniteTwoMetricSpace(4, entries)) == sorted(entries.items())
    space = FiniteTwoMetricSpace(4, {(0, 1, 2): 0.25, (2, 1, 0): 0.75, (1, 2, 3): 0.5})
    assert table_items(space) == [((0, 1, 2), 0.75), ((1, 2, 3), 0.5)]


def test_dense_is_cached_read_only_and_dropped_by_a_write():
    space = FiniteTwoMetricSpace(4, {(0, 1, 2): 0.5})
    T = space.dense()
    assert space.dense() is T and not T.flags.writeable
    view = space.as_space()
    space.table[(1, 2, 3)] = 0.25
    # the old array and the space built on it keep the table as it was
    assert T[1, 2, 3] == view.d_batch(1, 2, 3) == 0.0
    assert space.dense() is not T and space.dense()[3, 2, 1] == 0.25
    assert list(space.table) == [(0, 1, 2), (1, 2, 3)]


def test_iteration_allows_writes_to_the_keys_it_yields():
    space = FiniteTwoMetricSpace(6, {t: 0.5 for t in combinations(range(6), 3)})
    for key in space.table:
        if 5 in key:
            space.table[key] = 1.25
    assert [space.d(*t) for t in combinations(range(6), 3)] == [
        1.25 if 5 in t else 0.5 for t in combinations(range(6), 3)]


def test_table_has_no_setter():
    space = FiniteTwoMetricSpace(4)
    with pytest.raises(AttributeError):
        space.table = {(0, 1, 2): 0.5}


# ---------------------------------------------------------------------------
# differential test: the writes against a dict written out here
# ---------------------------------------------------------------------------

VALUES = (0.0, -0.0, 0.5, 1.25, 1e-300, NAN, float("inf"), float("-inf"), 1)


@st.composite
def write_sequences(draw):
    """n, and a list of ("set", key, value) and ("dense",) steps; keys are
    triples in any index order."""
    n = draw(st.integers(3, 7))
    triple = st.permutations(range(n)).map(lambda p: tuple(p[:3]))
    step = st.one_of(
        st.tuples(st.just("set"), triple, st.sampled_from(VALUES)),
        st.just(("dense",)))
    return n, draw(st.lists(step, max_size=30))


@settings(max_examples=200, deadline=None)
@given(write_sequences())
def test_writes_match_a_dict_oracle(tmp_path_factory, case):
    n, steps = case
    space, oracle = FiniteTwoMetricSpace(n), {}
    for step in steps:
        if step[0] == "set":
            space.table[step[1]] = step[2]
            oracle[tuple(sorted(step[1]))] = float(step[2])
        else:
            space.dense()
    items = sorted(oracle.items())
    assert repr(table_items(space)) == repr(items)

    want = np.zeros((n, n, n))
    for key, value in items:
        for i, j, k in permutations(key):
            want[i, j, k] = value
    I, J, K = np.indices((n, n, n)).reshape(3, -1)
    assert np.array_equal([space.d(i, j, k) for i, j, k in zip(I, J, K)],
                          want[I, J, K], equal_nan=True)
    assert np.array_equal(space.dense(), want, equal_nan=True)
    assert np.array_equal(space.as_space().d_batch(I, J, K), want[I, J, K], equal_nan=True)

    path = tmp_path_factory.mktemp("tables") / "table.json"
    space.save(path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(table_json(space), indent=2) + "\n"
    assert text == json.dumps({"n": n, "entries": [
        {"i": i, "j": j, "k": k, "d": v} for (i, j, k), v in items]}, indent=2) + "\n"
    loaded = FiniteTwoMetricSpace.load(path)
    assert loaded.n == n and repr(table_items(loaded)) == repr(items)


# ---------------------------------------------------------------------------
# closures deduped on packed rows, against np.unique(axis=0) on boolean rows
# ---------------------------------------------------------------------------

def boolean_row_colinear_sets(space, tolerance=1e-12):
    """``maximal_colinear_sets`` with its closures deduped by
    ``np.unique(axis=0)`` over the boolean rows, as before packing."""
    n = space.n
    if n < 3:
        return {frozenset(range(n))}
    C = space.dense() <= tolerance
    I, J = np.triu_indices(n, k=1)
    closures, which = np.unique(C[I, J], axis=0, return_inverse=True)
    members = [np.flatnonzero(row) for row in closures]
    colinear = np.array([len(s) < 4 or C[np.ix_(s, s, s)].all() for s in members])
    lines = {frozenset(s.tolist()) for s, ok in zip(members, colinear) if ok}

    ambiguous = np.zeros((n, n), dtype=bool)
    ambiguous[I, J] = ambiguous[J, I] = ~colinear[which.ravel()]
    found = []

    def fits(current, v, P):
        return P[ambiguous[v, P] & C[current, v][:, P].all(axis=0)]

    def extend(current, cand, excluded):
        if not len(cand) and not len(excluded):
            found.append(frozenset(current))
            return
        for i, v in enumerate(cand.tolist()):
            extend(current + [v], fits(current, v, cand[i + 1:]),
                   fits(current, v, np.concatenate([excluded, cand[:i]])))

    extend([], np.flatnonzero(ambiguous.any(axis=1)), np.array([], dtype=np.intp))
    return lines.union(s for s in found if not any(s <= line for line in lines))


@pytest.mark.parametrize("n", range(9, 21))
def test_packed_closures_match_the_boolean_rows(rng, n):
    # planted lines, zero-distance copies and NaN entries; from n = 9 on a
    # closure row packs into more than one byte
    for trial in range(4):
        pts = random_sphere_points(rng, n - trial, planted_equatorial=int(rng.integers(3, 7)))
        pts += [-pts[int(rng.integers(len(pts)))] for _ in range(trial)]
        space = FiniteTwoMetricSpace.from_points(pts, det_metric)
        for _ in range(trial % 3):
            space.table[tuple(rng.choice(n, 3, replace=False).tolist())] = NAN
        C = space.dense() <= 1e-12
        rows = C[np.triu_indices(n, k=1)]
        packed = np.packbits(rows, axis=1)
        want, want_which = np.unique(rows, axis=0, return_inverse=True)
        _, first, which = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                    return_index=True, return_inverse=True)
        assert np.array_equal(rows[first], want)
        assert np.array_equal(which.ravel(), want_which.ravel())
        assert maximal_colinear_sets(space) == boolean_row_colinear_sets(space)


# ---------------------------------------------------------------------------
# a golden table: the bytes written before the packed store
# ---------------------------------------------------------------------------

def test_golden_table_bytes(tmp_path):
    want = (GOLDEN / "table.json").read_bytes()
    points = json.loads((GOLDEN / "points.json").read_text(encoding="utf-8"))
    FiniteTwoMetricSpace.from_points(points, det_metric).save(tmp_path / "tabulated.json")
    # one pure-Python call per triple, in the kernel's order
    FiniteTwoMetricSpace.from_points(points, det_reference).save(tmp_path / "reference.json")
    FiniteTwoMetricSpace.load(GOLDEN / "table.json").save(tmp_path / "reloaded.json")
    for name in ("tabulated.json", "reference.json", "reloaded.json"):
        assert (tmp_path / name).read_bytes() == want, name


def test_golden_table_audit_and_lines(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_golden(tmp_path, "table12", *TABLE12["audit-and-lines"])


def test_golden_index_trace_classification(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_golden(tmp_path, "table12", *TABLE12["index-trace"])
    verdict = json.loads((tmp_path / "classification.json").read_text(
        encoding="utf-8"))["classification"]
    assert verdict["tag"] == "LineCase" and verdict["notes"] == []
    assert verdict["line"]["members"] == [0, 1, 2, 3]


def test_index_orbit_written_by_to_csv_classifies_as_the_golden(tmp_path, monkeypatch):
    # the orbit of i -> i + 1 mod 4 on the 12-point table, written by the
    # library, is the golden index trace with a phi_step column
    finite = FiniteTwoMetricSpace.load(GOLDEN / "table.json")
    cycle = DDecreasingMap(
        f=lambda i: (int(i) + 1) % 4, space=finite.as_space(),
        claimed_factor=0.5, certified=False, domain_contains=lambda i: True,
        domain_sample=lambda r, n: r.integers(0, 4, size=n))
    trace = orbit(cycle, 0, 59, WitnessSet.all_of(finite))
    (tmp_path / "table.json").write_bytes((GOLDEN / "table.json").read_bytes())
    trace.to_csv(tmp_path / "index_trace.csv")
    rows = (tmp_path / "index_trace.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "step,index,phi_step" and rows[6].split(",")[:2] == ["5", "1"]
    monkeypatch.chdir(tmp_path)
    assert main(["classify", "--space=finite", "--table=table.json",
                 "--input=index_trace.csv", "--out=."]) == 0
    got = json.loads((tmp_path / "classification.json").read_text(encoding="utf-8"))
    golden = json.loads((GOLDEN / "classification.json").read_text(encoding="utf-8"))
    assert got["classification"] == golden["classification"]
