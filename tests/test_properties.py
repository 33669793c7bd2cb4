"""Property tests: the dense-table paths against scalar and brute-force
oracles on generated tables and point sets, and the JSON round-trip of
every artifact."""

from __future__ import annotations

import json
import operator
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import det_reference, oracle_maximal_colinear, table_items, table_json, table_phi
from twometric import (AxiomReport, BanachRun, CertResult, Classification,
                       FiniteTwoMetricSpace, Line, Outcome, Thresholds, WitnessSet, audit,
                       det_metric, det_sphere_space, eval_phi, maximal_colinear_sets,
                       sphere_witnesses)
from twometric.core import _SAVE_BLOCK, AxiomRecord

NAN = float("nan")


@st.composite
def tables(draw, max_n=7, values=(0.0, 5e-13, 1.0, NAN)):
    """A table on at most ``max_n`` points, each entry drawn from
    ``values``: colinear, colinear within the tolerance, not, and NaN."""
    n = draw(st.integers(1, max_n))
    entries = draw(st.lists(st.sampled_from(values), min_size=comb(n, 3),
                            max_size=comb(n, 3)))
    return FiniteTwoMetricSpace(n, dict(zip(combinations(range(n), 3), entries)))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_maximal_colinear_sets_match_oracle(space):
    assert maximal_colinear_sets(space) == oracle_maximal_colinear(space)


SPHERE = det_sphere_space()
SPHERE_WITNESSES = sphere_witnesses(8, seed=0)
# coordinates with many ties, so pairs are often ordered by a later one
COORDS = st.one_of(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))


def sphere_phi(x, y):
    """phi of one coordinate pair by a loop: the pair in the order Python
    gives tuples of its coordinates, then the kernel on one witness row at a
    time, whose bits the broadcast call must give."""
    if tuple(y.tolist()) < tuple(x.tolist()):
        x, y = y, x
    return max(float(SPHERE.d_batch(x[None], y[None], w[None])[0])
               for w in np.asarray(SPHERE_WITNESSES.points))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eval_phi_broadcasts_like_the_scalar_loop(data):
    a, b = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    if data.draw(st.booleans(), label="index points"):
        table = data.draw(tables(max_n=6, values=(0.0, 0.25, 1.0, NAN)))
        space, W = table.as_space(), WitnessSet.all_of(table)
        X, Y = (data.draw(hnp.arrays(np.intp, m, elements=st.integers(0, table.n - 1)))
                for m in (a, b))

        def oracle(x, y):
            return table_phi(table, x, y)
    else:
        space, W = SPHERE, SPHERE_WITNESSES
        X, Y = (data.draw(hnp.arrays(float, (m, 3), elements=COORDS)) for m in (a, b))
        oracle = sphere_phi

    one = eval_phi(space, X[0], Y[0], W)
    assert isinstance(one, float)
    assert np.array_equal(one, oracle(X[0], Y[0]), equal_nan=True)
    m = min(a, b)
    cases = [(X[:m], Y[:m], [oracle(x, y) for x, y in zip(X[:m], Y[:m])]),
             (X[0], Y, [oracle(X[0], y) for y in Y]),
             (X[:, None], Y[None], [[oracle(x, y) for y in Y] for x in X])]
    for x, y, want in cases:
        got = eval_phi(space, x, y, W)
        assert got.shape == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(eval_phi(space, y, x, W), got, equal_nan=True)


@settings(deadline=None)
@given(tables(max_n=8, values=(0.0, 0.25, 1.0, 1.25, -0.5, NAN)))
def test_table_kernel_matches_lookups_on_every_triple(space):
    n = space.n
    I, J, K = np.indices((n, n, n)).reshape(3, -1)
    want = np.array([space.d(i, j, k) for i, j, k in zip(I, J, K)])
    assert np.array_equal(space.as_space().d_batch(I, J, K), want, equal_nan=True)


@settings(deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(3)),
                  elements=st.floats(-1.0, 1.0)))
def test_tabulation_in_one_call_matches_the_scalar_loop(tmp_path_factory, points):
    # the pure-Python reference, one call per triple, is the oracle
    fast = FiniteTwoMetricSpace.from_points(points, det_metric)
    slow = FiniteTwoMetricSpace.from_points(points, det_reference)
    want = {t: det_reference(*points[list(t)]) for t in combinations(range(len(points)), 3)}
    assert table_items(fast) == table_items(slow) == list(want.items())
    path = tmp_path_factory.mktemp("tables")
    fast.save(path / "fast.json")
    slow.save(path / "slow.json")
    assert (path / "fast.json").read_bytes() == (path / "slow.json").read_bytes()


@settings(max_examples=40, deadline=None)
@given(tables(max_n=9, values=(0.0, 5e-13, 0.3, 1.0, 1.25, NAN)), st.integers(0, 99))
def test_audit_on_the_dense_table_matches_scalar_lookups(space, seed):
    # the slow kernel is unmarked, so it gets materialised rows, and looks
    # each one up in the table
    view = space.as_space()
    W = WitnessSet.all_of(space)
    fast = audit(view, witnesses=W, triples=200, seed=seed).to_json()
    lookups = lambda X, Y, Z: np.array([space.d(*t) for t in zip(X, Y, Z)])  # noqa: E731
    slow = audit(replace(view, d_batch=lookups), witnesses=W, triples=200,
                 seed=seed).to_json()
    assert json.dumps(fast) == json.dumps(slow)


# ---------------------------------------------------------------------------
# table files
# ---------------------------------------------------------------------------

FILE_VALUES = (0.0, 0.5, 1.25, 1e-300, NAN, float("inf"), float("-inf"), 0, 1)


@settings(deadline=None)
@given(tables(max_n=8, values=FILE_VALUES))
def test_save_writes_the_indenting_encoders_bytes(tmp_path_factory, space):
    path = tmp_path_factory.mktemp("tables") / "table.json"
    space.save(path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(table_json(space), indent=2) + "\n"
    loaded = FiniteTwoMetricSpace.load(path)
    assert loaded.n == space.n
    # reprs compare NaN equal to NaN
    assert repr(table_items(loaded)) == repr(table_items(space))


def test_save_streams_tables_of_several_blocks(tmp_path, rng):
    space = FiniteTwoMetricSpace.from_points(rng.normal(size=(22, 3)), det_metric)
    assert len(list(space.table)) > _SAVE_BLOCK
    space.table[(0, 1, 2)], space.table[(3, 4, 5)] = NAN, float("inf")
    space.table[(19, 20, 21)] = 1
    space.save(tmp_path / "table.json")
    assert (tmp_path / "table.json").read_text(encoding="utf-8") == (
        json.dumps(table_json(space), indent=2) + "\n")


def test_writes_refuse_what_float_refuses():
    # the table holds floats only: a value float() refuses raises at the
    # write and leaves the table as it was; one it takes is stored as float
    space = FiniteTwoMetricSpace(5)
    for odd in ("a, b", [1, 2], None, {}):
        with pytest.raises((TypeError, ValueError)):
            space.table[(0, 1, 2)] = odd
    assert list(space.table) == []
    for value, stored in ((np.float64(0.25), 0.25), (True, 1.0), (3, 3.0), ("0.5", 0.5)):
        space.table[(0, 1, 2)] = value
        assert table_items(space) == [((0, 1, 2), stored)]


def test_writes_refuse_keys_that_name_no_triple(tmp_path):
    # a key is read with operator.index: an np.int64 index is its int, a
    # float or string index raises, and so does a key of another length
    space = FiniteTwoMetricSpace(4)
    space.table[(np.int64(0), 1, 2)] = 0.5
    assert list(space.table) == [(0, 1, 2)] and type(next(iter(space.table))[0]) is int
    space.save(tmp_path / "table.json")
    assert (tmp_path / "table.json").read_text(encoding="utf-8") == (
        json.dumps(table_json(space), indent=2) + "\n")
    for key in ((0, 1.0, 2), (0, "1", 2), 5, "012"):
        with pytest.raises(TypeError):
            space.table[key] = 0.5
    for key, message in (((0, 1), "table keys must be index triples"),
                         ((0, 1, 2, 3), "table keys must be index triples"),
                         ((0, 1, 4), "out of range for n=4"),
                         ((-1, 1, 2), "out of range for n=4"),
                         ((1, 1, 2), "table stores distinct triples only")):
        with pytest.raises(ValueError, match=message):
            space.table[key] = 0.5
    assert table_items(space) == [((0, 1, 2), 0.5)]


@pytest.mark.parametrize("n, entries, error", [
    (4.5, None, ValueError), (True, None, ValueError), (np.float64(4), None, ValueError),
    (4, {(0.5, 1.9, 2): 0.3}, TypeError),
    (4, {(0, 1, 2): 0.5, (1, np.float64(2), 3): 0.25}, TypeError),
])
def test_point_counts_and_key_indices_are_ints(n, entries, error):
    # refused, not truncated, as the table file reader refuses a fractional
    # or bool count and a table write refuses a float index
    with pytest.raises(error):
        FiniteTwoMetricSpace(n, entries)
    assert FiniteTwoMetricSpace(np.int64(4), {(np.int64(0), 1, 2): 0.5}).n == 4


def per_key_table(n, entries):
    """The constructor as one key at a time: the oracle of its one pass."""
    table = {}
    for key, value in entries.items():
        i, j, k = sorted(map(operator.index, key))
        if not (0 <= i < n and k < n):
            raise ValueError(f"triple {key} out of range for n={n}")
        if len({i, j, k}) < 3:
            raise ValueError(f"table stores distinct triples only, got {key}")
        table[(i, j, k)] = float(value)
    return table


def outcome(build, n, entries):
    """The table's items, or the exception type and, for the constructor's
    own checks, its message."""
    try:
        return repr(sorted(build(n, entries).items()))
    except (TypeError, ValueError, OverflowError) as exc:
        own = str(exc).startswith(("triple ", "table stores"))
        return type(exc), str(exc) if own else None


def construct(n, entries):
    return dict(table_items(FiniteTwoMetricSpace(n, entries)))


@st.composite
def table_entries(draw, bad_keys=None, most=1):
    """Keys in any index order (so two keys may name one triple), values
    from ``FILE_VALUES``, and up to ``most`` keys from ``bad_keys`` when
    given."""
    n = draw(st.integers(1, 7))
    index = st.integers(0, n - 1)
    keys = draw(st.lists(st.tuples(index, index, index).filter(lambda t: len(set(t)) == 3),
                         max_size=12))
    if bad_keys is not None:
        for key in draw(st.lists(bad_keys, min_size=1, max_size=most)):
            keys.insert(draw(st.integers(0, len(keys))), key)
    values = draw(st.lists(st.sampled_from(FILE_VALUES), min_size=len(keys),
                           max_size=len(keys)))
    return n, dict(zip(keys, values))


# keys the range and repeated-index checks refuse, which name the first
OUT_OF_RANGE_OR_REPEATED = st.one_of(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(7, 12)),
    st.tuples(st.integers(-3, -1), st.integers(0, 6), st.integers(0, 6)),
    st.integers(0, 6).map(lambda i: (i, i, (i + 1) % 7)),
    st.sampled_from([(0, 2 ** 70, 1), (-2 ** 70, 1, 2), (2 ** 64, 2 ** 65, 0)]),
)
NOT_TRIPLES = st.sampled_from([(0, 1), (0, 1, 2, 3), (1, 2), (0, 1, 2, 3, 4)])
MALFORMED = st.one_of(
    OUT_OF_RANGE_OR_REPEATED, NOT_TRIPLES,
    st.sampled_from([(0, 1.5, 2), (0, NAN, 2), (0, float("inf"), 2)]),     # float index
    st.sampled_from([(0, "1", 2), (0, "a", 2), (0, "1.5", 2), (0, None, 2)]),
    st.sampled_from([(0, (1,), 2), 5, "012"]),                             # odd keys
)


# One malformed key of any kind; several keys only of one kind, since the
# checks run kind by kind over all keys rather than key by key.
@settings(max_examples=500, deadline=None)
@given(st.one_of(table_entries(), table_entries(MALFORMED),
                 table_entries(OUT_OF_RANGE_OR_REPEATED, most=3),
                 table_entries(NOT_TRIPLES, most=3)))
def test_constructor_matches_the_per_key_loop(case):
    n, entries = case
    assert outcome(construct, n, entries) == outcome(per_key_table, n, entries)


# ---------------------------------------------------------------------------
# artifact JSON round-trips
# ---------------------------------------------------------------------------

FLOATS = st.floats()                    # NaN and the infinities included
POINTS = st.one_of(st.integers(0, 99), FLOATS,
                   st.lists(FLOATS, min_size=3, max_size=3).map(np.array))
TEXT = st.text(max_size=12)
THRESHOLDS = st.builds(Thresholds, **dict.fromkeys(
    ("lim", "cauchy", "tri_cauchy", "min_phi", "colinear", "fixed_point", "tail_fraction"),
    FLOATS), min_length=st.integers(0, 500))
LINES = st.builds(Line, POINTS, POINTS, FLOATS,
                  st.none() | st.lists(st.integers(0, 99), max_size=5).map(tuple))
CLASSIFICATIONS = st.builds(
    Classification, st.sampled_from(["NoPoint", "UniquePoint", "CauchySequence", "LineCase"]),
    FLOATS, FLOATS, THRESHOLDS, limit=st.none() | POINTS, point=st.none() | POINTS,
    line=st.none() | LINES, passers=st.lists(POINTS, max_size=4),
    low_confidence=st.booleans(), notes=st.lists(TEXT, max_size=3))
OPTIONAL_FLOATS = st.none() | FLOATS
ARTIFACTS = {
    "AxiomReport": st.builds(
        AxiomReport, st.integers(0, 2 ** 32), FLOATS, st.lists(st.builds(
            AxiomRecord, TEXT, FLOATS, st.none() | st.tuples(POINTS, POINTS, POINTS),
            st.integers(0, 10 ** 6)), max_size=4)),
    "Classification": CLASSIFICATIONS,
    "Outcome": st.builds(
        Outcome, st.sampled_from(["FixedPoint", "FixedLine", "Indeterminate"]),
        OPTIONAL_FLOATS, st.none() | CLASSIFICATIONS, point=st.none() | POINTS,
        residual=OPTIONAL_FLOATS, line=st.none() | LINES, invariance_defect=OPTIONAL_FLOATS,
        uniqueness_ok=st.none() | st.booleans(), min_point_residual=OPTIONAL_FLOATS,
        diagnostic=st.none() | TEXT),
    "CertResult": st.builds(
        CertResult, st.booleans(), FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, OPTIONAL_FLOATS,
        FLOATS, st.none() | st.booleans(),
        st.lists(st.dictionaries(TEXT, FLOATS, max_size=3), max_size=3),
        st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    "BanachRun": st.builds(
        BanachRun, POINTS, FLOATS, st.integers(0, 10 ** 6), FLOATS,
        FLOATS, FLOATS, st.booleans(), FLOATS, st.integers(1, 50), TEXT,
        st.lists(TEXT, max_size=3)),
}
NAN_CLASSIFICATION = Classification("NoPoint", NAN, NAN, Thresholds(), low_confidence=True,
                                    notes=["cauchy modulus is NaN", "tri-cauchy modulus is NaN"])
NAN_ARTIFACTS = {
    "AxiomReport": AxiomReport(0, 1e-9, [AxiomRecord("B", NAN, (0, 1, 2), 10)]),
    "Classification": NAN_CLASSIFICATION,
    "Outcome": Outcome("Indeterminate", NAN, NAN_CLASSIFICATION, residual=NAN,
                       invariance_defect=NAN, min_point_residual=NAN, diagnostic="NaN factor"),
    "CertResult": CertResult(False, NAN, 1.0, 0.5, 2.0, 0.25, NAN, 1.0, None,
                             [{"kind": "ratio", "value": NAN}], 400, 2000),
    "BanachRun": BanachRun(NAN, NAN, 3, 0.4, NAN, 2.0, False, NAN),
}


def dumps(payload) -> str:
    """The CLI's encoding, with NaN written as the Python encoder's NaN."""
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_artifact_json_round_trips(name, data):
    text = dumps(data.draw(ARTIFACTS[name]).to_json())
    assert dumps(json.loads(text)) == text


@pytest.mark.parametrize("name", sorted(NAN_ARTIFACTS))
def test_an_artifact_holding_nan_round_trips(name):
    # strict JSON, as the CLI writes it: each NaN is a null, flagged
    text = json.dumps(NAN_ARTIFACTS[name].to_json(), indent=2, sort_keys=True, allow_nan=False)
    assert '"non_finite": true' in text
    assert dumps(json.loads(text)) == text


# ---------------------------------------------------------------------------
# the suite's own settings
# ---------------------------------------------------------------------------

FORCED_FAILURE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
"""


def test_a_failing_given_test_fails_and_the_session_goes_on(tmp_path):
    # under the repo's warning filters, reporting a failing @given test must
    # raise no warning: one would end the session with an internal error
    (tmp_path / "test_forced.py").write_text(FORCED_FAILURE, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(config), "--rootdir", str(tmp_path), "test_forced.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
