"""The artifact encoder ``core._json_text`` against the json module: the same
bytes as ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, or
the same exception type."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from twometric.core import _json_text, _write_json

ODD_FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 5e-324, 1.7976931348623157e308, 1e16,
              123456789.0, -1e-7, math.pi]
NON_FINITE = [math.nan, math.inf, -math.inf]
STRINGS = ["", "x", "witness", "é", "☃ snow", "a\"b\\c", "tab\there", "line\nbreak", "𝔡",
           "\u0000", "null", "NaN"]


def reference(obj):
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except Exception as exc:  # the type is what must agree
        return type(exc)


def encoded(obj):
    try:
        return _json_text(obj)
    except Exception as exc:
        return type(exc)


def number(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(ODD_FLOATS) if rng.random() < 0.3 else rng.uniform(-1e3, 1e3)
    if roll < 0.7:
        return rng.randint(-10 ** 6, 10 ** 6)
    if roll < 0.78:
        return rng.choice([True, False])
    if roll < 0.84:
        return np.float64(rng.uniform(-1, 1))
    if roll < 0.88:
        return np.int64(rng.randint(-9, 9))
    if roll < 0.92:
        return rng.choice(NON_FINITE)
    return rng.choice([None, rng.choice(STRINGS)])


def numbers(rng, n, pure):
    """n floats and ints, or with ``pure`` False any of ``number``'s."""
    if pure:
        return [rng.uniform(-1, 1) if rng.random() < 0.7 else rng.randint(-99, 99)
                for _ in range(n)]
    return [number(rng) for _ in range(n)]


def payload(rng: random.Random, depth: int = 0):
    roll = rng.random() if depth < 4 else 1.0
    if roll < 0.25:
        keys = rng.sample(STRINGS + [f"k{i}" for i in range(8)], rng.randint(0, 6))
        if rng.random() < 0.05:
            keys.append(rng.choice([1, 2.5, None, True]))
        return {k: payload(rng, depth + 1) for k in keys}
    if roll < 0.4:
        items = [payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.3 else items
    if roll < 0.6:
        pure = rng.random() < 0.8
        return numbers(rng, rng.randint(0, 6), pure)
    if roll < 0.8:
        rows, cols = rng.randint(1, 5), rng.randint(0, 4)
        pure = rng.random() < 0.8
        matrix = [numbers(rng, cols + (rng.random() < 0.1), pure) for _ in range(rows)]
        return [tuple(r) for r in matrix] if rng.random() < 0.3 else matrix
    return number(rng)


@pytest.mark.parametrize("seed", range(40))
def test_random_payloads_have_json_bytes_or_its_exception(seed):
    rng = random.Random(seed)
    for _ in range(50):
        obj = payload(rng)
        assert encoded(obj) == reference(obj)
        wrapped = {"config": {"seed": seed}, "payload": obj}
        assert encoded(wrapped) == reference(wrapped)


def ragged(rng: random.Random, depth: int = 0):
    """Rows of ints and floats of different lengths, empty ones among them,
    tuples or lists, now and then with a bool, a NaN or another of
    ``number``'s values in a row, or such rows nested one level deeper."""
    if depth == 0 and rng.random() < 0.2:
        return [ragged(rng, 1) for _ in range(rng.randint(1, 4))]
    pure = rng.random() < 0.7
    rows = [numbers(rng, rng.randint(0, 6), pure) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.3:
        rows = [tuple(r) for r in rows]
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_ragged_rows_have_json_bytes_or_its_exception(seed):
    rng = random.Random(seed)
    for _ in range(50):
        obj = ragged(rng)
        assert encoded(obj) == reference(obj)
        assert encoded({"lines": obj}) == reference({"lines": obj})


CASES = {
    "bools in a number list": [1.0, True, 2, False],
    "bools in a matrix": [[1.0, True], [2.0, 3.0]],
    "bool rows": [[True, False], [False, True]],
    "nan in a list": {"a": [1.0, math.nan]},
    "inf in a matrix": {"a": [[1.0, 2.0], [math.inf, 0.0]]},
    "-inf alone": {"a": -math.inf},
    "nan key order": {"b": math.nan, "a": [1.0]},
    "np.float64 list": [np.float64(0.1), np.float64(2.0)],
    "np.float64 in a matrix": [[np.float64(0.1), 1.0]],
    "np.float64 nan": [np.float64(math.nan)],
    "np.int64": {"n": np.int64(3)},
    "np.int64 in a list": [1, np.int64(3)],
    "tuples": {"t": (1.0, 2.0), "m": ((1.0, 2), (3, 4.5)), "s": ("a", None)},
    "empty": {"d": {}, "l": [], "t": (), "m": [[], []], "s": ""},
    "empty top dict": {},
    "empty top list": [],
    "non-ascii": {"é": "☃", "ключ": ["значение", 1.0], "𝔡": " "},
    "non-str keys": {1: 2.0, 2: [1.0]},
    "mixed keys": {"a": 1, 1: 2},
    "ragged": [[1.0, 2.0], [3.0]],
    "ragged int and float rows": [[0, 1, 2, 3], [0.5, 2.0], [7], [4, 5.5, -6]],
    "ragged with an empty row": [[1, 2], [], [3.0, 4.5, 6]],
    "ragged tuples": ((1.0,), (2, 3)),
    "empty rows": [[], [], []],
    "bool in a ragged row": [[1, 2, 3], [4, True]],
    "nan in a ragged row": [[1.0], [2.0, math.nan, 3.0]],
    "inf in a ragged row": [[1, 2], [-math.inf]],
    "ragged rows nested": [[[0, 1, 2], [3]], [[4.5], [], [6, 7.25]]],
    "one column": [[1.0], [2.0]],
    "deep": {"a": [{"b": [[1.0, 2.0], [3.0, 4.0]], "c": [{"d": [0.5]}]}]},
    "big int": [10 ** 40, -(10 ** 40)],
    "floats that print n-free": [1e300, 1e-300, -0.0],
    "object": {"o": object()},
    "set": [{1, 2}],
}


@pytest.mark.parametrize("name", CASES)
def test_edge_payloads_have_json_bytes_or_its_exception(name):
    obj = CASES[name]
    assert encoded(obj) == reference(obj)
    assert encoded({"x": [obj]}) == reference({"x": [obj]})


def test_write_json_writes_the_text_and_a_newline(tmp_path):
    payload = {"config": {"seed": 1}, "points": [[1.0, 0.5, -0.0]], "tag": "é"}
    _write_json(tmp_path / "a" / "out.json", payload)
    assert (tmp_path / "a" / "out.json").read_bytes() == \
        (reference(payload) + "\n").encode("utf-8")
    with pytest.raises(ValueError):
        _write_json(tmp_path / "bad.json", {"x": [math.nan]})
