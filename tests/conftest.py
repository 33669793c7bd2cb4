"""Shared fixtures: seeded point clouds and brute-force oracles."""

from __future__ import annotations

import math
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from twometric import FiniteTwoMetricSpace, SpherePatch, TwoMetricSpace, det_metric
from twometric import cli
from twometric.lines import _pair_arrays

DATA = Path(__file__).parent / "data"


def random_sphere_points(rng: np.random.Generator, n: int,
                         planted_equatorial: int = 0) -> list[np.ndarray]:
    """Generic unit vectors, optionally with some exactly equatorial points
    (their determinant triples vanish exactly, planting a line)."""
    pts = []
    for _ in range(planted_equatorial):
        t = rng.random() * 2.0 * np.pi
        pts.append(np.array([np.cos(t), np.sin(t), 0.0]))
    v = rng.normal(size=(n - planted_equatorial, 3))
    pts.extend(v / np.linalg.norm(v, axis=1, keepdims=True))
    return pts


def random_sphere_table(rng: np.random.Generator, n: int,
                        planted_equatorial: int = 0) -> FiniteTwoMetricSpace:
    """A valid finite space: the determinant metric tabulated on sampled
    unit vectors (subsets of the sphere keep every axiom)."""
    pts = random_sphere_points(rng, n, planted_equatorial)
    return FiniteTwoMetricSpace.from_points(pts, det_metric)


def arc_ladder_space() -> tuple[FiniteTwoMetricSpace, list[int]]:
    """A finite space whose ternary value is the smallest pairwise circle-arc
    distance: a geometric angle ladder with ratio 2/7 descending to a fixed
    target, plus two far guard points.  The shift-toward-target map contracts
    the derived pair distance by exactly 0.4."""
    q = 2.0 / 7.0
    angles = [0.2 * q ** i for i in range(5)] + [0.0, np.pi, -np.pi / 2.0]

    def arc(a: float, b: float) -> float:
        d = abs(a - b) % (2.0 * np.pi)
        return min(d, 2.0 * np.pi - d) / np.pi

    space = FiniteTwoMetricSpace(len(angles))
    for i, j, k in combinations(range(space.n), 3):
        space.table[(i, j, k)] = min(arc(angles[i], angles[j]),
                                     arc(angles[i], angles[k]),
                                     arc(angles[j], angles[k]))
    mapping = [1, 2, 3, 4, 5, 5, 0, 0]
    return space, mapping


def trajectory(F, x0, steps: int) -> list:
    """x0 and its first ``steps`` images under F: the iterates behind a
    solver run of ``steps`` steps from x0, whose last one is the run's
    fixed point."""
    points = [x0]
    for _ in range(steps):
        points.append(F(points[-1]))
    return points


# ---------------------------------------------------------------------------
# pure-Python references of the metric kernels, in the kernels' order
# ---------------------------------------------------------------------------

def _dot_reference(a, b) -> float:
    """The dot product of two coordinate lists as the kernels sum it: the
    even terms in one running sum, the odd terms in another, then the two
    sums."""
    sums = [p * q for p, q in zip(a[:2], b[:2])]
    for j in range(2, len(a)):
        sums[j % 2] = sums[j % 2] + a[j] * b[j]
    return sums[0] if len(sums) == 1 else sums[0] + sums[1]


def det_reference(x, y, z) -> float:
    """|x . (y x z)| of one triple by a loop over Python floats: the cross
    product as ``np.cross`` writes it, the dot product in the kernels'
    order.  CPython rounds every product and sum on its own and never
    fuses them, so this shares neither code nor a BLAS with the kernel."""
    x, y, z = ([float(c) for c in p] for p in (x, y, z))
    c = [y[(i + 1) % 3] * z[(i + 2) % 3] - y[(i + 2) % 3] * z[(i + 1) % 3] for i in range(3)]
    return abs(_dot_reference(x, c))


def area_reference(x, y, z) -> float:
    """The area of one triangle by a loop over Python floats: the edges
    u = y - x and v = z - x, their dot products in the kernels' order, and
    ``0.5 * sqrt(max(uu * vv - uv * uv, 0))`` with a NaN kept."""
    x, y, z = ([float(c) for c in p] for p in (x, y, z))
    u = [q - p for p, q in zip(x, y)]
    v = [q - p for p, q in zip(x, z)]
    uv = _dot_reference(u, v)
    g = _dot_reference(u, u) * _dot_reference(v, v) - uv * uv
    return 0.5 * math.sqrt(0.0 if g <= 0.0 else g)


def reference_rows(metric, X, Y, Z) -> np.ndarray:
    """A scalar reference called once per row of X, Y and Z broadcast
    against each other: the values a kernel gives that stack."""
    X, Y, Z = np.broadcast_arrays(*(np.asarray(P, dtype=float) for P in (X, Y, Z)))
    rows = zip(*(P.reshape(-1, P.shape[-1]).tolist() for P in (X, Y, Z)))
    return np.array([metric(*t) for t in rows]).reshape(X.shape[:-1])


def patch_lift(p) -> np.ndarray:
    """Scalar oracle of ``SpherePatch.lift_batch``: one planar point lifted
    to the lower hemisphere."""
    p = np.asarray(p, dtype=float)
    return np.array([p[0], p[1], -np.sqrt(1.0 - p[0] ** 2 - p[1] ** 2)])


def patch_metric(x, y, z) -> float:
    """Scalar oracle of ``SpherePatch.metric_batch``: the area of one
    lifted triangle, by ``area_reference``."""
    return area_reference(patch_lift(x), patch_lift(y), patch_lift(z))


def patch_space(patch: SpherePatch) -> TwoMetricSpace:
    """A patch as a space with the kernel ``metric_batch``; ``patch_metric``
    is its scalar oracle."""
    return TwoMetricSpace(name=f"sphere-patch-r{patch.radius}",
                          d_batch=patch.metric_batch, sample=patch.sample)


def table_items(space: FiniteTwoMetricSpace) -> list:
    """The stored triples of a table, in lexicographic order, each with its
    value read through ``dense()``."""
    T = space.dense()
    return [(t, float(T[t])) for t in space.table]


def table_json(space: FiniteTwoMetricSpace) -> dict:
    """The table file as a dict, whose ``json.dumps(..., indent=2)`` plus a
    newline ``save`` must write byte for byte."""
    return {"n": space.n, "entries": [{"i": i, "j": j, "k": k, "d": d}
                                      for (i, j, k), d in table_items(space)]}


def table_phi(space: FiniteTwoMetricSpace, i: int, j: int) -> float:
    """Exact pair distance of a table by a scalar loop over all points; NaN
    if any d(i, j, k) is NaN, as ``eval_phi`` on the table's space gives it."""
    return float(np.max([space.d(i, j, k) for k in range(space.n)]))


def hexes(values) -> list[str]:
    """Each value as ``float.hex`` gives it: a comparison of these lists is
    a comparison of bits, NaN included."""
    return [float.hex(float(v)) for v in np.ravel(values)]


def lex_order(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Each pair of points of the stacks X and Y (coordinate rows, or index
    points) in lexicographic order, by Python's list comparison: the oracle
    for the swap that ``eval_phi`` makes before it scans a pair."""
    X, Y = np.asarray(X), np.asarray(Y)
    rows = zip(X.reshape(len(X), -1).tolist(), Y.reshape(len(Y), -1).tolist())
    swap = np.array([y < x for x, y in rows], dtype=bool).reshape((-1,) + (1,) * (X.ndim - 1))
    return np.where(swap, Y, X), np.where(swap, X, Y)


def gathered_max(kernel, points, X, Y, Z) -> np.ndarray:
    """The max over the last axis of ``kernel`` called once on the
    gathered rows ``points[X]``, ``points[Y]`` and ``points[Z]``: the
    plain-kernel oracle of an index scan."""
    P = np.asarray(points)
    return np.asarray(kernel(P[X], P[Y], P[Z])).max(axis=-1)


def tail_residual(metric, y, sequence, start: int) -> float:
    """Worst d(y, x_i, x_j) over the tail pairs that ``classify`` scans
    from ``start``, by a loop over a scalar metric."""
    seq = np.asarray(sequence)
    idx_i, idx_j = _pair_arrays(len(seq), start)
    return max(float(metric(y, seq[i], seq[j])) for i, j in zip(idx_i, idx_j))


def oracle_maximal_colinear(space: FiniteTwoMetricSpace,
                            tol: float = 1e-12) -> set[frozenset]:
    """Exhaustive subset enumeration; exact for small n."""
    points = range(space.n)
    colinear_sets = []
    for size in range(1, space.n + 1):
        for subset in combinations(points, size):
            if all(space.d(a, b, c) <= tol
                   for a, b, c in combinations(subset, 3)):
                colinear_sets.append(frozenset(subset))
    maximal = set()
    for s in colinear_sets:
        if not any(s < other for other in colinear_sets):
            maximal.add(s)
    return maximal


def check_golden(tmp_path: Path, golden: str, inputs, commands, compared) -> None:
    """Copy ``inputs`` from ``tests/data/<golden>`` into ``tmp_path``, run
    each CLI command there with ``--out=.`` and assert its exit code, then
    compare each of ``compared`` byte for byte with the golden, JSON with
    the timestamp blanked.  The caller has chdir'd into ``tmp_path``, so
    relative paths give the echoed config of the committed files."""
    for name in inputs:
        (tmp_path / name).write_bytes((DATA / golden / name).read_bytes())
    for argv, code in commands:
        assert cli.main(argv + ["--out=."]) == code, argv
    for name in compared:
        got = (tmp_path / name).read_bytes()
        if name.endswith(".json"):
            got = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', got)
        assert got == (DATA / golden / name).read_bytes(), name


# the 12-point table's golden runs, in ``check_golden``'s form: checked in
# ``test_table_store.py`` and at other row budgets in ``test_goldens.py``
TABLE12 = {
    "audit-and-lines": (("table.json",), [
        (["audit", "--space=finite", "--table=table.json"], 0),
        (["enumerate-lines", "--table=table.json"], 0),
    ], ("audit.json", "lines.json")),
    # the index column of a trace on the 12-point table: 0, 1, 2, 3
    # repeated, which runs along the planted line {0, 1, 2, 3}
    "index-trace": (("table.json", "index_trace.csv"), [
        (["classify", "--space=finite", "--table=table.json", "--input=index_trace.csv"], 0),
    ], ("classification.json",)),
}


@pytest.fixture
def refuses(tmp_path, capsys, monkeypatch):
    """``refuses(argv, message, unreached=(), match=str.__eq__)`` runs
    ``cli.main`` on ``argv`` with ``--out`` a fresh directory and asserts the
    refusal contract: exit 2, one line on stderr that ``match``es
    ``message`` (``str.startswith`` for messages that carry computed
    numbers) and is no unexpected error unless ``message`` is one, nothing
    on stdout, no ``--out`` directory, and none of the ``cli`` functions
    named in ``unreached`` called."""
    def check(argv, message, unreached=(), match=str.__eq__):
        for name in unreached:
            # pytest.fail is no Exception, so main cannot turn it into exit 2
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(
                f"reached cli.{name}"))
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        line, newline, rest = captured.err.partition("\n")
        assert newline and not rest and match(line, message), captured.err
        # a warning or a crash inside main gives an "error: unexpected ..." line
        assert "unexpected" not in line or "unexpected" in message, line
        assert captured.out == "" and not out.exists()
    return check


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
