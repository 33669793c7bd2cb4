"""Shared fixtures: seeded point clouds and brute-force oracles."""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from twometric import FiniteTwoMetricSpace, SpherePatch, TwoMetricSpace, det_metric
from twometric import cli, core, spaces
from twometric.certify import (_SLACK, _STEP, CertResult, _abs_det, _max_radius,
                               _spectral_norms, hessian_bound_fd, jacobian_fd)
from twometric.core import _sorted_key, _stacks, _worst_ratio, apply_rows
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


def det_phi_reference(x, y) -> float:
    """|x x y| of one pair by a loop over Python floats: the cross product
    as ``np.cross`` writes it, its squared length in the kernels' order."""
    x, y = ([float(c) for c in p] for p in (x, y))
    c = [x[(i + 1) % 3] * y[(i + 2) % 3] - x[(i + 2) % 3] * y[(i + 1) % 3] for i in range(3)]
    return math.sqrt(_dot_reference(c, c))


def area_phi_reference(x, y, radius: float = 0.5) -> float:
    """The area ball's pair distance of one pair by a loop over Python
    floats: ``0.5 * |e| * (radius + |p|)`` with e = y - x and p = m - ((e
    . m) / (e . e)) e for the midpoint m = (x + y) / 2, the quotient 0
    where e . e is 0, dot products in the kernels' order, a NaN kept."""
    x, y = ([float(c) for c in p] for p in (x, y))
    e = [q - p for p, q in zip(x, y)]
    m = [(p + q) * 0.5 for p, q in zip(x, y)]
    ee = _dot_reference(e, e)
    c = _dot_reference(e, m) / ee if ee != 0.0 else 0.0
    p = [a - c * b for a, b in zip(m, e)]
    return 0.5 * (math.sqrt(ee) * (math.sqrt(_dot_reference(p, p)) + radius))


def reference_rows(metric, X, Y, Z) -> np.ndarray:
    """A scalar reference called once per row of X, Y and Z broadcast
    against each other: the values a kernel gives that stack."""
    X, Y, Z = np.broadcast_arrays(*(np.asarray(P, dtype=float) for P in (X, Y, Z)))
    rows = zip(*(P.reshape(-1, P.shape[-1]).tolist() for P in (X, Y, Z)))
    return np.array([metric(*t) for t in rows]).reshape(X.shape[:-1])


def patch_lift(P) -> np.ndarray:
    """Oracle of the patch lift: planar points on the last axis, one or a
    stack, lifted to the lower hemisphere, with the height concatenated as
    a third coordinate."""
    P = np.asarray(P, dtype=float)
    h = -np.sqrt(1.0 - P[..., 0] ** 2 - P[..., 1] ** 2)
    return np.concatenate([P, h[..., None]], axis=-1)


def patch_metric(x, y, z) -> float:
    """Scalar oracle of ``SpherePatch.metric_batch``: the area of one
    lifted triangle, by ``area_reference``."""
    return area_reference(patch_lift(x), patch_lift(y), patch_lift(z))


def patch_space(patch: SpherePatch) -> TwoMetricSpace:
    """A patch as a space with the kernel ``metric_batch``; ``patch_metric``
    is its scalar oracle."""
    return TwoMetricSpace(name=f"sphere-patch-r{patch.radius}",
                          d_batch=patch.metric_batch, sample=patch.sample)


def triangle_area2(x, y, z):
    """Oracle of the sandwich's flat area, of one planar triangle or of each
    row for stacked points."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(y, dtype=float) - x
    v = np.asarray(z, dtype=float) - x
    return 0.5 * np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def rho(x, y, z):
    """Oracle of the sandwich's distance product, of one planar triple or of
    each row for stacked points: permutation invariant and zero exactly when
    two points coincide.  Each distance is ``spaces._lengths`` of the
    coordinate differences, as ``spaces._sandwich`` takes it."""
    x, y, z = spaces._coords(x), spaces._coords(y), spaces._coords(z)
    return (spaces._lengths(spaces._differences(x, y))
            * spaces._lengths(spaces._differences(x, z))
            * spaces._lengths(spaces._differences(y, z)))


def point_key(p) -> tuple:
    """A hashable key of one point: an index point's int, or a coordinate
    point's coordinates as floats."""
    if isinstance(p, (int, np.integer)):
        return (int(p),)
    return tuple(np.asarray(p, dtype=float).tolist())


def first_of_each(points, m: int) -> tuple[list[int], list[int]]:
    """The candidates of ``classify`` over a stack of m witnesses and a
    tail, one point at a time: the position of each point whose
    ``point_key`` no point before it has, and the tail position of each,
    that of the first point from position m on with its key, less m, or
    the number of those points where none has it."""
    first, tail = {}, {}
    for i, key in enumerate(map(point_key, points)):
        first.setdefault(key, i)
        if i >= m:
            tail.setdefault(key, i - m)
    return list(first.values()), [tail.get(key, len(points) - m) for key in first]


def antipodal_canon_reference(x) -> np.ndarray:
    """The antipodal canon of one point by a loop over its coordinates: the
    first one larger than 1e-12 in magnitude decides whether the point is
    negated."""
    x = np.asarray(x, dtype=float)
    for c in x:
        if abs(c) > 1e-12:
            return -x if c < 0 else x
    return x


def classes_reference(space: TwoMetricSpace, points) -> list[int]:
    """N's class numbers of points, point by point: ``point_key`` of each
    point's canon, numbered in order of first appearance."""
    canon = space.canon or (lambda p: p)
    classes: dict = {}
    return [classes.setdefault(point_key(canon(p)), len(classes)) for p in points]


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


def table_from_json_reference(payload) -> FiniteTwoMetricSpace:
    """The table of a parsed table file, read key by key: the reader that
    the columnar ``FiniteTwoMetricSpace.from_json`` replaced, with the key
    pass it shared with the constructor.  Each entry gives a key tuple, the
    indices go through ``operator.index`` into ``np.fromiter``, and the
    values through ``float``; a file that fails is read entry by entry and
    its first bad entry named."""
    entries = payload.get("entries", []) if type(payload) is dict else None
    if type(entries) is not list or type(payload.get("n")) is not int:
        raise ValueError('a table file holds an object with an int "n" and a list "entries"')
    space = FiniteTwoMetricSpace(payload["n"])
    try:
        keys = list(map(operator.itemgetter("i", "j", "k"), entries))
        values = list(map(operator.itemgetter("d"), entries))
        ok = (set(map(type, itertools.chain.from_iterable(keys))) <= {int}
              and set(map(type, values)) <= {int, float})
    except (KeyError, TypeError):
        ok = False
    if ok:
        try:
            K = np.fromiter(map(operator.index, itertools.chain.from_iterable(keys)), np.intp)
            K = np.sort(K.reshape(-1, 3), axis=1)
            if (np.diff(K, prepend=-1, append=space.n) > 0).all():
                space._store(K, np.fromiter(map(float, values), float, len(keys)))
                return space
        except (TypeError, OverflowError):
            pass
    for number, entry in enumerate(entries):
        try:
            if not (type(entry) is dict and all(type(entry.get(c)) is int for c in "ijk")
                    and type(entry.get("d")) in (int, float)):
                raise TypeError
            float(entry["d"])
        except (TypeError, OverflowError):
            raise ValueError(f"table entry {number} needs integer i, j, k and a "
                             f"number d, got {json.dumps(entry)}") from None
        try:
            _sorted_key(operator.itemgetter("i", "j", "k")(entry), space.n)
        except ValueError as exc:
            raise ValueError(f"table entry {number}: {exc}") from None
    raise AssertionError("a file refused by the key pass has a bad entry")


def table_phi(space: FiniteTwoMetricSpace, i: int, j: int) -> float:
    """Exact pair distance of a table by a scalar loop over all points; NaN
    if any d(i, j, k) is NaN, as ``eval_phi`` on the table's space gives it."""
    return float(np.max([space.d(i, j, k) for k in range(space.n)]))


def hexes(values) -> list[str]:
    """Each value as ``float.hex`` gives it: a comparison of these lists is
    a comparison of bits, NaN included."""
    return [float.hex(float(v)) for v in np.ravel(values)]


def csv_trace(trace, path, vertical_column: bool = False) -> None:
    """Oracle of ``OrbitTrace.to_csv``: its rows through the ``csv``
    module's default writer, which writes a float as ``repr`` does and ends
    each row with ``\\r\\n``; ``x3_abs`` is ``abs`` of x3."""
    pts = np.asarray(trace.points)
    phi = np.asarray(trace.phi_steps, dtype=float).tolist()[:len(pts)]
    phi += [""] * (len(pts) - len(phi))
    if pts.ndim > 1:
        header = [f"x{i + 1}" for i in range(pts.shape[1])]
        rows = [[i, *p, phi[i], *([abs(p[2])] if vertical_column else [])]
                for i, p in enumerate(np.asarray(pts, dtype=float).tolist())]
    else:
        header = ["index"]
        rows = [[i, int(p), phi[i]] for i, p in enumerate(pts.tolist())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", *header, "phi_step", *(["x3_abs"] if vertical_column else [])])
        writer.writerows(rows)


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


def gram_bounds_reference(split, P, x, y, z, cuts) -> np.ndarray:
    """``core._gram_bounds`` in one pass: every row's edges to every target
    at once, with a row's edges one edge where each coordinate equals that
    of its edge to the first target.  A target's last read is the number
    of the last column that reads it, written column by column."""
    edges, finish = split
    last = np.full(len(P), -1)
    for column, (a, b) in enumerate(zip(y.tolist(), z.tolist())):
        last[a] = last[b] = column
    targets = np.flatnonzero(last >= 0)
    e, n = edges(x, P[targets][:, None])
    out = np.stack([core._gram_bound(finish, n),
                    core._gram_bound(finish, np.where(last[targets, None] >= cuts, n, -np.inf))])
    one = np.logical_and.reduce([(u == u[0]).all(axis=0) for u in e]) & (n[0] * n[0] < np.inf)
    out[:, one] = finish(np.zeros(1))
    return out


def certify_reference(inp, samples: int = 400, ratio_triples: int = 2000,
                      seed: int = 0) -> CertResult:
    """``certify`` with its conclusion in one pass: all three stacks
    mapped, their images checked against the patch, and every triple's
    ratio taken at once."""
    A, det = inp.jac_target, _abs_det(inp.jac_target)
    c_prime, bound = float(inp.proximity), inp.ratio_constant * det
    patch, rin = inp.patch, inp.inner_radius
    rng = np.random.default_rng(seed)
    pts = patch.sample(rng, samples, radius=max(rin - 2.5 * _STEP, rin * 0.5))
    devs = _spectral_norms(jacobian_fd(inp.map, pts, radius=rin) - A)
    max_dev = float(devs.max())
    hess = hessian_bound_fd(inp.map, pts, radius=rin)
    failures = []
    if not max_dev <= c_prime:
        failures.append({"hypothesis": "jacobian_proximity", "value": max_dev, "budget": c_prime,
                         "witness": [float(c) for c in pts[int(np.argmax(devs))]]})
    if not hess <= c_prime:
        failures.append({"hypothesis": "hessian_bound", "value": float(hess),
                         "budget": c_prime, "witness": None})
    if not failures:
        X, Y, Z = _stacks(lambda rng, n: patch.sample(rng, n, radius=rin), rng, ratio_triples, 3)
        FX, FY, FZ = (apply_rows(inp.map, P) for P in (X, Y, Z))
        if not np.max([_max_radius(F) for F in (FX, FY, FZ)]) <= patch.radius:
            failures.append({"hypothesis": "range_containment", "value": None,
                             "budget": patch.radius, "witness": None})
    worst, kept = ((None, 0) if failures
                   else _worst_ratio(patch.metric_batch, (X, Y, Z), (FX, FY, FZ)))
    return CertResult(
        passes=not failures, max_jac_dev=max_dev, max_hessian=float(hess),
        c_prime=c_prime, ratio_constant=inp.ratio_constant, det_target=det,
        worst_ratio=worst, bound=bound,
        conclusion_ok=None if worst is None else bool(worst <= bound * _SLACK),
        failures=failures, samples=samples, ratio_samples=kept,
    )


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
