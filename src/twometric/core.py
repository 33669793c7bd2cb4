"""Core abstractions for bounded ternary (2-)metric spaces.

A 2-metric assigns to every triple of points a nonnegative number in [0, 1]
that behaves like the area of the triangle they span: it vanishes exactly on
degenerate triples.  The axioms checked here, with their short names used
throughout:

  Sym   -- invariance under permutation of the three arguments
  Tetr  -- d(a,b,c) <= d(a,b,x) + d(b,c,x) + d(a,c,x)
  Z     -- d(a,b,b) = 0 (and, folded in, d >= 0 everywhere)
  N     -- for distinct a, b some witness c has d(a,b,c) > 0
  B     -- d <= 1
  Trans -- d(a,b,x) * d(c,x,y) <= d(a,x,y) + d(b,x,y)

From a bounded 2-metric one derives a pair distance
phi(x, y) = sup_z d(x, y, z), approximated here as a max over an explicit
finite witness set (exact on finite spaces when the witness set is the whole
point set).  Derived inequalities audited alongside the axioms:

  AT             -- phi(x,y) <= phi(x,z) + 2*phi(z,y)
  CostTriangle   -- phi(x,y) <= phi(x,z) + phi(z,y) + d(x,y,z)
  DphiLipschitz  -- |d(a,b,x) - d(a,b,y)| <= 2*phi(x,y)

Everything in this module is pure; all randomness flows from a single
explicit seed recorded in the produced report.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

DEFAULT_TOLERANCE = 1e-9

# Axioms whose phi evaluations draw their sample tuples from the witness set
# itself: the truncated sup then satisfies the derived inequalities exactly,
# so a positive violation is a genuine defect, not truncation error.
PHI_AXIOMS = ("N", "AT", "CostTriangle", "DphiLipschitz")

AXIOM_ORDER = ("Sym", "Tetr", "Z", "N", "B", "Trans", "AT", "CostTriangle", "DphiLipschitz")


# ---------------------------------------------------------------------------
# point helpers (points are either numpy coordinate vectors or int indices)
# ---------------------------------------------------------------------------

def point_key(p) -> tuple:
    """Hash/ordering key for a point."""
    if isinstance(p, (int, np.integer)):
        return (int(p),)
    return tuple(np.asarray(p, dtype=float).tolist())


def point_json(p):
    if isinstance(p, (int, np.integer)):
        return int(p)
    if isinstance(p, (float, np.floating)):
        return float(p)
    return [float(c) for c in np.asarray(p).ravel()]


def broadcasting(kernel):
    """Declare that a batch kernel, or a map of points, accepts inputs
    broadcasting over their leading axes, with each point on the last axis,
    and computes every output entry from its own rows only.

    The mark lives on the function object, not on the space: a space copied
    with ``dataclasses.replace(space, d_batch=...)`` carries a wrapped or
    replaced kernel without it, which then gets materialised rows instead.
    """
    kernel.broadcasts = True
    return kernel


def apply_rows(f, points) -> np.ndarray:
    """f at each point stacked on the first axis of ``points``: one call on
    the whole stack when f is marked ``broadcasting``, else one call per
    point."""
    points = np.asarray(points)
    if getattr(f, "broadcasts", False):
        return np.asarray(f(points))
    return np.array([f(p) for p in points])


def _lex_swap(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reorder each pair (row-wise) into lexicographic order."""
    if X.ndim == 1:  # index points
        swap = Y < X
    else:
        diff = X != Y
        any_diff = diff.any(axis=1)
        first = np.argmax(diff, axis=1)
        rows = np.arange(len(X))
        swap = any_diff & (Y[rows, first] < X[rows, first])
    Xo = np.where(swap[..., None] if X.ndim > 1 else swap, Y, X)
    Yo = np.where(swap[..., None] if X.ndim > 1 else swap, X, Y)
    return Xo, Yo


# ---------------------------------------------------------------------------
# spaces and witness sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoMetricSpace:
    """A point domain with an evaluable ternary metric.

    ``d_batch`` is the kernel: it evaluates stacked (n, dim) arrays, one
    value per row, and every check and verdict of the library reads the
    metric through it.  A ``d_batch`` marked with ``broadcasting`` also
    takes inputs that broadcast over their leading axes, and is then called
    on many-by-many scans without materialising their rows.  ``d`` is the
    scalar reference the kernel must agree with, up to rounding; the
    library calls it only for a space without a kernel, one triple at a
    time.
    ``sample(rng, n)`` draws n domain points.
    ``canon`` maps a point to its equivalence-class representative (used by
    quotient constructions); it must be idempotent.  ``line_points``, when
    present, samples points of the line through two given generators.
    """

    name: str
    d: Callable[[Any, Any, Any], float]
    sample: Callable[[np.random.Generator, int], Any]
    size: int | None = None
    d_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    canon: Callable[[Any], Any] | None = None
    contains: Callable[[Any], bool] | None = None
    line_points: Callable[[Any, Any, int], Any] | None = None
    symmetric_exact: bool = False


@dataclass(frozen=True)
class WitnessSet:
    """Finite stand-in for the sup index set of the derived pair distance."""

    points: Any
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("witness set must be nonempty")

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def sampled(space: TwoMetricSpace, count: int, seed: int) -> "WitnessSet":
        if count < 1:
            raise ValueError("witness count must be >= 1")
        pts = space.sample(np.random.default_rng(seed), count)
        return WitnessSet(pts, {"kind": "sample", "count": count, "seed": seed})

    @staticmethod
    def all_of(space: "FiniteTwoMetricSpace") -> "WitnessSet":
        return WitnessSet(np.arange(space.n), {"kind": "all", "count": space.n})

    @staticmethod
    def explicit(points) -> "WitnessSet":
        return WitnessSet(points, {"kind": "explicit", "count": len(points)})

    def refined(self, space: TwoMetricSpace) -> "WitnessSet":
        """The same witnesses plus an equal number of fresh samples."""
        seed = int(self.descriptor.get("seed", 0)) + 1
        fresh = space.sample(np.random.default_rng(seed), len(self.points))
        pts = np.concatenate([np.asarray(self.points), np.asarray(fresh)])
        return WitnessSet(pts, {"kind": "refined", "count": len(pts), "seed": seed})


def eval_phi(space: TwoMetricSpace, x, y, witnesses: WitnessSet) -> float:
    """Pair distance max_w d(x, y, w) over the witness set.

    The pair is put in a canonical order first so the result is exactly
    symmetric in x and y.
    """
    if len(witnesses) == 0:
        raise ValueError("witness set must be nonempty")
    if point_key(y) < point_key(x):
        x, y = y, x
    return float(_d_max(space, x, y, witnesses.points))


def _d_many(space: TwoMetricSpace, X, Y, Z) -> np.ndarray:
    """d of the stacked triples (X[i], Y[i], Z[i]): the space's kernel, or,
    for a space without one, the scalar ``d`` row by row.  No other library
    code calls a space's ``d``."""
    if space.d_batch is not None:
        return np.asarray(space.d_batch(np.asarray(X), np.asarray(Y), np.asarray(Z)))
    return np.array([float(space.d(x, y, z)) for x, y, z in zip(X, Y, Z)])


# Triples with d at or below this are left out of a worst ratio: their
# ratios are dominated by rounding.
_DEGENERATE = 1e-12


def _worst_ratio(kernel, triples, images) -> tuple[float | None, int]:
    """Largest ``kernel(*images) / kernel(*triples)`` over the stacked
    triples whose value is not <= ``_DEGENERATE``, and how many they are;
    None when there are none.  A NaN value is kept, so its NaN ratio makes
    the result NaN."""
    d0 = kernel(*triples)
    keep = ~(d0 <= _DEGENERATE)
    if not keep.any():
        return None, 0
    d1 = kernel(*(np.asarray(P)[keep] for P in images))
    return float((d1 / d0[keep]).max()), int(keep.sum())


# Rows per metric call in ``_d_max``: 2**16 to 2**18 rows ran fastest for the
# det and area kernels on a 2-core x86 machine; at 2**20 the temporaries no
# longer fit in cache and an area-ball scan ran slower than a per-row loop.
_ROW_BUDGET = 1 << 18


def _d_max(space: TwoMetricSpace, X, Y, Z) -> np.ndarray:
    """Max of d(x, y, z) over the last leading axis, with X, Y, Z broadcast
    against each other over their leading axes.

    A coordinate point fills the last axis of a float array; an index point
    is one entry of an integer array.  A kernel marked ``broadcasting`` gets
    the broadcast inputs directly; any other kernel, or the scalar ``d`` of
    a space without one, gets the materialised rows through ``_d_many``.
    Every call covers about ``_ROW_BUDGET`` rows at most, split along the
    first axis.

    Kernels see C-ordered arrays, as the ``np.repeat``/``np.tile`` rows of
    the stacked form were.  The built-in 3-d kernels add elementwise and do
    not depend on the layout, but ``einsum``, which the area kernel keeps
    in other dimensions, sums in an order that follows the memory layout,
    so another layout could change the last bit there.
    """
    arrays = [np.asarray(A, order="C") for A in (X, Y, Z)]
    k = 0 if all(A.dtype.kind in "iu" for A in arrays) else 1
    shape = np.broadcast(*(A[..., 0] if k else A for A in arrays)).shape
    lead = (1,) * (2 - len(shape)) + shape
    arrays = [A.reshape((1,) * (len(lead) + k - A.ndim) + A.shape) for A in arrays]

    if getattr(space.d_batch, "broadcasts", False):
        evaluate = space.d_batch
    else:
        def evaluate(*parts):
            # np.repeat copies whole blocks, as np.repeat/np.tile did; a
            # contiguous copy of a broadcast view runs ~1.7x slower
            rows = np.broadcast(*(P[..., 0] if k else P for P in parts)).shape
            stacked = []
            for P in parts:
                for axis, n in enumerate(rows):
                    if P.shape[axis] != n:
                        P = np.repeat(P, n, axis=axis)
                stacked.append(P.reshape((-1,) + P.shape[len(rows):]))
            return _d_many(space, *stacked).reshape(rows)

    out = np.empty(lead[:-1])
    step = max(1, _ROW_BUDGET // math.prod(lead[1:]))
    for s in range(0, lead[0], step):
        parts = [A if len(A) == 1 else A[s:s + step] for A in arrays]
        out[s:s + step] = evaluate(*parts).max(axis=-1)
    return out.reshape(shape[:-1])


def _phi_many(space: TwoMetricSpace, X, Y, witnesses: WitnessSet) -> np.ndarray:
    """Pair distance of stacked pairs (X[i], Y[i]); X and Y broadcast
    against each other, so one point can be paired with many."""
    X, Y = _lex_swap(*np.broadcast_arrays(np.asarray(X), np.asarray(Y)))
    return _d_max(space, X[:, None], Y[:, None], np.asarray(witnesses.points))


def witness_refinement_gap(space: TwoMetricSpace, witnesses: WitnessSet,
                           pairs: int = 200, seed: int = 0) -> float:
    """Empirical sup-truncation error: max increase of phi when the witness
    set is doubled.  Zero on finite spaces audited with all points."""
    rng = np.random.default_rng(seed)
    X = np.asarray(space.sample(rng, pairs))
    Y = np.asarray(space.sample(rng, pairs))
    refined = witnesses.refined(space)
    base = _phi_many(space, X, Y, witnesses)
    better = _phi_many(space, X, Y, refined)
    return float(np.maximum(better - base, 0.0).max())


# ---------------------------------------------------------------------------
# finite table-backed spaces
# ---------------------------------------------------------------------------

def _triples(n: int) -> np.ndarray:
    """Rows (i, j, k) with i < j < k < n, in lexicographic order."""
    i, j, k = np.ogrid[:n, :n, :n]
    return np.argwhere((i < j) & (j < k))


# One entry of the table file as ``json.dump(..., indent=2)`` lays it out,
# and the number of entries formatted per write in ``save``.
_ENTRY = '    {\n      "i": %d,\n      "j": %d,\n      "k": %d,\n      "d": %s\n    }'
_SAVE_BLOCK = 1024


class FiniteTwoMetricSpace:
    """A 2-metric on {0, ..., n-1} stored as a table over unordered triples.

    Triples with a repeated index are implicitly 0, so permutation symmetry
    and the degeneracy axiom hold by construction.  Entries live in [0, 1]
    for valid spaces, but out-of-range values are representable so the audit
    can find planted defects.
    """

    def __init__(self, n: int, entries: dict[tuple[int, int, int], float] | None = None):
        if n < 1:
            raise ValueError("need at least one point")
        self.n = int(n)
        entries = entries or {}
        keys = list(entries)
        # np.fromiter converts each index as int() does; an int beyond intp
        # is out of range anyway, and clamping it keeps the first bad key
        try:
            K = np.fromiter(itertools.chain.from_iterable(keys), np.intp)
        except OverflowError:
            big = np.iinfo(np.intp).max
            K = np.array([min(max(int(v), -1), big)
                          for v in itertools.chain.from_iterable(keys)], np.intp)
        if set(map(len, keys)) - {3}:
            key = next(key for key in keys if len(key) != 3)
            raise ValueError(f"table keys must be index triples, got {key}")
        K = np.sort(K.reshape(-1, 3), axis=1)
        inside = (K[:, 0] >= 0) & (K[:, 2] < n)
        distinct = (K[:, 0] < K[:, 1]) & (K[:, 1] < K[:, 2])
        bad = np.flatnonzero(~(inside & distinct))
        if len(bad):
            key = keys[bad[0]]
            if not inside[bad[0]]:
                raise ValueError(f"triple {key} out of range for n={n}")
            raise ValueError(f"table stores distinct triples only, got {key}")
        # dict() keeps the first position and the last value of a repeated key
        self.table: dict[tuple[int, int, int], float] = dict(
            zip(zip(*K.T.tolist()), map(float, entries.values())))

    def d(self, i, j, k) -> float:
        i, j, k = sorted((int(i), int(j), int(k)))
        if i == j or j == k:
            return 0.0
        return self.table.get((i, j, k), 0.0)

    def distinct_triples(self) -> Iterable[tuple[int, int, int]]:
        return itertools.combinations(range(self.n), 3)

    def phi(self, i: int, j: int) -> float:
        """Exact pair distance (max over all points); NaN if any
        d(i, j, k) is NaN, as ``dense()`` and ``_phi_many`` give it."""
        return float(np.max([self.d(i, j, k) for k in range(self.n)]))

    def dense(self) -> np.ndarray:
        """The table as a symmetric (n, n, n) array: each stored triple's
        value under all six orders of its indices, 0 on triples with a
        repeated index.  A copy: later writes to ``table`` do not reach it."""
        m = len(self.table)
        keys = np.fromiter(itertools.chain.from_iterable(self.table), np.intp,
                           3 * m).reshape(m, 3).T
        values = np.fromiter(self.table.values(), float, m)
        T = np.zeros((self.n,) * 3)
        for order in itertools.permutations(keys):
            T[order] = values
        return T

    def as_space(self, name: str = "finite") -> TwoMetricSpace:
        """The table as a space on the indices, evaluated on its dense array.

        The space reflects the table as it was when ``as_space()`` was
        called; write every entry first.
        """
        T = self.dense()

        @broadcasting
        def d_batch(X, Y, Z):
            return T[X, Y, Z]

        return TwoMetricSpace(
            name=name,
            d=lambda i, j, k: float(T[int(i), int(j), int(k)]),
            d_batch=d_batch,
            sample=lambda rng, m: rng.integers(0, self.n, size=m),
            size=self.n,
            symmetric_exact=True,
        )

    @staticmethod
    def from_points(points, metric: Callable[[Any, Any, Any], float]) -> "FiniteTwoMetricSpace":
        """Tabulate a coordinate metric on an explicit point list.

        A metric marked ``broadcasting`` is called once on the stacked rows
        of every distinct triple; any other metric once per triple.
        """
        points = [np.asarray(p, dtype=float) for p in points]
        space = FiniteTwoMetricSpace(len(points))
        rows = _triples(space.n)
        keys = list(map(tuple, rows.tolist()))
        if getattr(metric, "broadcasts", False):
            P = np.asarray(points)
            values = np.asarray(metric(*(P[r] for r in rows.T)), dtype=float).tolist()
        else:
            values = [float(metric(points[i], points[j], points[k])) for i, j, k in keys]
        space.table = dict(zip(keys, values))
        return space

    # -- JSON table format: {"n": int, "entries": [{"i","j","k","d"}, ...]} --

    def to_json(self) -> dict:
        entries = [
            {"i": i, "j": j, "k": k, "d": v}
            for (i, j, k), v in sorted(self.table.items())
        ]
        return {"n": self.n, "entries": entries}

    @staticmethod
    def from_json(payload: dict) -> "FiniteTwoMetricSpace":
        entries = {
            (e["i"], e["j"], e["k"]): e["d"] for e in payload.get("entries", [])
        }
        return FiniteTwoMetricSpace(payload["n"], entries)

    def save(self, path) -> None:
        """Write ``to_json()`` in the bytes of ``json.dump(..., indent=2)``
        followed by a newline.

        That encoder runs in pure Python.  A table whose keys hold Python
        ints and whose values are Python ints or floats (all that the
        constructor, ``from_points`` and the quotient store) is streamed
        instead, ``_SAVE_BLOCK`` entries per write: json's C encoder turns
        a block's values into tokens (``NaN``, ``Infinity`` and ints
        included), which go into the fixed entry layout.  Anything else
        written into ``table`` goes through the indenting encoder, which
        writes or refuses it as before.
        """
        plain = (set(map(type, itertools.chain.from_iterable(self.table))) <= {int}
                 and set(map(type, self.table.values())) <= {int, float})
        with open(path, "w", encoding="utf-8") as fh:
            if not plain:
                json.dump(self.to_json(), fh, indent=2)
                fh.write("\n")
                return
            items = sorted(self.table.items())
            fh.write('{\n  "n": %s,\n  "entries": [' % json.dumps(self.n))
            for s in range(0, len(items), _SAVE_BLOCK):
                block = items[s:s + _SAVE_BLOCK]
                tokens = json.dumps([v for _, v in block])[1:-1].split(", ")
                fields = [x for ((i, j, k), _), d in zip(block, tokens) for x in (i, j, k, d)]
                fh.write((",\n" if s else "\n")
                         + ",\n".join([_ENTRY] * len(block)) % tuple(fields))
            fh.write("\n  ]\n}\n" if items else "]\n}\n")

    @staticmethod
    def load(path) -> "FiniteTwoMetricSpace":
        with open(path, "r", encoding="utf-8") as fh:
            return FiniteTwoMetricSpace.from_json(json.load(fh))


def demo_five_point_space() -> FiniteTwoMetricSpace:
    """Five points {a,b,c,p,q} = {0..4} with one three-point line {a,b,c}
    and d = 1 on every other distinct triple.  Has exactly eight lines."""
    space = FiniteTwoMetricSpace(5)
    for t in space.distinct_triples():
        space.table[t] = 0.0 if t == (0, 1, 2) else 1.0
    return space


# ---------------------------------------------------------------------------
# axiom audit
# ---------------------------------------------------------------------------

@dataclass
class AxiomRecord:
    axiom: str
    max_violation: float
    witness: tuple | None
    samples: int

    def to_json(self) -> dict:
        value = float(self.max_violation)
        out = {
            "axiom": self.axiom,
            "max_violation": value if np.isfinite(value) else None,
            "witness": [point_json(p) for p in self.witness] if self.witness else [],
            "samples": int(self.samples),
        }
        if not np.isfinite(value):
            out["non_finite"] = True
        return out


@dataclass
class AxiomReport:
    seed: int
    tolerance: float
    records: list[AxiomRecord]

    def record(self, axiom: str) -> AxiomRecord:
        for rec in self.records:
            if rec.axiom == axiom:
                return rec
        raise KeyError(axiom)

    def failing(self, non_fatal: Sequence[str] = ()) -> list[str]:
        return [
            r.axiom
            for r in self.records
            if not r.max_violation <= self.tolerance and r.axiom not in non_fatal
        ]

    def passed(self, non_fatal: Sequence[str] = ()) -> bool:
        return not self.failing(non_fatal)

    def worst(self) -> float:
        return float(np.max([r.max_violation for r in self.records]))

    def to_json(self) -> dict:
        return {
            "seed": int(self.seed),
            "tolerance": float(self.tolerance),
            "axioms": [r.to_json() for r in self.records],
        }


def _record_from(axiom: str, violations: np.ndarray, tuples, samples: int) -> AxiomRecord:
    if len(violations) == 0:
        return AxiomRecord(axiom, 0.0, None, samples)
    worst = int(np.argmax(violations))
    value = float(violations[worst])
    witness = tuple(t[worst] for t in tuples) if not value <= 0 else None
    return AxiomRecord(axiom, max(value, 0.0), witness, samples)


def audit(space: TwoMetricSpace, *, witnesses: WitnessSet,
          triples: int = 2000, seed: int = 0,
          tolerance: float = DEFAULT_TOLERANCE) -> AxiomReport:
    """Score every axiom as the worst sampled max(0, LHS - RHS).

    Each axiom samples ``triples`` tuples of its own arity.  Tuples for the
    plain axioms are drawn from the space sampler; tuples for the phi-based
    checks are drawn from the witness set so the truncated sup is internally
    consistent and those inequalities are exact.  All sampling is sequential
    from the given seed.
    """
    if triples < 1:
        raise ValueError("sample counts must be >= 1")
    rng = np.random.default_rng(seed)

    def draw(count):
        return np.asarray(space.sample(rng, count))

    records: list[AxiomRecord] = []

    # Sym: spread of d over argument permutations.
    T = [draw(triples) for _ in range(3)]
    d0 = _d_many(space, *T)
    if space.symmetric_exact:
        records.append(AxiomRecord("Sym", 0.0, None, 0))
    else:
        spread = np.zeros(triples)
        perms = [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        for p in perms:
            dp = _d_many(space, T[p[0]], T[p[1]], T[p[2]])
            spread = np.maximum(spread, np.abs(dp - d0))
        records.append(_record_from("Sym", spread, T, triples))

    # Tetr on quadruples.
    Q = [draw(triples) for _ in range(4)]
    lhs = _d_many(space, Q[0], Q[1], Q[2])
    rhs = (_d_many(space, Q[0], Q[1], Q[3])
           + _d_many(space, Q[1], Q[2], Q[3])
           + _d_many(space, Q[0], Q[2], Q[3]))
    records.append(_record_from("Tetr", lhs - rhs, Q, triples))

    # Z: repeated-argument degeneracy, plus positivity on generic triples.
    P = [draw(triples) for _ in range(2)]
    z_viol = np.abs(_d_many(space, P[0], P[1], P[1]))
    pos_viol = -d0
    # NaN in either part must reach the record: NaN > x is always False
    pos_max = pos_viol.max()
    if np.isnan(pos_max) or pos_max > z_viol.max():
        records.append(_record_from("Z", pos_viol, T, triples))
    else:
        records.append(_record_from("Z", z_viol, (P[0], P[1], P[1]), triples))

    # N: distinct pairs (after canonicalization) must have positive phi.
    widx = np.random.default_rng(seed + 1).integers(0, len(witnesses), size=(triples, 2))
    Wpts = np.asarray(witnesses.points)
    NX, NY = Wpts[widx[:, 0]], Wpts[widx[:, 1]]
    canon = space.canon or (lambda p: p)
    classes: dict = {}
    wclass = np.array([classes.setdefault(point_key(canon(p)), len(classes)) for p in Wpts])
    keep = np.flatnonzero(wclass[widx[:, 0]] != wclass[widx[:, 1]])
    if len(keep):
        phis = _phi_many(space, NX[keep], NY[keep], witnesses)
        n_viol = np.where(phis > tolerance, 0.0, 1.0)
        records.append(_record_from("N", n_viol, (NX[keep], NY[keep]), len(keep)))
    else:
        records.append(AxiomRecord("N", 0.0, None, 0))

    # B: global bound 1.
    records.append(_record_from("B", d0 - 1.0, T, triples))

    # Trans on quintuples: d(a,b,x) * d(c,x,y) <= d(a,x,y) + d(b,x,y).
    V = [draw(triples) for _ in range(5)]
    a, b, c, x, y = V
    lhs = _d_many(space, a, b, x) * _d_many(space, c, x, y)
    rhs = _d_many(space, a, x, y) + _d_many(space, b, x, y)
    records.append(_record_from("Trans", lhs - rhs, V, triples))

    # phi-based checks, sampled from the witness set.
    prng = np.random.default_rng(seed + 2)
    tidx = prng.integers(0, len(witnesses), size=(triples, 3))
    PX, PY, PZ = Wpts[tidx[:, 0]], Wpts[tidx[:, 1]], Wpts[tidx[:, 2]]
    phi_xy = _phi_many(space, PX, PY, witnesses)
    phi_xz = _phi_many(space, PX, PZ, witnesses)
    phi_zy = _phi_many(space, PZ, PY, witnesses)
    d_xyz = _d_many(space, PX, PY, PZ)
    records.append(_record_from("AT", phi_xy - phi_xz - 2.0 * phi_zy,
                                (PX, PY, PZ), triples))
    records.append(_record_from("CostTriangle", phi_xy - phi_xz - phi_zy - d_xyz,
                                (PX, PY, PZ), triples))

    qidx = prng.integers(0, len(witnesses), size=(triples, 4))
    DA, DB = Wpts[qidx[:, 0]], Wpts[qidx[:, 1]]
    DX, DY = Wpts[qidx[:, 2]], Wpts[qidx[:, 3]]
    lhs = np.abs(_d_many(space, DA, DB, DX) - _d_many(space, DA, DB, DY))
    rhs = 2.0 * _phi_many(space, DX, DY, witnesses)
    records.append(_record_from("DphiLipschitz", lhs - rhs, (DA, DB, DX, DY), triples))

    order = {name: i for i, name in enumerate(AXIOM_ORDER)}
    records.sort(key=lambda r: order[r.axiom])
    return AxiomReport(seed=seed, tolerance=tolerance, records=records)


# ---------------------------------------------------------------------------
# nondegeneracy quotient and the surjectivity bound
# ---------------------------------------------------------------------------

def quotient_by_zero_phi(space: FiniteTwoMetricSpace,
                         tol: float = 1e-12) -> FiniteTwoMetricSpace:
    """Merge points at pair distance zero; the result is strictly reflexive.

    Values are taken from class representatives, which is well defined
    because d moves by at most twice the pair distance in each argument.
    Identity when no pair has phi <= tol.
    """
    T = space.dense()
    parent = list(range(space.n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # a NaN pair distance is not <= tol, so a NaN entry never merges
    I, J = np.nonzero(np.triu(T.max(axis=2) <= tol, k=1))
    for i, j in zip(I.tolist(), J.tolist()):
        parent[find(i)] = find(j)

    roots = sorted({find(i) for i in range(space.n)})
    if len(roots) == space.n:
        return space
    index = {r: c for c, r in enumerate(roots)}
    cls = np.array([index[find(i)] for i in range(space.n)])
    rows = _triples(space.n)
    classes = np.sort(cls[rows], axis=1)
    distinct = (classes[:, 0] < classes[:, 1]) & (classes[:, 1] < classes[:, 2])
    rows, classes = rows[distinct], classes[distinct]
    out = FiniteTwoMetricSpace(len(roots))
    # dict() keeps the last value of a repeated class triple, as the loop
    # over triples in lexicographic order did
    out.table = dict(zip(map(tuple, classes.tolist()), T[tuple(rows.T)].tolist()))
    if np.triu(out.dense().max(axis=2) <= tol, k=1).any():
        raise RuntimeError("quotient failed to become strictly reflexive")
    return out


@dataclass
class SurjectivityCheck:
    is_surjective: bool
    measured_k: float | None
    witness: tuple | None

    def to_json(self) -> dict:
        return {
            "is_surjective": bool(self.is_surjective),
            "measured_k": None if self.measured_k is None else float(self.measured_k),
            "witness": list(self.witness) if self.witness else [],
        }


def surjective_contraction_check(space: FiniteTwoMetricSpace,
                                 mapping: Sequence[int],
                                 zero_tol: float = 1e-12) -> SurjectivityCheck:
    """Worst expansion ratio of a self-map on the indices.

    measured_k is the max of d(F i, F j, F k) / d(i, j, k) over triples with
    positive d; it is infinite when a zero triple maps to a positive one
    (no finite contraction constant exists then), NaN when d or its image
    is NaN on some triple, and absent when d vanishes on every triple.  The
    witness is the first triple in lexicographic order that decides it.
    For a surjective map on a space satisfying the nondegeneracy and
    boundedness axioms, measured_k >= 1.
    """
    mapping = [int(v) for v in mapping]
    if len(mapping) != space.n or any(not 0 <= v < space.n for v in mapping):
        raise ValueError("mapping must be total on the index set")
    surjective = len(set(mapping)) == space.n
    T = space.dense()
    rows = _triples(space.n)
    d0, d1 = T[tuple(rows.T)], T[tuple(np.asarray(mapping, np.intp)[rows].T)]
    # the first triple with a NaN on either side makes the ratio NaN, else
    # the first zero triple mapped to a positive one makes it infinite
    for k, hit in ((float("nan"), np.isnan(d0) | np.isnan(d1)),
                   (float("inf"), (d0 <= zero_tol) & (d1 > zero_tol))):
        if hit.any():
            return SurjectivityCheck(surjective, k, tuple(rows[hit.argmax()].tolist()))
    keep = np.flatnonzero(d0 > zero_tol)
    if not len(keep):
        return SurjectivityCheck(surjective, None, None)
    ratios = d1[keep] / d0[keep]
    best = int(np.argmax(ratios))
    return SurjectivityCheck(surjective, float(ratios[best]), tuple(rows[keep[best]].tolist()))
