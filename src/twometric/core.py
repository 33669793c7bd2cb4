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
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

DEFAULT_TOLERANCE = 1e-9

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


def _strict(record: dict) -> dict:
    """The one rule for non-finite numbers in artifacts: each float value
    of ``record`` that is not finite is written as null, and the record
    then gets ``"non_finite": true``.  A finite record comes back as it
    was."""
    bad = [k for k, v in record.items() if isinstance(v, float) and not np.isfinite(v)]
    return {**record, **dict.fromkeys(bad), **({"non_finite": True} if bad else {})}


def _write_json(path: Path, payload: dict) -> None:
    """Write an artifact: sorted keys, two-space indents, a final newline;
    a non-finite float raises rather than being written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


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


def apply_rows(f, *stacks) -> np.ndarray:
    """f row by row over stacks of points stacked on their first axis, the
    i-th call taking the i-th point of each stack: one call on the whole
    stacks when f is marked ``broadcasting``, else one call per row."""
    stacks = [np.asarray(S) for S in stacks]
    if getattr(f, "broadcasts", False):
        return np.asarray(f(*stacks))
    return np.array([f(*row) for row in zip(*stacks)])


def _at_least(value: int, least: int, what: str) -> None:
    """Refuse a count below ``least``, before any work, with a ``ValueError``."""
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


def _stacks(sample, seed, count: int, arity: int) -> list:
    """``arity`` stacks of ``count`` points, drawn in turn by
    ``sample(rng, count)``; ``seed`` is an int or a Generator, which is
    drawn from where it stands."""
    rng = np.random.default_rng(seed)
    return [np.asarray(sample(rng, count)) for _ in range(arity)]


# The short draw of ``_distinct_triples`` is sized to hold ``keep`` distinct
# rows with this many standard deviations of their count to spare.
_SHORT_DRAW_SIGMAS = 6.0


def _distinct_triples(rng: np.random.Generator, m: int, draws: int,
                      keep: int | None = None) -> np.ndarray:
    """Index triples below m: of ``draws`` random rows, the first ``keep``
    (all when None) whose three entries are distinct, each sorted.

    The first rows of a draw are the rows of a shorter draw.  So with
    ``keep``, the rows expected to hold ``keep`` distinct ones (a share
    (m - 1)(m - 2) / m^2 of them is distinct), plus a margin, are drawn
    first; only when they hold fewer is the generator put back and all
    ``draws`` rows drawn.  The triples are the same either way, but the
    generator is left after the draw that was kept."""
    if keep is not None and m >= 3:
        p = (m - 1) * (m - 2) / (m * m)
        short = math.ceil((keep + _SHORT_DRAW_SIGMAS * math.sqrt(keep * (1 - p))) / p)
        if short < draws:
            state = rng.bit_generator.state
            rows = _sorted_distinct(rng.integers(0, m, size=(short, 3)), keep)
            if len(rows) == keep:
                return rows
            rng.bit_generator.state = state
    return _sorted_distinct(rng.integers(0, m, size=(draws, 3)), keep)


def _sorted_distinct(draw: np.ndarray, keep: int | None) -> np.ndarray:
    """The first ``keep`` rows of an (n, 3) draw whose entries are
    distinct, each sorted."""
    a, b, c = draw.T
    # a sorted row is strictly increasing exactly when its entries are
    # distinct, so only the rows kept need sorting.  Gathering a, b, c frees
    # the draws before the elementwise sort: with both alive the peak passes
    # glibc's trim threshold, and each call faults its pages in again.
    rows = np.flatnonzero((a != b) & (b != c) & (a != c))[:keep]
    a, b, c = a[rows], b[rows], c[rows]
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    # one contiguous column per index (Fortran order)
    return np.array([lo, a + b + c - lo - hi, hi]).T


def _swapped(X, Y, index: bool) -> np.ndarray:
    """Where Y comes before X in lexicographic order, with X and Y
    broadcast against each other: index points by value, coordinate points
    by their first differing coordinate."""
    lt = Y < X
    if index:
        return lt
    # Y comes first when the first coordinate where it is below X is the
    # first coordinate where the two differ
    return (lt.argmax(axis=-1) == (X != Y).argmax(axis=-1)) & lt.any(axis=-1)


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
    on many-by-many scans without materialising their rows.  ``d``, when
    given, is a scalar metric for callers of their own; the library never
    reads it.
    ``sample(rng, n)`` draws n domain points.  ``size``, when given, makes
    the space a table's (``FiniteTwoMetricSpace.as_space()``) on the
    indices below it, symmetric by construction: ``audit`` then takes Sym
    as exact and decides B and Z over every distinct triple.
    ``canon`` maps a point to its equivalence-class representative (used by
    quotient constructions); it must be idempotent.  ``line_points``, when
    present, samples points of the line through two given generators.
    """

    name: str
    d_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    sample: Callable[[np.random.Generator, int], Any]
    size: int | None = None
    d: Callable[[Any, Any, Any], float] | None = None
    canon: Callable[[Any], Any] | None = None
    contains: Callable[[Any], bool] | None = None
    line_points: Callable[[Any, Any, int], Any] | None = None


@dataclass(frozen=True)
class WitnessSet:
    """Finite stand-in for the sup index set of the derived pair distance."""

    points: Any
    seed: int = 0   # the sampled points' seed; ``refined`` draws from seed + 1

    def __post_init__(self):
        _at_least(len(self.points), 1, "witness count")

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def sampled(space: TwoMetricSpace, count: int, seed: int) -> "WitnessSet":
        _at_least(count, 1, "witness count")
        return WitnessSet(space.sample(np.random.default_rng(seed), count), seed)

    @staticmethod
    def all_of(space: "FiniteTwoMetricSpace") -> "WitnessSet":
        return WitnessSet(np.arange(space.n))

    def refined(self, space: TwoMetricSpace) -> "WitnessSet":
        """The same witnesses plus an equal number of fresh samples."""
        fresh = space.sample(np.random.default_rng(self.seed + 1), len(self.points))
        return WitnessSet(np.concatenate([np.asarray(self.points), np.asarray(fresh)]),
                          self.seed + 1)


def eval_phi(space: TwoMetricSpace, x, y, witnesses: WitnessSet, points=None):
    """Pair distance max_w d(x, y, w) over the witness set.

    x and y are points or stacks of points that broadcast against each
    other over their leading axes, points as the witnesses hold them: an
    index point is one entry of an integer array, and a coordinate point
    fills the last axis of a float array.  With ``points``, x and y are
    integer arrays of row numbers of ``points`` instead, and the pairs are
    those of ``points[x]`` and ``points[y]``; without, the x's and then
    the y's are numbered so.  One pair gives a float, anything else an
    array of the broadcast leading shape.  Each pair is put in
    lexicographic order first, so the result is exactly symmetric in x and
    y.
    """
    W = np.asarray(witnesses.points)
    if points is None:
        X, Y = np.asarray(x), np.asarray(y)
        lead = [A.shape[:A.ndim + 1 - W.ndim] for A in (X, Y)]
        points = np.concatenate([A.reshape((-1,) + W.shape[1:]) for A in (X, Y)])
        n = math.prod(lead[0])
        x, y = np.arange(n).reshape(lead[0]), np.arange(n, len(points)).reshape(lead[1])
    P = np.concatenate([np.asarray(points), W])
    X, Y = np.asarray(x), np.asarray(y)
    swap = _swapped(P[X], P[Y], P.ndim == 1)
    X, Y = np.where(swap, Y, X), np.where(swap, X, Y)
    out = _d_max(space, X.reshape(-1, 1), Y.reshape(-1, 1), np.arange(len(P) - len(W), len(P)), P)
    return float(out[0]) if X.ndim == 0 else out.reshape(X.shape)


def _d_many(space: TwoMetricSpace, X, Y, Z) -> np.ndarray:
    """d of the stacked triples (X[i], Y[i], Z[i]), by the space's kernel."""
    return np.asarray(space.d_batch(np.asarray(X), np.asarray(Y), np.asarray(Z)))


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


# Rows per metric call in ``_d_max`` (so also triples per block of
# ``classify``'s triple modulus) and per block of its Gram scans.  A
# buffered kernel call holds several row-sized buffers (seven in the det
# kernel: 1.8 MB at 2**15 rows).  On a 2-core Xeon (4 MB L2 per core, numpy
# 2.4), 20 s sampled-audit runs gave 9.5-10.5 verdicts/s at 2**14 and
# 2**15, 9.6-9.9 at 2**16 and 5.3-5.6 at 2**18, where the buffers no longer
# fit in cache; contraction-verdicts and finite-tables stayed level from
# 2**14 to 2**16.  A Gram scan's edge tables and the det kernel's cross
# table are bounded by it too.
_ROW_BUDGET = 1 << 15


def _d_max(space: TwoMetricSpace, X, Y, Z, points) -> np.ndarray:
    """Max of d(x, y, z) over the last axis of a scan of the rows of
    ``points``: X, Y and Z are integer arrays of row numbers, at most 2-D,
    broadcast against each other, and the scan is that of ``points[X]``,
    ``points[Y]`` and ``points[Z]``.  A row of ``points`` is a coordinate
    point, or an index point where ``points`` is 1-D.

    A kernel marked ``broadcasting`` gets the gathered rows, broadcast
    against each other; any other kernel gets them stacked, through
    ``_d_many``.  Two declared factorisations compute less than one kernel
    row per scan row, with the same bits: a kernel's ``gram`` split
    evaluates the scan from the edges between its points (``_gram_max``),
    and a kernel's ``factors`` compute its inner part once per scan where
    ``_inner_table`` allows.  Both tabulate a scan of triples, one per row
    (``classify``'s triple modulus), over the pairs of the rows they span,
    where ``_span`` allows.  Every call covers about ``_ROW_BUDGET`` rows
    at most, split along the first axis.
    """
    P = np.asarray(points)
    shape = np.broadcast_shapes(np.shape(X), np.shape(Y), np.shape(Z))[:-1]
    X, Y, Z = (np.reshape(A, (1,) * (2 - np.ndim(A)) + np.shape(A)) for A in (X, Y, Z))
    a, b = np.broadcast_shapes(X.shape, Y.shape, Z.shape)
    split = getattr(space.d_batch, "gram", None)
    out = _gram_max(split, P, X, Y, Z, a, b) if split and P.ndim == 2 and a * b else None
    if out is not None:
        return out.reshape(shape)

    out = np.empty(a)
    step = max(1, _ROW_BUDGET // b)
    table = _inner_table(space.d_batch, P, X, Y, Z, a, b)
    # rows fixed along the chunk axis are gathered once, the others per chunk
    fixed = [np.take(P, A, axis=0) if len(A) == 1 else None for A in (X, Y, Z)]

    def rows(i, s):
        return fixed[i] if fixed[i] is not None else np.take(P, (X, Y, Z)[i][s:s + step], axis=0)

    def stacked(A, grid):
        # each row gathered once, then copied in whole blocks along the
        # broadcast axes: a gather of the broadcast row numbers runs slower
        G = np.take(P, A, axis=0)
        for axis, n in enumerate(grid):
            if G.shape[axis] != n:
                G = np.repeat(G, n, axis=axis)
        return G.reshape((-1,) + P.shape[1:])

    for s in range(0, a, step):
        if table is not None:
            outer, T, inverse = table
            values = outer(rows(0, s), T if inverse is None
                           else np.moveaxis(np.take(T, inverse[s:s + step], axis=1), 0, -1))
        elif getattr(space.d_batch, "broadcasts", False):
            values = space.d_batch(rows(0, s), rows(1, s), rows(2, s))
        else:
            parts = [A if len(A) == 1 else A[s:s + step] for A in (X, Y, Z)]
            grid = np.broadcast_shapes(*(A.shape for A in parts))
            values = _d_many(space, *(stacked(A, grid) for A in parts)).reshape(grid)
        out[s:s + step] = values.max(axis=-1)
    return out.reshape(shape)


def _span(X, Y, Z, a) -> tuple | None:
    """For a 2-D scan of ``a`` rows and one column whose X, Y and Z all run
    along the rows: ``(lo, s)``, the first and the count of the row numbers
    from the least to the greatest, when a table over their s * s ordered
    pairs holds at most ``_ROW_BUDGET`` entries and fewer than the scan's
    rows; else None.  The pair (i, j) is entry ``(i - lo) * s + j - lo``."""
    if a < 2 or not X.shape == Y.shape == Z.shape == (a, 1):
        return None
    lo = min(X.min(), Y.min(), Z.min())
    s = max(X.max(), Y.max(), Z.max()) + 1 - lo
    return (int(lo), int(s)) if s * s <= min(_ROW_BUDGET, a - 1) else None


def _span_pairs(P, lo: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``P`` of each ordered pair of a ``_span`` table, first
    and second, in the order of its entries."""
    r = np.arange(lo, lo + s)
    return np.take(P, np.repeat(r, s), axis=0), np.take(P, np.tile(r, s), axis=0)


def _inner_table(kernel, P, X, Y, Z, a, b) -> tuple | None:
    """For a kernel that declares ``factors = (inner, outer)``, with
    ``kernel(X, Y, Z) == outer(X, inner(Y, Z))`` bit for bit, on
    ``_d_max``'s 2-D scan of ``a`` rows and ``b`` columns: ``(outer, T,
    inverse)``, where ``inner`` of the rows of Y and Z is ``T``, or
    ``T[:, inverse]`` with its first axis moved last; None where the scan
    keeps the kernel itself.  Three layouts:

    * Y and Z fixed along the rows: T is ``inner`` of them.
    * Z fixed along the rows and Y one column that repeats there: T holds
      one row per distinct Y, told apart by row numbers, and ``inverse``
      picks it for each row of the scan.
    * X, Y and Z one column each, running along the rows: T holds every
      ordered pair of the rows they span (``_span``), and ``inverse`` is
      the entry of each row's (y, z).

    The table pays only with fewer entries than scan rows, and it holds at
    most ``_ROW_BUDGET`` rows.
    """
    inner, outer = getattr(kernel, "factors", (None, None))
    if inner is None:
        return None
    if len(Z) != 1:
        span = _span(X, Y, Z, a)
        if span is None:
            return None
        lo, s = span
        # kept as one contiguous plane per coordinate, which a gather copies
        # row by row and ``outer`` reads without a stride
        return outer, np.ascontiguousarray(inner(*_span_pairs(P, lo, s)).T), (Y - lo) * s + Z - lo
    PZ = np.take(P, Z, axis=0)
    if len(Y) == 1:
        return outer, inner(np.take(P, Y, axis=0), PZ), None
    if Y.shape[1] != 1:
        return None
    _, first, inverse = np.unique(Y[:, 0], return_index=True, return_inverse=True)
    if len(first) == len(Y) or len(first) * b > _ROW_BUDGET:
        return None
    # one plane per coordinate, as above
    return outer, np.ascontiguousarray(np.moveaxis(inner(np.take(P, Y[first], axis=0), PZ),
                                                   -1, 0)), inverse


def _gram_max(split, P, X, Y, Z, a, b) -> np.ndarray | None:
    """``_d_max`` by a kernel's Gram split ``(edges, gram, finish)``, on its
    2-D scan of ``a`` rows and ``b`` columns, neither of them 0: d(x, y, z)
    is ``finish(gram(u, uu, v, vv))`` for the edges u = y - x and v = z - x
    with their squared lengths, bit for bit.  ``finish`` is non-decreasing
    and keeps a NaN, so the max of d over a row is ``finish`` of the max of
    g, which is taken first.

    Three layouts, and None for any other:

    * x and y along the first axis, z along the last (a phi scan).  The
      rows are grouped by x, so u is one edge per row and v the edges from
      that x to every z, repeated over its rows.  Where no x repeats, as in
      a single pair or the numbered pairs of ``eval_phi``'s point form,
      nothing is shared and the scan keeps the kernel, which is faster
      there.
    * x along the first axis, y and z along the last (``classify``'s
      candidate scan).  One table holds the edges to every distinct y and
      z (down) from each x (across).  The scan's columns are grouped by y,
      so u is one row of the table and v a block of its rows: a slice
      where the z of a group run in steps of one, as the pairs of a whole
      tail do.
    * x, y and z one column each, running along the rows (``classify``'s
      triple modulus).  One table holds the edges of every ordered pair of
      the rows they span (``_span``), and u and v are gathered from it.
    """
    edges, gram, finish = split
    out = np.empty(a)
    if X.shape[1] == Y.shape[1] == 1 and Z.shape[0] == 1:
        x, y = np.broadcast_to(X[:, 0], a), np.broadcast_to(Y[:, 0], a)
        order = np.argsort(x, kind="stable")
        x = x[order]
        if (x[1:] != x[:-1]).all():
            return None
        eu, nu = edges(P[x], P[y[order]])
        PZ = P[np.broadcast_to(Z[0], b)]
        step = max(1, _ROW_BUDGET // b)
        for s in range(0, a, step):
            # z down, rows across; the rows of one x are contiguous
            xs, counts = np.unique(x[s:s + step], return_counts=True)
            ev, nv = edges(P[xs], PZ[:, None])
            g = gram([u[s:s + step] for u in eu], nu[s:s + step],
                     [np.repeat(v, counts, axis=1) for v in ev], np.repeat(nv, counts, axis=1))
            out[order[s:s + step]] = finish(g.max(axis=0))
        return out
    if X.shape[1] == 1 and Y.shape[0] == Z.shape[0] == 1:
        targets, at = np.unique(np.concatenate([np.broadcast_to(Y[0], b),
                                                np.broadcast_to(Z[0], b)]), return_inverse=True)
        order = np.lexsort((at[b:], at[:b]))
        y, z = at[:b][order], at[b:][order]
        starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]]).tolist()
        ends = starts[1:] + [b]
        breaks = np.cumsum(np.r_[1, np.diff(z)] != 1)
        groups = [(y[lo], slice(z[lo], z[lo] + hi - lo) if breaks[hi - 1] == breaks[lo]
                   else z[lo:hi]) for lo, hi in zip(starts, ends)]
        x = np.broadcast_to(X[:, 0], a)
        step = max(1, _ROW_BUDGET // max(len(targets), max(np.subtract(ends, starts))))
        for s in range(0, a, step):
            e, n = edges(P[x[s:s + step]], P[targets][:, None])
            G = np.full(n.shape[1], -np.inf)
            for i, c in groups:
                g = gram([u[i] for u in e], n[i], [v[c] for v in e], n[c])
                np.maximum(G, g.max(axis=0), out=G)
            out[s:s + step] = finish(G)
        return out
    span = _span(X, Y, Z, a)
    if span is not None:
        lo, s = span
        e, n = edges(*_span_pairs(P, lo, s))
        xy, xz = ((X[:, 0] - lo) * s + A[:, 0] - lo for A in (Y, Z))
        for t in range(0, a, _ROW_BUDGET):
            i, j = xy[t:t + _ROW_BUDGET], xz[t:t + _ROW_BUDGET]
            out[t:t + _ROW_BUDGET] = finish(gram([u[i] for u in e], n[i], [v[j] for v in e], n[j]))
        return out
    return None


# Sampled pairs, and their seed, behind ``witness_refinement_gap``.
_GAP_PAIRS = 200
_GAP_SEED = 0


def witness_refinement_gap(space: TwoMetricSpace, witnesses: WitnessSet) -> float:
    """Empirical sup-truncation error: max increase of phi when the witness
    set is doubled.  Zero on finite spaces audited with all points."""
    X, Y = _stacks(space.sample, _GAP_SEED, _GAP_PAIRS, 2)
    refined = witnesses.refined(space)
    base = eval_phi(space, X, Y, witnesses)
    better = eval_phi(space, X, Y, refined)
    return float(np.maximum(better - base, 0.0).max())


# ---------------------------------------------------------------------------
# finite table-backed spaces
# ---------------------------------------------------------------------------

def _triples(n: int) -> np.ndarray:
    """Rows (i, j, k) with i < j < k < n, in lexicographic order."""
    J, K = np.triu_indices(n, 1)
    # the pairs (j, k) with j > i are the last C(n - 1 - i, 2) of the
    # lexicographic pairs (J, K); the rows with first index i take them in
    # turn, so row r of that block reads pair r + len(J) - cumsum(counts)[i]
    counts = (n - 1 - np.arange(n)) * (n - 2 - np.arange(n)) // 2
    pick = np.arange(counts.sum()) + np.repeat(len(J) - np.cumsum(counts), counts)
    return np.column_stack((np.repeat(np.arange(n), counts), J[pick], K[pick]))


# One entry of the table file as ``json.dump(..., indent=2)`` lays it out,
# and the number of entries formatted per write in ``save``.
_ENTRY = '    {\n      "i": %d,\n      "j": %d,\n      "k": %d,\n      "d": %s\n    }'
_SAVE_BLOCK = 1024


def _entry_ok(entry) -> bool:
    """Whether a parsed table file entry is an object with int ``i``,
    ``j``, ``k`` and an int or float ``d``."""
    return (type(entry) is dict and all(type(entry.get(c)) is int for c in "ijk")
            and type(entry.get("d")) in (int, float))


class _Table:
    """The write side of a ``FiniteTwoMetricSpace``.

    ``table[key] = value`` stores ``float(value)`` at the sorted triple of
    a key in any index order, checked as the constructor checks keys;
    ``operator.index`` converts each index.  Iteration yields the stored
    sorted triples in lexicographic order, from a snapshot taken when it
    starts, so the loop may write entries.  Values are read through
    ``FiniteTwoMetricSpace.dense``.
    """

    def __init__(self, space: "FiniteTwoMetricSpace"):
        self.space = space

    def __setitem__(self, key, value) -> None:
        s = self.space
        try:
            i, j, k = sorted(map(operator.index, key))
        except ValueError:
            raise ValueError(f"table keys must be index triples, got {key}") from None
        if i < 0 or k >= s.n:
            raise ValueError(f"triple {key} out of range for n={s.n}")
        if i == j or j == k:
            raise ValueError(f"table stores distinct triples only, got {key}")
        value = float(value)
        if not s._dense.flags.writeable:     # handed out by dense(): copy on write
            s._dense, s._present = s._dense.copy(), s._present.copy()
        for order in itertools.permutations((i, j, k)):
            s._dense[order] = value
        s._present[i, j, k] = True

    def __iter__(self):
        return zip(*(a.tolist() for a in np.nonzero(self.space._present)))


class FiniteTwoMetricSpace:
    """A 2-metric on {0, ..., n-1} stored as a table over unordered triples.

    Triples with a repeated index are 0, so permutation symmetry and the
    degeneracy axiom hold by construction.  Entries live in [0, 1] for valid
    spaces, but out-of-range values are representable so the audit can find
    planted defects.

    The store is the symmetric (n, n, n) array that ``dense()`` returns and
    a mask of the sorted triples that hold an entry.  ``table`` takes writes
    and iterates over the stored triples (see ``_Table``).  A shallow copy
    (``copy.copy``) shares both arrays, so it is for reading only.
    """

    def __init__(self, n: int, entries: dict[tuple[int, int, int], float] | None = None):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"point count must be an int, got {n!r}")
        _at_least(n, 1, "point count")
        self.n = int(n)
        self._dense = np.zeros((self.n,) * 3)
        self._present = np.zeros((self.n,) * 3, dtype=bool)
        entries = entries or {}
        keys = list(entries)
        # np.fromiter stores each index as operator.index gives it; an int
        # beyond intp is out of range anyway, and clamping it keeps the
        # first bad key
        try:
            K = np.fromiter(map(operator.index, itertools.chain.from_iterable(keys)), np.intp)
        except OverflowError:
            big = np.iinfo(np.intp).max
            K = np.array([min(max(operator.index(v), -1), big)
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
        self._store(K, np.fromiter(map(float, entries.values()), float, len(keys)))

    def _store(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` at the sorted ``rows`` of a new table; of two
        rows naming one triple the later one wins, which numpy's fancy
        assignment alone does not promise."""
        flat = np.ravel_multi_index(rows[::-1].T, self._dense.shape)
        # rows in strictly increasing order, as ``_triples`` and a saved
        # file give them, name each triple once
        if not (flat[1:] < flat[:-1]).all():
            last = len(rows) - 1 - np.unique(flat, return_index=True)[1]
            rows, values = rows[last], values[last]
        rows = rows.T
        for order in itertools.permutations(rows):
            self._dense[order] = values
        self._present[tuple(rows)] = True

    @property
    def table(self) -> _Table:
        return _Table(self)

    def d(self, i, j, k) -> float:
        key = (int(i), int(j), int(k))
        if not all(0 <= v < self.n for v in key):
            raise ValueError(f"triple {key} out of range for n={self.n}")
        return float(self._dense[key])

    def dense(self) -> np.ndarray:
        """The table as a symmetric (n, n, n) array: each triple's value
        under all six orders of its indices, 0 on triples with a repeated
        index or no entry.  Read-only: the next write to ``table`` copies
        it first, so an array already returned never changes."""
        self._dense.flags.writeable = False
        return self._dense

    def as_space(self) -> TwoMetricSpace:
        """The table as a space on the indices, evaluated on its dense array.

        The space reflects the table as it was when ``as_space()`` was
        called; write every entry first.
        """
        T = self.dense()

        @broadcasting
        def d_batch(X, Y, Z):
            return T[X, Y, Z]

        return TwoMetricSpace(
            name="finite",
            d_batch=d_batch,
            sample=lambda rng, m: rng.integers(0, self.n, size=m),
            size=self.n,
        )

    @staticmethod
    def from_points(points, metric: Callable[[Any, Any, Any], float]) -> "FiniteTwoMetricSpace":
        """Tabulate a coordinate metric on an explicit point list.

        A metric marked ``broadcasting`` is called once on the stacked rows
        of every distinct triple; any other metric once per triple.
        """
        P = np.asarray(points, dtype=float)
        space = FiniteTwoMetricSpace(len(P))
        rows = _triples(space.n)
        space._store(rows, apply_rows(metric, *(P[r] for r in rows.T)))
        return space

    # -- JSON table format: {"n": int, "entries": [{"i","j","k","d"}, ...]} --

    @staticmethod
    def from_json(payload) -> "FiniteTwoMetricSpace":
        """The table of a parsed table file: an object with an int ``n`` and
        an optional list ``entries`` of objects with int ``i``, ``j``, ``k``
        and an int or float ``d`` (a bool is neither).  Anything else is a
        ``ValueError`` naming the first bad entry.

        The types are checked over whole lists, by ``map`` and ``set``,
        which keeps the check a small part of a load.
        """
        entries = payload.get("entries", []) if type(payload) is dict else None
        if type(entries) is not list or type(payload.get("n")) is not int:
            raise ValueError('a table file holds an object with an int "n" and a list "entries"')
        try:
            keys = list(map(operator.itemgetter("i", "j", "k"), entries))
            values = list(map(operator.itemgetter("d"), entries))
            ok = (set(map(type, itertools.chain.from_iterable(keys))) <= {int}
                  and set(map(type, values)) <= {int, float})
        except (KeyError, TypeError):  # an entry without a field, or not an object
            ok = False
        if not ok:
            number = next(n for n, entry in enumerate(entries) if not _entry_ok(entry))
            raise ValueError(f"table entry {number} needs integer i, j, k and a number d, "
                             f"got {json.dumps(entries[number])}")
        return FiniteTwoMetricSpace(payload["n"], dict(zip(keys, values)))

    def save(self, path) -> None:
        """Write the table file, ``{"n": n, "entries": [{"i", "j", "k",
        "d"}, ...]}`` with the stored triples in lexicographic order, in the
        bytes of ``json.dump(..., indent=2)`` followed by a newline.

        That encoder runs in pure Python, so the entries are streamed
        instead, ``_SAVE_BLOCK`` per write: json's C encoder turns a
        block's values into tokens (``NaN`` and ``Infinity`` included),
        which go into the fixed entry layout.
        """
        rows, values = list(self.table), self._dense[self._present].tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{\n  "n": %d,\n  "entries": [' % self.n)
            for s in range(0, len(rows), _SAVE_BLOCK):
                block = rows[s:s + _SAVE_BLOCK]
                tokens = json.dumps(values[s:s + _SAVE_BLOCK])[1:-1].split(", ")
                fields = [x for (i, j, k), d in zip(block, tokens) for x in (i, j, k, d)]
                fh.write((",\n" if s else "\n")
                         + ",\n".join([_ENTRY] * len(block)) % tuple(fields))
            fh.write("\n  ]\n}\n" if rows else "]\n}\n")

    @staticmethod
    def load(path) -> "FiniteTwoMetricSpace":
        with open(path, "r", encoding="utf-8") as fh:
            return FiniteTwoMetricSpace.from_json(json.load(fh))


def demo_five_point_space() -> FiniteTwoMetricSpace:
    """Five points {a,b,c,p,q} = {0..4} with one three-point line {a,b,c}
    and d = 1 on every other distinct triple.  Has exactly eight lines."""
    return FiniteTwoMetricSpace(5, {t: 0.0 if t == (0, 1, 2) else 1.0
                                    for t in itertools.combinations(range(5), 3)})


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
        return _strict({
            "axiom": self.axiom,
            "max_violation": float(self.max_violation),
            "witness": [point_json(p) for p in self.witness] if self.witness else [],
            "samples": int(self.samples),
        })


@dataclass
class AxiomReport:
    seed: int
    tolerance: float
    records: list[AxiomRecord]

    def failing(self, non_fatal: Sequence[str] = ()) -> list[str]:
        return [
            r.axiom
            for r in self.records
            if not r.max_violation <= self.tolerance and r.axiom not in non_fatal
        ]

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
    from the given seed.  On a space with a ``size`` (a table's
    ``as_space()``), B and the positivity half of Z are decided exactly
    instead, over each of the C(size, 3) distinct index triples, and their
    ``samples`` count those triples.

    The phi checks draw up to 5 * ``triples`` witness pairs, and each
    distinct unordered pair is evaluated once, so their phi scan holds at
    most min(5 * triples, |W| (|W| + 1) / 2) * |W| kernel rows.
    """
    _at_least(triples, 1, "sample counts")
    rng = np.random.default_rng(seed)
    records: list[AxiomRecord] = []

    # Sym: spread of d over argument permutations; a space with a size is a
    # table's, symmetric by construction.
    T = _stacks(space.sample, rng, triples, 3)
    d0 = _d_many(space, *T)
    if space.size is not None:
        records.append(AxiomRecord("Sym", 0.0, None, 0))
    else:
        spread = np.zeros(triples)
        perms = [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        for p in perms:
            dp = _d_many(space, T[p[0]], T[p[1]], T[p[2]])
            spread = np.maximum(spread, np.abs(dp - d0))
        records.append(_record_from("Sym", spread, T, triples))

    # Tetr on quadruples.
    Q = _stacks(space.sample, rng, triples, 4)
    lhs = _d_many(space, Q[0], Q[1], Q[2])
    rhs = (_d_many(space, Q[0], Q[1], Q[3])
           + _d_many(space, Q[1], Q[2], Q[3])
           + _d_many(space, Q[0], Q[2], Q[3]))
    records.append(_record_from("Tetr", lhs - rhs, Q, triples))

    # B and the positivity half of Z read the sampled triples, or every
    # distinct triple of a space with a size.
    if space.size is None:
        values, tuples = d0, T
    else:
        tuples = tuple(_triples(space.size).T)
        values = _d_many(space, *tuples)

    # Z: repeated-argument degeneracy, plus positivity.
    P = _stacks(space.sample, rng, triples, 2)
    z_viol = np.abs(_d_many(space, P[0], P[1], P[1]))
    pos_viol = -values
    # NaN in either part must reach the record: NaN > x is always False
    pos_max = pos_viol.max(initial=-np.inf)
    if np.isnan(pos_max) or pos_max > z_viol.max():
        records.append(_record_from("Z", pos_viol, tuples, len(values)))
    else:
        records.append(_record_from("Z", z_viol, (P[0], P[1], P[1]), triples))

    # B: global bound 1.
    records.append(_record_from("B", values - 1.0, tuples, len(values)))

    # Trans on quintuples: d(a,b,x) * d(c,x,y) <= d(a,x,y) + d(b,x,y).
    V = _stacks(space.sample, rng, triples, 5)
    a, b, c, x, y = V
    lhs = _d_many(space, a, b, x) * _d_many(space, c, x, y)
    rhs = _d_many(space, a, x, y) + _d_many(space, b, x, y)
    records.append(_record_from("Trans", lhs - rhs, V, triples))

    # phi-based checks, sampled from the witness set: N on pairs of distinct
    # classes (after canonicalization) from seed + 1, AT and CostTriangle on
    # triples, then DphiLipschitz on quadruples, from seed + 2.  phi is
    # exactly symmetric and computed row by row, so each distinct unordered
    # pair is evaluated once, in one call, and scattered back in draw order.
    m, Wpts = len(witnesses), np.asarray(witnesses.points)
    widx = np.random.default_rng(seed + 1).integers(0, m, size=(triples, 2))
    canon = space.canon or (lambda p: p)
    classes: dict = {}
    wclass = np.array([classes.setdefault(point_key(canon(p)), len(classes)) for p in Wpts])
    nidx = widx[wclass[widx[:, 0]] != wclass[widx[:, 1]]]
    prng = np.random.default_rng(seed + 2)
    tidx = prng.integers(0, m, size=(triples, 3))
    qidx = prng.integers(0, m, size=(triples, 4))
    # the pairs (x, y), (x, z), (z, y) of each triple, (x, y) of each quadruple
    I = np.concatenate([nidx[:, 0], tidx[:, 0], tidx[:, 0], tidx[:, 2], qidx[:, 2]])
    J = np.concatenate([nidx[:, 1], tidx[:, 1], tidx[:, 2], tidx[:, 1], qidx[:, 3]])
    keys, inverse = np.unique(np.minimum(I, J) * m + np.maximum(I, J), return_inverse=True)
    phi = eval_phi(space, keys // m, keys % m, witnesses, Wpts)[inverse]
    phi_n, phi_xy, phi_xz, phi_zy, phi_q = np.split(phi, len(nidx) + np.arange(4) * triples)

    records.append(_record_from("N", np.where(phi_n > tolerance, 0.0, 1.0),
                                (Wpts[nidx[:, 0]], Wpts[nidx[:, 1]]), len(nidx)))

    PX, PY, PZ = Wpts[tidx[:, 0]], Wpts[tidx[:, 1]], Wpts[tidx[:, 2]]
    d_xyz = _d_many(space, PX, PY, PZ)
    records.append(_record_from("AT", phi_xy - phi_xz - 2.0 * phi_zy,
                                (PX, PY, PZ), triples))
    records.append(_record_from("CostTriangle", phi_xy - phi_xz - phi_zy - d_xyz,
                                (PX, PY, PZ), triples))

    DA, DB = Wpts[qidx[:, 0]], Wpts[qidx[:, 1]]
    DX, DY = Wpts[qidx[:, 2]], Wpts[qidx[:, 3]]
    lhs = np.abs(_d_many(space, DA, DB, DX) - _d_many(space, DA, DB, DY))
    records.append(_record_from("DphiLipschitz", lhs - 2.0 * phi_q, (DA, DB, DX, DY), triples))

    order = {name: i for i, name in enumerate(AXIOM_ORDER)}
    records.sort(key=lambda r: order[r.axiom])
    return AxiomReport(seed=seed, tolerance=tolerance, records=records)


# ---------------------------------------------------------------------------
# nondegeneracy quotient
# ---------------------------------------------------------------------------

# Pair distances at or below this count as zero in ``quotient_by_zero_phi``.
_ZERO_PHI = 1e-12


def quotient_by_zero_phi(space: FiniteTwoMetricSpace) -> FiniteTwoMetricSpace:
    """Merge points at pair distance zero; the result is strictly reflexive.

    Values are taken from class representatives, which is well defined
    because d moves by at most twice the pair distance in each argument.
    Identity when no pair has phi <= ``_ZERO_PHI``.
    """
    T = space.dense()
    parent = list(range(space.n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # a NaN pair distance is not <= _ZERO_PHI, so a NaN entry never merges
    I, J = np.nonzero(np.triu(T.max(axis=2) <= _ZERO_PHI, k=1))
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
    out = FiniteTwoMetricSpace(len(roots))
    # the last value of a repeated class triple wins, as in the loop over
    # triples in lexicographic order
    out._store(classes[distinct], T[tuple(rows[distinct].T)])
    if np.triu(out.dense().max(axis=2) <= _ZERO_PHI, k=1).any():
        raise RuntimeError("quotient failed to become strictly reflexive")
    return out
