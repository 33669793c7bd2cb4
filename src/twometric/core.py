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
phi(x, y) = sup_z d(x, y, z), taken from the space's closed form where it
declares one, and otherwise approximated as a max over an explicit finite
witness set (exact on finite spaces when the witness set is the whole point
set).  Derived inequalities audited alongside the axioms:

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

def point_json(p):
    if isinstance(p, (int, np.integer)):
        return int(p)
    if isinstance(p, (float, np.floating)):
        return float(p)
    return [float(c) for c in np.asarray(p).ravel()]


def points_json(points) -> list:
    """``point_json`` of each point of a sequence: by one ``tolist`` when
    the points stack into index points (ints) or coordinate vectors
    (written as floats), point by point when they do not."""
    try:
        P = np.asarray(points)
    except ValueError:  # points of different shapes do not stack
        return [point_json(p) for p in points]
    if P.ndim == 1 and P.dtype.kind in "iu":
        return P.tolist()
    if P.ndim > 1 and P.dtype.kind in "iuf":
        return P.astype(float).reshape(len(P), math.prod(P.shape[1:])).tolist()
    return [point_json(p) for p in points]


def _strict(record: dict) -> dict:
    """The one rule for non-finite numbers in artifacts: each float value
    of ``record`` that is not finite is written as null, and the record
    then gets ``"non_finite": true``.  A finite record comes back as it
    was."""
    bad = [k for k, v in record.items() if isinstance(v, float) and not np.isfinite(v)]
    return {**record, **dict.fromkeys(bad), **({"non_finite": True} if bad else {})}


_NUMBERS = {float, int}
_SCALARS = {None: "null", True: "true", False: "false"}


def _json_text(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``,
    indented for ``level``, with the same bytes or the same exception.

    json's indenting encoder is pure Python, one call per value.  Here a
    list of floats, or of rows of floats and ints, is joined from
    ``float.__repr__`` and ``int.__repr__`` at C level, the rows by one
    ``%`` template of all of them, put together from one template per row
    length; dicts with str keys, lists and tuples recurse.  What else there
    is (bools, NaN and inf, numpy scalars, other keys) goes to json itself,
    re-indented: a JSON string holds no raw newline.
    """
    pad = "\n" + "  " * (level + 1)
    kind = type(obj)
    if kind is str:
        return json.encoder.encode_basestring_ascii(obj)
    if kind is dict and obj and set(map(type, obj)) == {str}:
        items = [json.encoder.encode_basestring_ascii(k) + ": " + _json_text(obj[k], level + 1)
                 for k in sorted(obj)]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if (kind is list or kind is tuple) and obj:
        types = set(map(type, obj))
        if types <= _NUMBERS:
            text = ("," + pad).join(map(repr, obj))
        elif types <= {list, tuple} \
                and set(map(type, itertools.chain.from_iterable(obj))) <= _NUMBERS:
            inner = "\n" + "  " * (level + 2)
            lengths = list(map(len, obj))
            rows = {k: "[" + inner + ("," + inner).join(["%r"] * k) + pad + "]" if k else "[]"
                    for k in set(lengths)}
            text = ("," + pad).join(map(rows.__getitem__, lengths)) \
                % tuple(itertools.chain.from_iterable(obj))
        else:
            return "[" + pad + ("," + pad).join([_json_text(v, level + 1) for v in obj]) \
                + pad[:-2] + "]"
        # only "nan" and "inf" put an n in a number's repr; json raises on them
        if "n" not in text:
            return "[" + pad + text + pad[:-2] + "]"
    if kind is int or kind is float and math.isfinite(obj):
        return repr(obj)
    if kind is bool or obj is None:
        return _SCALARS[obj]
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False).replace("\n", pad[:-2])


def _write_json(path: Path, payload: dict) -> None:
    """Write an artifact: sorted keys, two-space indents, a final newline;
    a non-finite float raises rather than being written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")


def broadcasting(kernel):
    """Declare that a batch kernel, or a map of points, accepts inputs
    broadcasting over their leading axes, with each point on the last axis,
    and computes every output entry from its own rows only.

    The mark lives on the function object, not on the space: a space copied
    with ``dataclasses.replace(space, d_batch=...)`` carries a replaced
    kernel without it, or a wrapper that does not copy it (``functools.wraps``
    does), which then gets materialised rows instead.
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
    quotient constructions); it must be idempotent.  One marked with
    ``broadcasting`` maps stacks of points, and ``audit`` calls it once on
    the witnesses.  ``line_points``, when
    present, samples points of the line through two given generators.
    ``phi``, when given, is the exact pair distance sup_z d(x, y, z) over
    the whole domain, of stacked coordinate points (n, dim) that broadcast,
    exactly symmetric in x and y; ``eval_phi`` then reads it instead of a
    witness scan.  A copy made with ``dataclasses.replace`` keeps it, so a
    copy that replaces ``d_batch`` with a different metric must set ``phi``
    too, or ``phi=None``.
    """

    name: str
    d_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    sample: Callable[[np.random.Generator, int], Any]
    size: int | None = None
    d: Callable[[Any, Any, Any], float] | None = None
    canon: Callable[[Any], Any] | None = None
    contains: Callable[[Any], bool] | None = None
    line_points: Callable[[Any, Any, int], Any] | None = None
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class WitnessSet:
    """Finite stand-in for the sup index set of the derived pair distance."""

    points: Any
    seed: int = 0   # the sampled points' seed; ``witness_refinement_gap`` draws from seed + 1

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


@np.errstate(invalid="ignore", over="ignore")
def eval_phi(space: TwoMetricSpace, x, y, witnesses: WitnessSet, points=None):
    """Pair distance max_w d(x, y, w) over the witness set, or the space's
    declared ``phi`` for coordinate points, which then ignores the
    witnesses.

    x and y are points or stacks of points that broadcast against each
    other over their leading axes, points as the witnesses hold them: an
    index point is one entry of an integer array, and a coordinate point
    fills the last axis of a float array.  With ``points``, x and y are
    integer arrays of row numbers of ``points`` instead, and the pairs are
    those of ``points[x]`` and ``points[y]``; without, the x's and then
    the y's are numbered so.  One pair gives a float, anything else an
    array of the broadcast leading shape.  A declared ``phi`` is called on
    blocks of ``_ROW_BUDGET`` pairs.  A witness scan puts each pair in
    lexicographic order first, so the result is exactly symmetric in x and
    y, as a declared ``phi`` is.  An inf or overflowing coordinate gives
    its NaN or inf without a numpy warning.
    """
    W = np.asarray(witnesses.points)
    if points is None:
        X, Y = np.asarray(x), np.asarray(y)
        lead = [A.shape[:A.ndim + 1 - W.ndim] for A in (X, Y)]
        points = np.concatenate([A.reshape((-1,) + W.shape[1:]) for A in (X, Y)])
        n = math.prod(lead[0])
        x, y = np.arange(n).reshape(lead[0]), np.arange(n, len(points)).reshape(lead[1])
    if space.phi is not None and W.ndim > 1:
        P, shape = np.asarray(points), np.broadcast_shapes(np.shape(x), np.shape(y))
        X, Y = (np.broadcast_to(A, shape).ravel() for A in (x, y))
        out = np.empty(len(X))
        for s in range(0, len(X), _ROW_BUDGET):
            out[s:s + _ROW_BUDGET] = space.phi(*(np.take(P, A[s:s + _ROW_BUDGET], axis=0)
                                                 for A in (X, Y)))
        return float(out[0]) if not shape else out.reshape(shape)
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


# Values per metric call in ``_d_max``, rows per block of its Gram bounds,
# pairs per call of a declared phi, and, through ``spaces._SANDWICH_ROWS``,
# rows per block of the convexity sandwich and of certify's conclusion.  A
# kernel call holds row-sized buffers besides its inputs, by
# ``tracemalloc``: 6 in the det kernel and 2 dim + 5 in the area kernel, so
# 0.4 MB and 0.7 MB in 3-d at 2**13 values, where a 2-core Xeon holds 2 MB
# of L2 per core
# (``/sys/devices/system/cpu/cpu0/cache/index2/size``).  By the layer sweep
# of ``BENCH_43.json``, kernels on stacked rows cost up to 1.5x per value
# past 2**14, and in a fresh process glibc's malloc faults in a buffer of
# 128 KiB or more afresh: ``detect_outcome`` on linear maps faulted 503
# pages per call at 2**14, 988 at 2**15.  Below 2**14 the wide scans and
# the sandwich pay more per call, but end to end 2**13 read no worse than
# 2**14 on any timing metric of the benchmark at both seeds, on a fresh
# ``demo-equator`` or on the peak RSS of ``cert1m`` and ``a5big``
# (``BENCH_53.json``), and 2**15 read worse.  The rows ``row-budget-2^12``
# and ``row-budget-2^14`` of ``tools/ablations.json`` measure both
# neighbours, and the row ``declared-phi-blocks`` the declared phi's
# blocks, which ``a5w400`` calls on 57,121 pairs (``BENCH_52.json``).
_ROW_BUDGET = 1 << 13


def _gram_bound(finish, n) -> np.ndarray:
    """``finish(N * N)`` for each column of the squared edge lengths n,
    with N the max of the column, NaN kept.  For the area kernel's Gram
    split it is at least the kernel's value on every two edges of the
    column, and not finite where one may be NaN: that value is ``finish``
    of g = fl(fl(uu vv) - fl(uv uv)) <= fl(uu vv) <= fl(N N), and
    ``finish`` is non-decreasing."""
    N = n.max(axis=0)
    return finish(np.multiply(N, N, out=N))


def _settle(classes, bound, cuts, end, head) -> tuple[np.ndarray, np.ndarray]:
    """The rule of ``_d_max``'s ``classes = (lo, hi)`` for rows with a
    kernel ``bound`` and a cut each (a column, with ``end`` past the
    last): which rows are scanned, all from column 0, and a value the
    first output of each other row takes.  A row whose bound is finite
    and at most lo is not scanned and takes the bound; its callers
    leave its columns from its cut on, if any, to ``_held``.  A row cut at
    ``end`` whose bound is finite, so that none of its values is NaN, is not
    scanned when ``head(rows)``, the max of a first block of those rows,
    passes hi, and takes that max.  Every other row is scanned."""
    lo, hi = classes
    scan, floor = np.ones(len(bound), dtype=bool), np.full(len(bound), -np.inf)
    low = (bound <= lo) & (bound < np.inf)
    scan[low], floor[low] = False, bound[low]
    unheld = np.flatnonzero(~low & (cuts >= end) & (bound < np.inf))
    if len(unheld):
        top = head(unheld)
        scan[unheld[top > hi]], floor[unheld[top > hi]] = False, top[top > hi]
    return scan, floor


def _split_max(values, cuts) -> np.ndarray:
    """The max of each row of the 2-D ``values`` over its columns before its
    cut and over those from it on, as two columns, NaN kept.  A cut at 0
    gives the row's first value as its first max, and a cut past the last
    column moves onto it."""
    row = np.arange(len(values)) * values.shape[1]
    flat = np.stack([row, row + np.minimum(cuts, values.shape[1] - 1)], axis=1)
    return np.maximum.reduceat(values.ravel(), flat.ravel()).reshape(-1, 2)


def _held(bound, cuts, end, top, values) -> np.ndarray:
    """The second output of ``_d_max``'s ``classes`` for rows not scanned,
    each with a finite ``bound`` at least every value from its cut on, and
    a cut before ``end``: the max of those values, or the bound.  The rows
    are scanned in descending order of their bound, in blocks of about
    ``_ROW_BUDGET`` values, each from the least cut c among its rows by one
    call of ``values(rows, c)``, and the scan stops once the next bound is
    at or below the running max, seeded by ``top``, the max of every other
    row.  A row not scanned reports its bound, so the max over all rows
    keeps its value, and its bits, since no value or bound of the det or
    Gram layouts is -0.0: det values are absolute values, and g = fl(uu vv)
    - fl(uv uv) is never -0.0."""
    order = np.argsort(-bound, kind="stable")
    held, i = bound.copy(), 0
    while i < len(order) and bound[order[i]] > top:
        least = np.minimum.accumulate(cuts[order[i:i + _ROW_BUDGET]])
        size = np.arange(1, len(least) + 1) * (end - least)
        rows = order[i:i + max(1, np.searchsorted(size, _ROW_BUDGET, side="right"))]
        c = least[len(rows) - 1]
        held[rows] = _split_max(values(rows, c), cuts[rows] - c)[:, 1]
        top, i = np.maximum(top, held[rows].max()), i + len(rows)
    return held


def _gram_bounds(split, P, x, y, z, cuts) -> np.ndarray:
    """Two bounds of d(x, P[y], P[z]) over the columns of each row x, NaN
    kept, for a kernel's Gram split ``(edges, finish)``: over every
    column, and over the columns from the row's cut on.  Each is
    ``_gram_bound`` over the squared lengths of the edges from x to the
    rows of P that those columns read.  The second counts a row of P where
    the last column that reads it, by ``np.maximum.at`` over the column
    numbers, is at or past the cut.  A row whose edges to all of them
    are one edge, value for value, with fl(n n) finite for its squared
    length n, is bounded by ``finish(0)``, its every value: uv is then the
    same ``_dot`` as uu, so every g is fl(n n) - fl(n n) = +0.  A NaN edge
    fails the equality and an inf one the finiteness."""
    edges, finish = split
    last = np.full(len(P), -1)
    np.maximum.at(last, np.concatenate([y, z]), np.tile(np.arange(len(y)), 2))
    targets = np.flatnonzero(last >= 0)
    last, T = last[targets, None], P[targets][:, None]
    out = np.empty((2, len(x)))
    step = max(1, _ROW_BUDGET // len(targets))
    for s in range(0, len(x), step):
        rows = slice(s, s + step)
        e, n = edges(x[rows], T)
        out[0, rows] = _gram_bound(finish, n)
        out[1, rows] = _gram_bound(finish, np.where(last >= cuts[rows], n, -np.inf))
        one = (np.logical_and.reduce([(u == u[0]).all(axis=0) for u in e])
               & (n[0] * n[0] < np.inf))
        out[:, rows][:, one] = finish(np.zeros(1))
    return out


@np.errstate(invalid="ignore", over="ignore")
def _d_max(space: TwoMetricSpace, X, Y, Z, points, cuts=None, classes=None) -> np.ndarray:
    """Max of d(x, y, z) over the last axis of a scan of the rows of
    ``points``: X, Y and Z are integer arrays of row numbers, at most 2-D,
    broadcast against each other, and the scan is that of ``points[X]``,
    ``points[Y]`` and ``points[Z]``.  A row of ``points`` is a coordinate
    point, or an index point where ``points`` is 1-D.

    ``cuts`` holds a column for each row of a 2-D scan, and the result then
    has a last axis of two: the max of the row, and the max of its columns
    from the cut on, -inf where the cut is past the last column.  Both keep
    a NaN.

    ``classes = (lo, hi)``, given with ``cuts``, asks for each row's max
    only up to its class: at most lo, in (lo, hi], above hi, or NaN, and
    for the max over rows of the second output.  The first output of a row
    is then exact or another value of the same class.  The second is NaN
    where the exact one is, else at least the exact one and at most the
    max over rows, which keeps its bits.  On a scan with x along the first
    axis and y and z along the last, a kernel's declared factorisation
    bounds each row and its columns from its cut on (``outer(|x|, S[c])``,
    ``_gram_bounds``); ``_settle`` then picks the rows scanned whole, from
    the max of a first block of each, and ``_held`` scans the held columns
    of the others.  Other kernels ignore ``classes``.

    One ``values(rows, c, w)``, the rows over columns c to w, evaluates
    every block: whole rows, ``_settle``'s first blocks and ``_held``'s
    held columns.  Where a kernel's ``factors = (inner, outer)``, with
    ``kernel(X, Y, Z) == outer(X, inner(Y, Z))`` bit for bit, apply, the
    inner part T is computed once per scan, as y and z are fixed along the
    first axis, and a block is ``outer(x, T[:, c:w])``.  Else a kernel
    marked ``broadcasting`` gets the gathered rows, broadcast against each
    other, and any other kernel gets them stacked, through ``_d_many``.  A
    ``gram`` split only bounds rows, of a kernel that broadcasts.  The
    three declarations are read off the kernel once, before any row is
    scanned: a metric put in by ``dataclasses.replace`` has none unless it
    declares them, and a ``functools.wraps`` wrapper copies all three.
    Rows fixed along the first axis are gathered once per scan.  Every call
    covers about ``_ROW_BUDGET`` rows at most, split along the first axis,
    and each block of rows is reduced before the next is scanned.  An inf
    or overflowing coordinate gives its values, NaN or inf, without a numpy
    warning.
    """
    P = np.asarray(points)
    shape = np.broadcast_shapes(np.shape(X), np.shape(Y), np.shape(Z))[:-1]
    shape = shape if cuts is None else shape + (2,)
    X, Y, Z = (np.reshape(A, (1,) * (2 - np.ndim(A)) + np.shape(A)) for A in (X, Y, Z))
    a, b = np.broadcast_shapes(X.shape, Y.shape, Z.shape)
    kernel = space.d_batch
    split = getattr(kernel, "gram", None)
    inner, outer = getattr(kernel, "factors", (None, None))
    broadcasts = getattr(kernel, "broadcasts", False)

    out = np.full((a, 2) if cuts is not None else a, -np.inf)
    cuts = None if cuts is None else np.asarray(cuts)
    # rows fixed along the first axis are gathered once, the others per block
    fixed = [np.take(P, A, axis=0) if len(A) == 1 else None for A in (X, Y, Z)]
    T = inner(fixed[1], fixed[2]) if inner and len(Y) == len(Z) == 1 else None

    def values(rows, c=0, w=b):
        """d of the scan's ``rows`` over its columns c to w."""
        g = [F if F is not None else np.take(P, A[rows], axis=0) for F, A in zip(fixed, (X, Y, Z))]
        if c or w < b:
            g = [G[:, c:w] if G.shape[1] > 1 else G for G in g]
        if T is not None:
            return outer(g[0], T[:, c:w])
        if broadcasts:
            return kernel(*g)
        # stacked by copying whole rows along the broadcast axes: a copy of
        # the broadcast views runs slower
        grid = np.broadcast_shapes(*(G.shape[:2] for G in g))
        for axis, n in enumerate(grid):
            g = [G if G.shape[axis] == n else np.repeat(G, n, axis=axis) for G in g]
        return _d_many(space, *(G.reshape((-1,) + P.shape[1:]) for G in g)).reshape(grid)

    scan, floor, held = np.ones(a, dtype=bool), np.full(a, -np.inf), np.zeros(0, dtype=np.intp)
    # each declared layout bounds every row over all its columns and over
    # those from its cut on
    if (classes is not None and b and X.shape[1] == 1 and len(Y) == len(Z) == 1
            and (T is not None or split and P.ndim == 2)):
        x = np.take(P, X[:, 0], axis=0)
        if T is not None:
            # S[c] is the max of |t| over the columns from c on, NaN kept, and
            # outer(|x|, S[c]) is at least the computed outer(x, t) of each,
            # and NaN or inf where one may be NaN: the dot product runs in one
            # fixed order, |fl(p + q)| <= fl(|p| + |q|), |fl(p q)| = fl(|p| |q|)
            # and rounding to nearest is monotone.  A row cut past the last
            # column holds nothing, and its cut is clipped.
            S = np.maximum.accumulate(np.abs(T[0, ::-1]), axis=0)[::-1]
            bound, from_cut = (outer(np.abs(x), S[c]) for c in (0, np.minimum(cuts, b - 1)))
        else:
            bound, from_cut = _gram_bounds(split, P, x, Y[0], Z[0], cuts)
        scan, floor = _settle(classes, bound, cuts, b, lambda rows: values(
            rows, 0, max(1, _ROW_BUDGET // len(rows))).max(axis=-1))
        held = np.flatnonzero(~scan & (cuts < b))

    # the rows scanned, in blocks of about _ROW_BUDGET values
    scanned, step = np.flatnonzero(scan), max(1, _ROW_BUDGET // max(b, 1))
    for i in range(0, len(scanned) if b else 0, step):
        sel = scanned[i:i + step]
        block = values(sel)
        out[sel] = block.max(axis=-1) if cuts is None else _split_max(block, cuts[sel])
    if cuts is not None:
        np.maximum(out[:, 0], out[:, 1], out=out[:, 0])
        np.maximum(out[:, 0], floor, out=out[:, 0])
        out[cuts >= b, 1] = -np.inf
    if len(held):
        out[held, 1] = _held(from_cut[held], cuts[held], b, out[:, 1].max(),
                             lambda some, c: values(held[some], c))
    return out.reshape(shape)


# Sampled pairs, and their seed, behind ``witness_refinement_gap``.
_GAP_PAIRS = 200
_GAP_SEED = 0


def witness_refinement_gap(space: TwoMetricSpace, witnesses: WitnessSet) -> float:
    """Empirical sup-truncation error: max increase of phi when the witness
    set is doubled.  Zero on finite spaces audited with all points, and on
    a space with a declared ``phi``, which ``eval_phi`` reads for
    coordinate points without the witnesses."""
    X, Y = _stacks(space.sample, _GAP_SEED, _GAP_PAIRS, 2)
    fresh = space.sample(np.random.default_rng(witnesses.seed + 1), len(witnesses))
    refined = WitnessSet(np.concatenate([np.asarray(witnesses.points), np.asarray(fresh)]))
    base = eval_phi(space, X, Y, witnesses)
    better = eval_phi(space, X, Y, refined)
    return float(np.maximum(better - base, 0.0).max())


# ---------------------------------------------------------------------------
# finite table-backed spaces
# ---------------------------------------------------------------------------

def _triples(n: int) -> np.ndarray:
    """Rows (i, j, k) with i < j < k < n, in lexicographic order, with one
    contiguous column per index (Fortran order)."""
    JK = np.array(np.triu_indices(n, 1))
    out = np.empty((3, n * (n - 1) * (n - 2) // 6), dtype=JK.dtype)
    # the pairs (j, k) with j > i are the last C(n - 1 - i, 2) columns of the
    # lexicographic pairs JK, and the rows with first index i take them
    r = 0
    for i in range(n - 2):
        c = (n - 1 - i) * (n - 2 - i) // 2
        out[0, r:r + c], out[1:, r:r + c] = i, JK[:, -c:]
        r += c
    return out.T


def _sorted_key(key, n: int) -> tuple[int, int, int]:
    """The sorted index triple that a table key names, in any index order.

    The one rule for table keys: each index is read with ``operator.index``
    (a float or string index is a ``TypeError``), and a key of other than
    three indices, one outside ``range(n)`` or one with a repeated index is
    a ``ValueError`` naming the key.
    """
    try:
        i, j, k = sorted(map(operator.index, key))
    except ValueError:
        raise ValueError(f"table keys must be index triples, got {key}") from None
    if i < 0 or k >= n:
        raise ValueError(f"triple {key} out of range for n={n}")
    if i == j or j == k:
        raise ValueError(f"table stores distinct triples only, got {key}")
    return i, j, k


def _sorted_rows(columns, n: int) -> np.ndarray | None:
    """The rows (i, j, k) of three integer columns of table keys, each row
    sorted, when every row has 0 <= i < j < k < n, and None when some key
    breaks ``_sorted_key``'s rule, which its callers then run key by key to
    name the first bad key.  Each row is sorted by ``np.sort``: a network
    of compare-exchanges on whole columns read no faster end to end, and
    ``t80``'s audit peaked 1 MB higher with it (``BENCH_52.json``)."""
    rows = np.sort(np.transpose(columns), axis=1)
    i, j, k = rows.T
    return rows if ((0 <= i) & (i < j) & (j < k) & (k < n)).all() else None


# Entries per block of ``save``.  By a sweep of 2**8 to 2**15 (2-core Xeon,
# the least of three medians), saves of 32- and 40-point tables took the same
# time at every size, within 0.5 ms of 4 ms and 7.5 ms; at 80 points (82,160
# entries) 2**11 was the fastest, 59.9 ms against 65.1 ms at 2**8 and 69.3 ms
# at 2**15, and peaked at 3.4 MB under ``tracemalloc``, against 8.4 MB at
# 2**14 and 30.5 MB for one join of the whole file.
_SAVE_BLOCK = 1 << 11


class _Table:
    """The write side of a ``FiniteTwoMetricSpace``.

    ``table[key] = value`` stores ``float(value)`` at the sorted triple of
    a key in any index order, checked by ``_sorted_key``.  Iteration yields
    the stored sorted triples in lexicographic order, from a snapshot taken
    when it starts, so the loop may write entries.  Values are read through
    ``FiniteTwoMetricSpace.dense``.
    """

    def __init__(self, space: "FiniteTwoMetricSpace"):
        self.space = space

    def __setitem__(self, key, value) -> None:
        s = self.space
        i, j, k = _sorted_key(key, s.n)
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
        self._put(list(entries), entries.values())

    def _put(self, keys: list, values) -> None:
        """Check ``keys``, index triples in any order, by ``_sorted_key`` and
        store ``values`` at them in the order given: of two keys naming one
        triple the later one wins."""
        # One vectorised pass takes a list of valid keys: all of length 3,
        # checked before the reshape (keys (0, 1) and (2, 3, 4, 5) give six
        # indices too).  Anything else runs the rule key by key, which names
        # the first bad key.
        try:
            K = np.fromiter(map(operator.index, itertools.chain.from_iterable(keys)), np.intp)
            rows = _sorted_rows(K.reshape(-1, 3).T, self.n) if set(map(len, keys)) <= {3} else None
        except (TypeError, OverflowError):
            rows = None
        if rows is None:
            rows = np.array([_sorted_key(key, self.n) for key in keys], np.intp)
        self._store(rows, np.fromiter(map(float, values), float, len(keys)))

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
        """The value at (i, j, k), 0 on a repeated index.  The indices are
        read with ``operator.index``, as table writes read them."""
        key = tuple(map(operator.index, (i, j, k)))
        if min(key) < 0 or max(key) >= self.n:
            _sorted_key(key, self.n)         # raises: the key is out of range
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
        and an int or float ``d`` (a bool is neither, and an int past the
        float range is not a number either), whose keys pass
        ``_sorted_key``.  Anything else is a ``ValueError`` naming the first
        bad entry, whatever is wrong with it.

        ``n`` is checked first, as the constructor checks it.  The file is
        read by columns: each field is taken off every entry by one
        ``itemgetter``, the types are checked over whole columns, by ``map``
        and ``set``, and the index columns go to ``_sorted_rows`` as one
        array.  Only a file that fails a check is read entry by entry,
        types then key, in file order, up to the bad entry.  A key message
        is ``_sorted_key``'s, after the entry number.
        """
        entries = payload.get("entries", []) if type(payload) is dict else None
        if type(entries) is not list or type(payload.get("n")) is not int:
            raise ValueError('a table file holds an object with an int "n" and a list "entries"')
        space = FiniteTwoMetricSpace(payload["n"])
        try:
            columns = [list(map(operator.itemgetter(c), entries)) for c in "ijkd"]
            ok = (set(map(type, itertools.chain(*columns[:3]))) <= {int}
                  and set(map(type, columns[3])) <= {int, float})
        except (KeyError, TypeError):  # an entry without a field, or not an object
            ok = False
        try:
            rows = _sorted_rows(np.array(columns[:3], np.intp), space.n) if ok else None
            if rows is not None:
                # in file order, not through a dict, which keeps a repeated
                # key at its first place
                space._store(rows, np.array(columns[3], float))
                return space
        except OverflowError:  # an index past intp, or an int d past the float range
            pass
        for number, entry in enumerate(entries):
            try:
                if not (type(entry) is dict and all(type(entry.get(c)) is int for c in "ijk")
                        and type(entry.get("d")) in (int, float)):
                    raise TypeError
                float(entry["d"])    # an int past the float range raises OverflowError
            except (TypeError, OverflowError):
                raise ValueError(f"table entry {number} needs integer i, j, k and a "
                                 f"number d, got {json.dumps(entry)}") from None
            try:
                _sorted_key(operator.itemgetter("i", "j", "k")(entry), space.n)
            except ValueError as exc:
                raise ValueError(f"table entry {number}: {exc}") from None

    def save(self, path) -> None:
        """Write the table file, ``{"n": n, "entries": [{"i", "j", "k",
        "d"}, ...]}`` with the stored triples in lexicographic order, in the
        bytes of ``json.dump(..., indent=2)`` followed by a newline.

        That encoder runs in pure Python, so the file is written from parts
        instead, ``_SAVE_BLOCK`` entries at a time, each block in one join:
        json's C encoder turns a block's values into tokens in one call
        (``NaN`` and ``Infinity`` included), and its indices are gathered
        from one string per point.  So the parts of one block are held at a
        time, not those of the whole file and its text.
        """
        values = self._dense[self._present]
        columns = np.nonzero(self._present)
        names = np.array([str(i) for i in range(self.n)], dtype=object)
        # nine parts per entry, its separator first
        entry = [',\n    {\n      "i": ', "", ',\n      "j": ', "", ',\n      "k": ', "",
                 ',\n      "d": ', "", "\n    }"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{\n  "n": %d,\n  "entries": [' % self.n)
            for s in range(0, len(values), _SAVE_BLOCK):
                block = values[s:s + _SAVE_BLOCK].tolist()
                parts = entry * len(block)
                for slot, column in zip((1, 3, 5), columns):
                    parts[slot::9] = names[column[s:s + _SAVE_BLOCK]].tolist()
                parts[7::9] = json.dumps(block)[1:-1].split(", ")
                if not s:
                    parts[0] = parts[0][1:]      # no comma before the first entry
                fh.write("".join(parts))
            fh.write("\n  ]\n}\n" if len(values) else "]\n}\n")

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
    """The record of the worst violation, whose witness copies its points,
    so the record holds none of the stacks alive."""
    if len(violations) == 0:
        return AxiomRecord(axiom, 0.0, None, samples)
    worst = int(np.argmax(violations))
    value = float(violations[worst])
    witness = tuple(t[worst].copy() for t in tuples) if not value <= 0 else None
    return AxiomRecord(axiom, max(value, 0.0), witness, samples)


def audit(space: TwoMetricSpace, *, witnesses: WitnessSet,
          triples: int = 2000, seed: int = 0,
          tolerance: float = DEFAULT_TOLERANCE) -> AxiomReport:
    """Score every axiom as the worst sampled max(0, LHS - RHS).

    Each axiom reads ``triples`` i.i.d. uniform tuples of its own arity.
    The plain axioms read them from one draw of five stacks from the space
    sampler, each a prefix of it: Sym and B the first three stacks, Tetr
    four, Z two and Trans all five.  So their tuples are dependent across
    axioms, but each axiom's tuples keep their law, and so each record
    keeps its distribution.  Tuples for the phi-based checks are drawn
    from the witness set.  Without a declared ``phi``, the truncated sup
    over the witnesses is then internally consistent and those
    inequalities are exact.  With one, the checks test the space's own phi
    on the same seeded draw: the witness set is a sample of the domain like
    any other, and N's classes, the sample counts and the records keep one
    meaning for every space.  All sampling is sequential from the given
    seed.  On a space with a ``size`` (a table's ``as_space()``), B and the
    positivity half of Z are decided exactly instead, over each of the
    C(size, 3) distinct index triples, and their ``samples`` count those
    triples.

    The phi checks draw up to 5 * ``triples`` witness pairs, and each
    distinct unordered pair is evaluated once, so their phi scan holds at
    most min(5 * triples, |W| (|W| + 1) / 2) * |W| kernel rows.  Each
    stage's arrays go when its records are made (a record's witness is a
    copy), so the working memory is the larger stage's, not their sum.
    """
    _at_least(triples, 1, "sample counts")
    records = _sampled_records(space, triples, seed) \
        + _phi_records(space, witnesses, triples, seed, tolerance)
    order = {name: i for i, name in enumerate(AXIOM_ORDER)}
    records.sort(key=lambda r: order[r.axiom])
    return AxiomReport(seed=seed, tolerance=tolerance, records=records)


def _sampled_records(space: TwoMetricSpace, triples: int, seed: int) -> list[AxiomRecord]:
    """Sym, Tetr, Z, B and Trans of ``audit``, from one draw of five stacks."""
    records: list[AxiomRecord] = []
    V = _stacks(space.sample, seed, triples, 5)
    T = V[:3]

    # Sym: spread of d over argument permutations; a space with a size is a
    # table's, symmetric by construction.
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

    # Tetr on quadruples; its left side is d0.
    rhs = (_d_many(space, V[0], V[1], V[3])
           + _d_many(space, V[1], V[2], V[3])
           + _d_many(space, V[0], V[2], V[3]))
    records.append(_record_from("Tetr", d0 - rhs, V[:4], triples))

    # B and the positivity half of Z read the sampled triples, or every
    # distinct triple of a space with a size.
    if space.size is None:
        values, tuples = d0, T
    else:
        tuples = tuple(_triples(space.size).T)
        values = _d_many(space, *tuples)

    # Z: repeated-argument degeneracy, plus positivity.
    z_viol = np.abs(_d_many(space, V[0], V[1], V[1]))
    pos_viol = -values
    # NaN in either part must reach the record: NaN > x is always False
    pos_max = pos_viol.max(initial=-np.inf)
    if np.isnan(pos_max) or pos_max > z_viol.max():
        records.append(_record_from("Z", pos_viol, tuples, len(values)))
    else:
        records.append(_record_from("Z", z_viol, (V[0], V[1], V[1]), triples))

    # B: global bound 1.
    records.append(_record_from("B", values - 1.0, tuples, len(values)))

    # Trans on quintuples: d(a,b,x) * d(c,x,y) <= d(a,x,y) + d(b,x,y).
    a, b, c, x, y = V
    lhs = _d_many(space, a, b, x) * _d_many(space, c, x, y)
    rhs = _d_many(space, a, x, y) + _d_many(space, b, x, y)
    records.append(_record_from("Trans", lhs - rhs, V, triples))
    return records


def _key_classes(points) -> np.ndarray:
    """The class number of each point of a stack, numbered in order of
    first appearance, two points in one class where their ``points_json``
    values are equal: -0.0 is 0.0, and a point with a NaN coordinate is a
    class of its own."""
    keys = points_json(points)
    classes: dict = {}
    return np.array([classes.setdefault(k, len(classes))
                     for k in (map(tuple, keys) if np.ndim(points) > 1 else keys)])


# A table of marks dedupes pair numbers faster than a sort while it has at
# most this many entries per number drawn.
_MARKS_PER_PAIR = 8


def _distinct(numbers, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(numbers, return_inverse=True)`` of ints in [0, size):
    the marked entries of a table of ``size`` marks are the keys in order,
    and each number's rank among them is its inverse.  A size past
    ``_MARKS_PER_PAIR`` times the count of numbers takes the sort."""
    if size > _MARKS_PER_PAIR * len(numbers):
        return np.unique(numbers, return_inverse=True)
    marks = np.zeros(size, dtype=bool)
    marks[numbers] = True
    keys = np.flatnonzero(marks)
    rank = np.empty(size, dtype=np.intp)
    rank[keys] = np.arange(len(keys))
    return keys, rank[numbers]


def _phi_records(space: TwoMetricSpace, witnesses: WitnessSet, triples: int, seed: int,
                 tolerance: float) -> list[AxiomRecord]:
    """N, AT, CostTriangle and DphiLipschitz of ``audit``, sampled from the
    witness set: N on pairs of distinct classes (after canonicalization)
    from seed + 1, AT and CostTriangle on triples, then DphiLipschitz on
    quadruples, from seed + 2.  phi is exactly symmetric and computed row
    by row, so each distinct unordered pair is evaluated once, in one call,
    and scattered back in draw order."""
    m, Wpts = len(witnesses), np.asarray(witnesses.points)
    widx = np.random.default_rng(seed + 1).integers(0, m, size=(triples, 2))
    wclass = _key_classes(apply_rows(space.canon, Wpts) if space.canon else Wpts)
    nidx = widx[wclass[widx[:, 0]] != wclass[widx[:, 1]]]
    del widx
    prng = np.random.default_rng(seed + 2)
    tidx = prng.integers(0, m, size=(triples, 3))
    qidx = prng.integers(0, m, size=(triples, 4))
    # the pairs (x, y), (x, z), (z, y) of each triple, (x, y) of each
    # quadruple; the pair numbers and the key arrays go once phi is scattered
    I = np.concatenate([nidx[:, 0], tidx[:, 0], tidx[:, 0], tidx[:, 2], qidx[:, 2]])
    J = np.concatenate([nidx[:, 1], tidx[:, 1], tidx[:, 2], tidx[:, 1], qidx[:, 3]])
    pairs = np.minimum(I, J) * m + np.maximum(I, J)
    del I, J
    keys, inverse = _distinct(pairs, m * m)
    del pairs
    phi = eval_phi(space, keys // m, keys % m, witnesses, Wpts)[inverse]
    del keys, inverse
    phi_n, phi_xy, phi_xz, phi_zy, phi_q = np.split(phi, len(nidx) + np.arange(4) * triples)

    records = [_record_from("N", np.where(phi_n > tolerance, 0.0, 1.0),
                            (Wpts[nidx[:, 0]], Wpts[nidx[:, 1]]), len(nidx))]
    del nidx

    PX, PY, PZ = Wpts[tidx[:, 0]], Wpts[tidx[:, 1]], Wpts[tidx[:, 2]]
    d_xyz = _d_many(space, PX, PY, PZ)
    records.append(_record_from("AT", phi_xy - phi_xz - 2.0 * phi_zy,
                                (PX, PY, PZ), triples))
    records.append(_record_from("CostTriangle", phi_xy - phi_xz - phi_zy - d_xyz,
                                (PX, PY, PZ), triples))
    del PX, PY, PZ, d_xyz, tidx

    DA, DB = Wpts[qidx[:, 0]], Wpts[qidx[:, 1]]
    DX, DY = Wpts[qidx[:, 2]], Wpts[qidx[:, 3]]
    lhs = np.abs(_d_many(space, DA, DB, DX) - _d_many(space, DA, DB, DY))
    records.append(_record_from("DphiLipschitz", lhs - 2.0 * phi_q, (DA, DB, DX, DY), triples))
    return records


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
