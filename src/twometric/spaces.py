"""Concrete 2-metric instances.

Three families:

* the absolute determinant of three unit column vectors on the unit sphere
  (its zero sets are the great circles; antipodal points are at pair
  distance zero, so the honest point set is the antipodal quotient);
* the Euclidean triangle area on a ball of diameter <= 1 in R^n;
* the pullback of the spherical triangle area to a planar patch chart near
  the south pole, which is sandwiched between flat area plus the pairwise
  distance product, up to a constant measured empirically here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_ROW_BUDGET, TwoMetricSpace, WitnessSet, _at_least, _stacks, _strict,
                   broadcasting)

# ---------------------------------------------------------------------------
# determinant metric on the unit sphere
# ---------------------------------------------------------------------------

def _length(x) -> float:
    """The length of one point, a tuple or an array, its squares summed
    left to right on Python floats, as ``sample_sphere`` sums them: the
    same bits for both, whatever the BLAS build, and inf where the sum
    overflows, without a floating-point warning."""
    out = 0.0
    for c in x:
        c = float(c)
        out += c * c
    return math.sqrt(out)


def unit_sphere(v) -> np.ndarray:
    """Normalize to a unit 3-vector.  A vector whose norm is not finite
    (a NaN or infinite entry, or entries so large that the norm overflows)
    is refused like the zero vector, without a floating-point warning."""
    v = np.asarray(v, dtype=float)
    n = _length(v) if v.shape == (3,) else math.nan
    if not 1e-12 <= n < math.inf:
        raise ValueError("need a nonzero 3-vector with a finite norm")
    return v / n


def _coords(A) -> list:
    """The coordinate arrays ``A[..., j]`` of points on the last axis."""
    A = np.asarray(A, dtype=float)
    return [A[..., j] for j in range(A.shape[-1])]


def _shape(p, q) -> tuple:
    """The shape that arrays p and q broadcast to: read off directly where
    they have one shape, which is what kernel calls on stacked rows pass."""
    s = np.shape(p)
    return s if s == np.shape(q) else np.broadcast_shapes(s, np.shape(q))


def _dot(a, b) -> np.ndarray:
    """Dot products of points given as coordinate arrays: the even terms
    ``p0 + p2 + p4 + ...`` in one running sum, the odd terms ``p1 + p3 +
    ...`` in another, then the two sums.  The order decides the last bit.
    Below 8 coordinates it is the order in which ``einsum("...j,...j->...")``
    adds a unit-stride last axis, so there it gives einsum's bits without
    its per-call cost.  Every term is written into one buffer sized from
    the operands, which may be smaller than the scan they feed."""
    shape = _shape(a[0], b[0])
    sums = [np.multiply(p, q, out=np.empty(shape)) for p, q in zip(a[:2], b[:2])]
    term = np.empty(shape)
    for j in range(2, len(a)):
        np.add(sums[j % 2], np.multiply(a[j], b[j], out=term), out=sums[j % 2])
    return sums[0] if len(sums) == 1 else np.add(*sums, out=sums[0])


def _differences(a, b) -> list:
    """The coordinate arrays of ``b - a``, each written into its own buffer."""
    shape = _shape(a[0], b[0])
    return [np.subtract(q, p, out=np.empty(shape)) for p, q in zip(a, b)]


def _cross(Y, Z) -> np.ndarray:
    """The cross products ``y x z`` of rows that broadcast, written out as
    ``np.cross`` computes them, with the three coordinates on the last axis.
    Each coordinate is one contiguous buffer, which ``_dot`` reads fastest."""
    y, z = _coords(Y), _coords(Z)
    shape = _shape(y[0], z[0])
    c, term = np.empty((3,) + shape), np.empty(shape)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(y[j], z[k], out=c[i, ...])
        np.subtract(c[i, ...], np.multiply(y[k], z[j], out=term), out=c[i, ...])
    return c.transpose(*range(1, c.ndim), 0)


def _det_outer(X, C) -> np.ndarray:
    """``|x . c|`` of rows that broadcast, with the dot product as ``_dot``."""
    out = _dot(_coords(X), _coords(C))
    return np.abs(out, out=out)[()]


@broadcasting
def det_metric_batch(X, Y, Z) -> np.ndarray:
    """|det [x y z]| row by row: ``x . (y x z)`` with the cross product
    written out as ``np.cross`` computes it, and the dot product as
    ``_dot``.  Each row has the bits of
    ``abs(einsum("...j,...j->...", X, np.cross(Y, Z)))`` on C-ordered
    inputs, whatever the layout of the inputs."""
    return _det_outer(X, _cross(Y, Z))


# kernel(X, Y, Z) == outer(X, inner(Y, Z)) bit for bit: ``core._d_max``
# computes the inner part once for rows whose (y, z) repeat
det_metric_batch.factors = (_cross, _det_outer)
# the one definition of each metric is its kernel, exported under both names
det_metric = det_metric_batch


def _lengths(e) -> np.ndarray:
    """The lengths of vectors given as coordinate arrays, their squares
    summed as ``_dot`` sums them.  Up to 2 coordinates that is left to
    right, so planar lengths have the bits of ``np.linalg.norm(axis=-1)``."""
    out = _dot(e, e)
    return np.sqrt(out, out=out)[()]


def _det_phi(X, Y) -> np.ndarray:
    """The det sphere's pair distance |x x y|, the sup of |(x x y) . w|
    over unit w, of rows that broadcast: the cross product as ``_cross``
    writes it, its length as ``_lengths`` takes it.  Exactly symmetric,
    since ``y x x`` is ``-(x x y)`` bit for bit."""
    return _lengths(_coords(_cross(X, Y)))


@broadcasting
def antipodal_canon(x) -> np.ndarray:
    """Deterministic representative of {x, -x}, of a point or of a stack
    of points on the last axis: the first coordinate larger than 1e-12 in
    magnitude is made nonnegative, and a point with none is kept.  A NaN
    coordinate is not larger.  Idempotent."""
    x = np.asarray(x, dtype=float)
    large = np.abs(x) > 1e-12
    first = large.argmax(axis=-1)[..., None]
    flip = np.take_along_axis(x < 0, first, axis=-1) & np.take_along_axis(large, first, axis=-1)
    return np.where(flip, -x, x)


def sample_sphere(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` normal 3-vectors, each divided by its length: the squares
    summed left to right from the columns, as ``np.linalg.norm(axis=1)``
    sums them below 8 columns, so the points have its bits."""
    v = rng.normal(size=(count, 3))
    v0, v1, v2 = v.T
    v /= np.sqrt(v0 * v0 + v1 * v1 + v2 * v2)[:, None]
    return v


def great_circle_points(g1, g2, count: int) -> np.ndarray:
    """Evenly spaced points on the great circle through two generators."""
    b1 = unit_sphere(g1)
    raw = np.asarray(g2, dtype=float) - _dot(_coords(g2), _coords(b1)) * b1
    n = _lengths(_coords(raw))
    if n < 1e-9:
        raise ValueError("generators are (anti)parallel; circle undefined")
    b2 = raw / n
    t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.outer(np.cos(t), b1) + np.outer(np.sin(t), b2)


def _on_sphere(x) -> bool:
    """Whether x lies on the unit sphere, up to 1e-9, by ``_length``; a
    norm that overflows is off it, without a floating-point warning."""
    return abs(_length(x) - 1.0) <= 1e-9


def det_sphere_space() -> TwoMetricSpace:
    return TwoMetricSpace(
        name="det-sphere",
        d_batch=det_metric_batch,
        sample=sample_sphere,
        phi=_det_phi,
        canon=antipodal_canon,
        contains=_on_sphere,
        line_points=great_circle_points,
    )


AXIS_POINTS = np.concatenate([np.eye(3), -np.eye(3)])


def sphere_witnesses(count: int, seed: int) -> WitnessSet:
    """The six axis points, so suprema attained at coordinate directions
    are hit exactly, then ``count`` seeded uniform witnesses."""
    _at_least(count, 0, "witness count")
    pts = np.concatenate([AXIS_POINTS, sample_sphere(np.random.default_rng(seed), count)])
    return WitnessSet(pts, seed)


# ---------------------------------------------------------------------------
# Euclidean area metric on bounded balls
# ---------------------------------------------------------------------------

# Radius of the ball of ``area_ball_space``: diameter 1 keeps every triangle
# area <= 1, as the bound axiom asks.
BALL_RADIUS = 0.5

def _edges(A, B) -> tuple[list, np.ndarray]:
    """The edges ``b - a`` of points on the last axis that broadcast, as
    coordinate arrays, and their squared lengths as ``_dot`` sums them."""
    e = _differences(_coords(A), _coords(B))
    return e, _dot(e, e)


def _gram(u, uu, v, vv) -> np.ndarray:
    """The Gram determinant ``uu * vv - (u . v)**2`` of two edges given as
    coordinate arrays, with their squared lengths ``uu`` and ``vv``."""
    uv = _dot(u, v)
    g = np.multiply(uu, vv, out=np.empty(np.shape(uv)))
    return np.subtract(g, np.multiply(uv, uv), out=g)


def _half_root(g) -> np.ndarray:
    """``0.5 * sqrt(max(g, 0))``, in place: the area of a triangle whose
    edges have the Gram determinant g.  Non-decreasing in g, and NaN at a
    NaN."""
    np.sqrt(np.maximum(g, 0.0, out=g), out=g)
    return np.multiply(g, 0.5, out=g)[()]


def _edge_area(u, v) -> np.ndarray:
    """Triangle areas from their edges u = y - x and v = z - x, given as
    coordinate arrays, by the Gram determinant of u and v, with their dot
    products summed as ``_dot`` sums them."""
    return _half_root(_gram(u, _dot(u, u), v, _dot(v, v)))


def _area(x, y, z) -> np.ndarray:
    """Triangle areas of points given as coordinate arrays that broadcast,
    ``_edge_area`` of the edges y - x and z - x."""
    return _edge_area(_differences(x, y), _differences(x, z))


@broadcasting
def area_metric_batch(X, Y, Z) -> np.ndarray:
    """Triangle areas row by row, ``_area`` of the coordinate arrays, in
    every dimension."""
    return _area(_coords(X), _coords(Y), _coords(Z))


# The Gram split bounds the rows of ``core._d_max``'s scans: ``edges(X, Y)``
# gives the edges y - x and their squared lengths n, and kernel(X, Y, Z) is
# ``finish`` of a Gram determinant at most fl(n(X, Y) n(X, Z)), +0 where the
# two edges are one, with ``finish`` non-decreasing
area_metric_batch.gram = (_edges, _half_root)
area_metric = area_metric_batch


def _area_phi(X, Y) -> np.ndarray:
    """The area ball's pair distance, of rows that broadcast: the sup of
    the area of (x, y, z) over the ball is ``0.5 * |e| * (R + dist(0,
    line xy))`` for e = y - x, at the boundary point farthest from the
    line, with R = ``BALL_RADIUS``.  Computed as ``0.5 * (R * |e| +
    sqrt(max(g, 0)))``, where g = |e|^2 |m|^2 - (e . m)^2 is ``_gram`` of e
    and the midpoint m = (x + y) / 2, and every dot product is summed as
    ``_dot`` sums it.  g equals |x|^2 |y|^2 - (x . y)^2, but keeps its
    relative accuracy where x and y are close, where that form cancels to
    an error of about sqrt(eps) |x| |y| in its root.  Exactly symmetric,
    since y - x is -(x - y) and x + y is y + x bit for bit."""
    x, y = _coords(X), _coords(Y)
    e = _differences(x, y)
    m = [np.multiply(np.add(p, q), 0.5) for p, q in zip(x, y)]
    length = _dot(e, e)
    root = _gram(e, length, m, _dot(m, m))
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    np.sqrt(length, out=length)
    out = np.add(np.multiply(length, BALL_RADIUS, out=length), root, out=length)
    return np.multiply(out, 0.5, out=out)[()]


def sample_ball(rng: np.random.Generator, count: int, dim: int = 3) -> np.ndarray:
    # the norm, not a column sum as in ``sample_sphere``: from 8 columns on
    # it adds in eight pairwise lanes, which ``--dim 9`` reaches
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = BALL_RADIUS * rng.random(count) ** (1.0 / dim)
    return v * r[:, None]


def chord_points(g1, g2, count: int) -> np.ndarray:
    """Points of the full chord through g1, g2 inside the ball."""
    g1 = np.asarray(g1, dtype=float)
    u = np.asarray(g2, dtype=float) - g1
    x, e = _coords(g1), _coords(u)
    uu = _dot(e, e)
    if uu < 1e-18:
        raise ValueError("generators coincide; chord undefined")
    b = 2.0 * _dot(x, e)
    c = _dot(x, x) - BALL_RADIUS * BALL_RADIUS
    disc = b * b - 4.0 * uu * c
    lo = (-b - np.sqrt(max(disc, 0.0))) / (2.0 * uu)
    hi = (-b + np.sqrt(max(disc, 0.0))) / (2.0 * uu)
    t = np.linspace(lo, hi, count)
    return g1[None, :] + t[:, None] * u[None, :]


def _in_ball(x) -> bool:
    """Whether x lies in the ball, up to 1e-12, by ``_length``; a norm
    that overflows is outside, without a floating-point warning."""
    return _length(x) <= BALL_RADIUS + 1e-12


_in_ball.floats = True   # read by ``orbit``: a tuple of floats is a point too


def area_ball_space(dim: int = 3) -> TwoMetricSpace:
    _at_least(dim, 1, "ball dimension")
    return TwoMetricSpace(
        name=f"area-ball-{dim}d",
        d_batch=area_metric_batch,
        sample=lambda rng, n: sample_ball(rng, n, dim=dim),
        # on a line every triangle is flat, so phi is 0, not ``_area_phi``'s
        # sup over a ball; the witness scan stands in, and reads up to
        # 7.45e-9, not 0, by the kernel's cancellation (ROADMAP item 22)
        phi=_area_phi if dim > 1 else None,
        contains=_in_ball,
        line_points=chord_points,
    )


# ---------------------------------------------------------------------------
# spherical patch pullback and its convexity sandwich
# ---------------------------------------------------------------------------

def _lift(P) -> list:
    """The lift of planar points to the lower hemisphere, as the
    coordinate arrays of the lifted points."""
    x, y = _coords(P)
    return [x, y, -np.sqrt(1.0 - x ** 2 - y ** 2)]


@dataclass(frozen=True)
class SpherePatch:
    """Planar chart of a south-pole cap of the unit sphere, radius < 1/4.

    ``metric_batch`` is the Euclidean triangle area of the points lifted
    by the inverse vertical projection to the lower hemisphere (``_lift``),
    which is strictly positive for distinct points since a line meets the
    sphere in at most two of them.
    """

    radius: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.radius < 0.25:
            raise ValueError("patch radius must lie in (0, 1/4)")

    @broadcasting
    def metric_batch(self, X, Y, Z) -> np.ndarray:
        """``_area`` of the lifts' coordinate arrays."""
        return _area(_lift(X), _lift(Y), _lift(Z))

    def sample(self, rng: np.random.Generator, count: int,
               radius: float | None = None) -> np.ndarray:
        """``count`` points uniform on the disc of ``radius``, the patch's
        by default: polar coordinates from an angle 2 pi u and a radius
        ``radius * sqrt(u')``, u and u' two draws of ``count``, each
        written in place into one ``(count, 2)`` array."""
        radius = self.radius if radius is None else radius
        ang = rng.random(count)
        np.multiply(np.multiply(ang, 2.0, out=ang), np.pi, out=ang)
        rad = rng.random(count)
        np.multiply(radius, np.sqrt(rad, out=rad), out=rad)
        out = np.empty((count, 2))
        for j, trig in enumerate((np.cos, np.sin)):
            np.multiply(rad, trig(ang, out=out[:, j]), out=out[:, j])
        return out


@dataclass
class ConvexityBoundReport:
    """Empirical two-sided comparison of the lifted area h against s, the
    flat area plus the distance product (``_sandwich``): 1/C * s <= h <=
    C * s."""

    r: float
    samples: int
    seed: int
    upper_ratio: float
    lower_ratio: float
    C: float
    degenerate_skipped: int

    def to_json(self) -> dict:
        return _strict({
            "r": float(self.r),
            "samples": int(self.samples),
            "seed": int(self.seed),
            "upper_ratio": float(self.upper_ratio),
            "lower_ratio": float(self.lower_ratio),
            "C": float(self.C),
            "degenerate_skipped": int(self.degenerate_skipped),
        })


# Rows per block of the sandwich scan, and of ``certify``'s conclusion.
# ``_sandwich`` holds 16 row-sized buffers at its peak under tracemalloc, so
# a block holds 7 buffers of ``_ROW_BUDGET`` rows: about a det kernel call's
# 6, under a 3-d area kernel call's 11.
_SANDWICH_ROWS = _ROW_BUDGET * 7 // 16


def _sandwich(X, Y, Z) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of the sandwich for each row of planar stacks, from
    one set of the planar edges u = y - x, v = z - x and w = z - y: the
    lifted area h, with the bits of ``SpherePatch.metric_batch``, and s,
    the flat area ``0.5 * |u0 v1 - u1 v0|`` plus the product of the three
    distances, each distance ``_lengths`` of its edge, which on planar
    edges has the bits of ``np.linalg.norm(axis=-1)``.  s vanishes exactly
    when two points coincide."""
    x, y, z = _lift(X), _lift(Y), _lift(Z)
    u, v, w = _differences(x[:2], y[:2]), _differences(x[:2], z[:2]), _differences(y[:2], z[:2])
    h = _edge_area(u + [np.subtract(y[2], x[2])], v + [np.subtract(z[2], x[2])])
    flat = 0.5 * np.abs(u[0] * v[1] - u[1] * v[0])
    return h, flat + _lengths(u) * _lengths(v) * _lengths(w)


def convexity_bound(radius: float = 0.2, samples: int = 10000,
                    seed: int = 0) -> ConvexityBoundReport:
    """Measure the sandwich constant on seeded patch triples.

    Triples with a repeated point are skipped and counted: both sides vanish
    there and the bound holds trivially.  The triples are scanned in blocks
    of ``_SANDWICH_ROWS``, each ratio's running max kept by ``np.maximum``,
    which keeps a NaN; a sample whose every triple is skipped reports
    ratios of -inf, the max over no triple.
    """
    _at_least(samples, 1, "sample counts")
    patch = SpherePatch(radius)
    stacks = _stacks(patch.sample, seed, samples, 3)
    upper = lower = -np.inf
    skipped = 0
    for i in range(0, samples, _SANDWICH_ROWS):
        X, Y, Z = (S[i:i + _SANDWICH_ROWS] for S in stacks)
        repeated = np.zeros(len(X), dtype=bool)
        for A, B in ((X, Y), (X, Z), (Y, Z)):
            repeated |= (A[:, 0] == B[:, 0]) & (A[:, 1] == B[:, 1])
        # continuous samples almost never repeat: copy the rows only if they do
        if repeated.any():
            skipped += int(repeated.sum())
            X, Y, Z = X[~repeated], Y[~repeated], Z[~repeated]
        h, s = _sandwich(X, Y, Z)
        # at tiny radii the areas underflow to 0, and a ratio over 0 is NaN
        # or infinite: the report carries it, and the CLI fails it, without
        # warnings
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.maximum(upper, (h / s).max(initial=-np.inf))
            lower = np.maximum(lower, (s / h).max(initial=-np.inf))
    upper, lower = float(upper), float(lower)
    return ConvexityBoundReport(
        r=radius,
        samples=samples,
        seed=seed,
        upper_ratio=upper,
        lower_ratio=lower,
        C=max(upper, lower),
        degenerate_skipped=skipped,
    )
