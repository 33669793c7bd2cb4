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

from dataclasses import dataclass

import numpy as np

from .core import TwoMetricSpace, WitnessSet, _at_least, _stacks, _strict, broadcasting

# ---------------------------------------------------------------------------
# determinant metric on the unit sphere
# ---------------------------------------------------------------------------

def unit_sphere(v) -> np.ndarray:
    """Normalize to a unit 3-vector.  A vector whose norm is not finite
    (a NaN or infinite entry, or entries so large that the norm overflows)
    is refused like the zero vector, without a floating-point warning."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if v.shape != (3,) or not 1e-12 <= n < np.inf:
        raise ValueError("need a nonzero 3-vector with a finite norm")
    return v / n


def _coords(A) -> list:
    """The coordinate arrays ``A[..., j]`` of points on the last axis."""
    A = np.asarray(A, dtype=float)
    return [A[..., j] for j in range(A.shape[-1])]


def _dot(a, b) -> np.ndarray:
    """Dot products of points given as coordinate arrays: the even terms
    ``p0 + p2 + p4 + ...`` in one running sum, the odd terms ``p1 + p3 +
    ...`` in another, then the two sums.  The order decides the last bit.
    Below 8 coordinates it is the order in which ``einsum("...j,...j->...")``
    adds a unit-stride last axis, so there it gives einsum's bits without
    its per-call cost.  Every term is written into one buffer sized from
    the operands, which may be smaller than the scan they feed."""
    shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
    sums = [np.multiply(p, q, out=np.empty(shape)) for p, q in zip(a[:2], b[:2])]
    term = np.empty(shape)
    for j in range(2, len(a)):
        np.add(sums[j % 2], np.multiply(a[j], b[j], out=term), out=sums[j % 2])
    return sums[0] if len(sums) == 1 else np.add(*sums, out=sums[0])


def _differences(a, b) -> list:
    """The coordinate arrays of ``b - a``, each written into its own buffer."""
    shape = np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))
    return [np.subtract(q, p, out=np.empty(shape)) for p, q in zip(a, b)]


def _cross(Y, Z) -> np.ndarray:
    """The cross products ``y x z`` of rows that broadcast, written out as
    ``np.cross`` computes them, with the three coordinates on the last axis.
    Each coordinate is one contiguous buffer, which ``_dot`` reads fastest."""
    y, z = _coords(Y), _coords(Z)
    shape = np.broadcast_shapes(np.shape(y[0]), np.shape(z[0]))
    c, term = np.empty((3,) + shape), np.empty(shape)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(y[j], z[k], out=c[i, ...])
        np.subtract(c[i, ...], np.multiply(y[k], z[j], out=term), out=c[i, ...])
    return np.moveaxis(c, 0, -1)


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


def antipodal_canon(x) -> np.ndarray:
    """Deterministic representative of {x, -x}: the first coordinate larger
    than 1e-12 in magnitude is made nonnegative.  Idempotent."""
    x = np.asarray(x, dtype=float)
    for c in x:
        if abs(c) > 1e-12:
            return -x if c < 0 else x
    return x


def sample_sphere(rng: np.random.Generator, count: int) -> np.ndarray:
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def great_circle_points(g1, g2, count: int) -> np.ndarray:
    """Evenly spaced points on the great circle through two generators."""
    b1 = unit_sphere(g1)
    raw = np.asarray(g2, dtype=float) - np.dot(g2, b1) * b1
    if np.linalg.norm(raw) < 1e-9:
        raise ValueError("generators are (anti)parallel; circle undefined")
    b2 = raw / np.linalg.norm(raw)
    t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.outer(np.cos(t), b1) + np.outer(np.sin(t), b2)


def det_sphere_space() -> TwoMetricSpace:
    return TwoMetricSpace(
        name="det-sphere",
        d_batch=det_metric_batch,
        sample=sample_sphere,
        canon=antipodal_canon,
        contains=lambda x: abs(np.linalg.norm(x) - 1.0) <= 1e-9,
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


@broadcasting
def area_metric_batch(X, Y, Z) -> np.ndarray:
    """Triangle areas row by row, from the Gram determinant of the edges
    u = y - x and v = z - x, with their dot products summed as ``_dot``
    sums them, in every dimension."""
    return _half_root(_gram(*_edges(X, Y), *_edges(X, Z)))


# kernel(X, Y, Z) == finish(gram(*edges(X, Y), *edges(X, Z))) bit for bit:
# ``core._d_max`` computes the edges of an index scan once per pair of
# points, and the Gram determinants without the edges of each row
area_metric_batch.gram = (_edges, _gram, _half_root)
area_metric = area_metric_batch


def sample_ball(rng: np.random.Generator, count: int, dim: int = 3) -> np.ndarray:
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = BALL_RADIUS * rng.random(count) ** (1.0 / dim)
    return v * r[:, None]


def chord_points(g1, g2, count: int) -> np.ndarray:
    """Points of the full chord through g1, g2 inside the ball."""
    g1 = np.asarray(g1, dtype=float)
    u = np.asarray(g2, dtype=float) - g1
    uu = np.dot(u, u)
    if uu < 1e-18:
        raise ValueError("generators coincide; chord undefined")
    b = 2.0 * np.dot(g1, u)
    c = np.dot(g1, g1) - BALL_RADIUS * BALL_RADIUS
    disc = b * b - 4.0 * uu * c
    lo = (-b - np.sqrt(max(disc, 0.0))) / (2.0 * uu)
    hi = (-b + np.sqrt(max(disc, 0.0))) / (2.0 * uu)
    t = np.linspace(lo, hi, count)
    return g1[None, :] + t[:, None] * u[None, :]


def area_ball_space(dim: int = 3) -> TwoMetricSpace:
    _at_least(dim, 1, "ball dimension")
    return TwoMetricSpace(
        name=f"area-ball-{dim}d",
        d_batch=area_metric_batch,
        sample=lambda rng, n: sample_ball(rng, n, dim=dim),
        contains=lambda x: np.linalg.norm(x) <= BALL_RADIUS + 1e-12,
        line_points=chord_points,
    )


# ---------------------------------------------------------------------------
# spherical patch pullback and its convexity sandwich
# ---------------------------------------------------------------------------

def triangle_area2(x, y, z):
    """Flat area of a planar triangle; of each row for stacked points."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(y, dtype=float) - x
    v = np.asarray(z, dtype=float) - x
    return 0.5 * np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def rho(x, y, z):
    """Product of the three pairwise distances, of each row for stacked
    points; permutation invariant and zero exactly when two points
    coincide."""
    x, y, z = (np.asarray(p, dtype=float) for p in (x, y, z))
    return (np.linalg.norm(x - y, axis=-1) * np.linalg.norm(x - z, axis=-1)
            * np.linalg.norm(y - z, axis=-1))


@dataclass(frozen=True)
class SpherePatch:
    """Planar chart of a south-pole cap of the unit sphere, radius < 1/4.

    ``lift_batch`` is the inverse vertical projection to the lower
    hemisphere; ``metric_batch`` is the Euclidean triangle area of the
    lifted points, which is strictly positive for distinct points since a
    line meets the sphere in at most two of them.
    """

    radius: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.radius < 0.25:
            raise ValueError("patch radius must lie in (0, 1/4)")

    def lift_batch(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        h = -np.sqrt(1.0 - P[..., 0] ** 2 - P[..., 1] ** 2)
        return np.concatenate([P, h[..., None]], axis=-1)

    @broadcasting
    def metric_batch(self, X, Y, Z) -> np.ndarray:
        return area_metric_batch(self.lift_batch(X), self.lift_batch(Y),
                                 self.lift_batch(Z))

    def sample(self, rng: np.random.Generator, count: int,
               radius: float | None = None) -> np.ndarray:
        radius = self.radius if radius is None else radius
        ang = rng.random(count) * 2.0 * np.pi
        rad = radius * np.sqrt(rng.random(count))
        return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


@dataclass
class ConvexityBoundReport:
    """Empirical two-sided comparison of the lifted area h against flat area
    plus distance product: 1/C * (area2 + rho) <= h <= C * (area2 + rho)."""

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


def convexity_bound(radius: float = 0.2, samples: int = 10000,
                    seed: int = 0) -> ConvexityBoundReport:
    """Measure the sandwich constant on seeded patch triples.

    Triples with a repeated point are skipped and counted: both sides vanish
    there and the bound holds trivially.
    """
    _at_least(samples, 1, "sample counts")
    patch = SpherePatch(radius)
    X, Y, Z = _stacks(patch.sample, seed, samples, 3)
    repeated = ((X == Y).all(axis=1) | (X == Z).all(axis=1) | (Y == Z).all(axis=1))
    X, Y, Z = X[~repeated], Y[~repeated], Z[~repeated]

    h = patch.metric_batch(X, Y, Z)
    s = triangle_area2(X, Y, Z) + rho(X, Y, Z)
    # at tiny radii the areas underflow to 0, and a ratio over 0 is NaN or
    # infinite: the report carries it, and the CLI fails it, without warnings
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = float((h / s).max())
        lower = float((s / h).max())
    return ConvexityBoundReport(
        r=radius,
        samples=samples,
        seed=seed,
        upper_ratio=upper,
        lower_ratio=lower,
        C=max(upper, lower),
        degenerate_skipped=int(repeated.sum()),
    )
