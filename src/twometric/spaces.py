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

from .core import TwoMetricSpace, WitnessSet, broadcasting

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


@broadcasting
def det_metric(x, y, z) -> float:
    """|det [x y z]| for unit column vectors; 0 exactly on great circles.

    Also takes stacks of points that broadcast, one value per row.  The
    matmul of a row by a column reaches the same dot kernel as ``np.dot``,
    so a stacked call gives each row the bits of a single call.
    ``det_metric_batch`` adds the products in another order and can differ
    in the last bit: tables tabulated with ``det_metric`` keep its bits.
    """
    x = np.asarray(x, dtype=float)
    out = np.abs(np.matmul(x[..., None, :], np.cross(y, z)[..., :, None])[..., 0, 0])
    return float(out) if out.ndim == 0 else out


def _coords(A) -> list:
    """The coordinate arrays ``A[..., j]`` of points on the last axis."""
    A = np.asarray(A, dtype=float)
    return [A[..., j] for j in range(A.shape[-1])]


def _dot3(a, b) -> np.ndarray:
    """Dot products of 3-d points given as coordinate arrays, added as
    ``einsum("...j,...j->...")`` adds a unit-stride last axis of length 3:
    ``(a0*b0 + a2*b2) + a1*b1``.  The order decides the last bit, so this
    gives einsum's bits without its per-call cost."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


@broadcasting
def det_metric_batch(X, Y, Z) -> np.ndarray:
    """|det [x y z]| row by row: ``x . (y x z)`` with the cross product
    written out as ``np.cross`` computes it, and the dot product as
    ``_dot3``.  Each row has the bits of
    ``abs(einsum("...j,...j->...", X, np.cross(Y, Z)))`` on C-ordered
    inputs, whatever the layout of the inputs."""
    x, y, z = _coords(X), _coords(Y), _coords(Z)
    c = (y[1] * z[2] - y[2] * z[1], y[2] * z[0] - y[0] * z[2], y[0] * z[1] - y[1] * z[0])
    return np.abs(_dot3(x, c))


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
        d=det_metric,
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
    pts = np.concatenate([AXIS_POINTS, sample_sphere(np.random.default_rng(seed), count)])
    return WitnessSet(pts, {"kind": "sphere", "count": len(pts), "seed": seed})


def sphere_grid_witnesses(count: int) -> WitnessSet:
    """The six axis points, then ``count`` deterministic quasi-uniform
    witnesses from a golden-angle lattice; the sup truncation error shrinks
    like 1/sqrt(count)."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(1.0 - z * z)
    ang = np.pi * (1.0 + np.sqrt(5.0)) * i
    grid = np.column_stack([r * np.cos(ang), r * np.sin(ang), z])
    pts = np.concatenate([AXIS_POINTS, grid])
    return WitnessSet(pts, {"kind": "grid", "count": len(pts)})


@dataclass
class CramerDecomposition:
    """a = alpha*x + beta*y + gamma*z, with the deviation of the three
    determinant ratios from |alpha|, |beta|, |gamma|."""

    alpha: float
    beta: float
    gamma: float
    residual: float

    @property
    def coefficient_norm(self) -> float:
        return abs(self.alpha) + abs(self.beta) + abs(self.gamma)


def cramer_check(x, y, z, a) -> CramerDecomposition:
    """Solve for the coordinates of a in the basis (x, y, z) and compare the
    determinant ratios against them.  For unit vectors the coefficient norm
    is at least 1, which is exactly the tetrahedral inequality here."""
    basis = np.column_stack([x, y, z])
    d0 = det_metric(x, y, z)
    if d0 <= 1e-12:
        raise ValueError("basis triple is numerically singular")
    alpha, beta, gamma = np.linalg.solve(basis, np.asarray(a, dtype=float))
    ratios = (
        det_metric(a, y, z) / d0,
        det_metric(x, a, z) / d0,
        det_metric(x, y, a) / d0,
    )
    residual = max(
        abs(ratios[0] - abs(alpha)),
        abs(ratios[1] - abs(beta)),
        abs(ratios[2] - abs(gamma)),
    )
    return CramerDecomposition(float(alpha), float(beta), float(gamma), float(residual))


# ---------------------------------------------------------------------------
# Euclidean area metric on bounded balls
# ---------------------------------------------------------------------------

def area_metric(x, y, z) -> float:
    """Triangle area in R^n via the Gram determinant of two edge vectors."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(y, dtype=float) - x
    v = np.asarray(z, dtype=float) - x
    g = np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2
    return 0.5 * float(np.sqrt(max(g, 0.0)))


@broadcasting
def area_metric_batch(X, Y, Z) -> np.ndarray:
    """Triangle areas row by row, from the Gram determinant of the edges
    u = y - x and v = z - x.  In 3-d the dot products are ``_dot3`` sums of
    per-coordinate differences, with the bits of ``einsum``; in any other
    dimension they are ``einsum`` itself, since no explicit order found
    gives its bits there (in 5-d neither a left-to-right sum nor
    ``.sum(-1)`` does)."""
    X, Y, Z = (np.asarray(A, dtype=float) for A in (X, Y, Z))
    if X.shape[-1] == 3:
        x, y, z = _coords(X), _coords(Y), _coords(Z)
        u = [b - a for a, b in zip(x, y)]
        v = [c - a for a, c in zip(x, z)]
        uu, vv, uv = _dot3(u, u), _dot3(v, v), _dot3(u, v)
    else:
        U, V = Y - X, Z - X
        uu = np.einsum("...j,...j->...", U, U)
        vv = np.einsum("...j,...j->...", V, V)
        uv = np.einsum("...j,...j->...", U, V)
    return 0.5 * np.sqrt(np.maximum(uu * vv - uv * uv, 0.0))


def sample_ball(rng: np.random.Generator, count: int, dim: int = 3,
                radius: float = 0.5) -> np.ndarray:
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / dim)
    return v * r[:, None]


def chord_points(g1, g2, count: int, radius: float = 0.5) -> np.ndarray:
    """Points of the full chord through g1, g2 inside the ball."""
    g1 = np.asarray(g1, dtype=float)
    u = np.asarray(g2, dtype=float) - g1
    uu = np.dot(u, u)
    if uu < 1e-18:
        raise ValueError("generators coincide; chord undefined")
    b = 2.0 * np.dot(g1, u)
    c = np.dot(g1, g1) - radius * radius
    disc = b * b - 4.0 * uu * c
    lo = (-b - np.sqrt(max(disc, 0.0))) / (2.0 * uu)
    hi = (-b + np.sqrt(max(disc, 0.0))) / (2.0 * uu)
    t = np.linspace(lo, hi, count)
    return g1[None, :] + t[:, None] * u[None, :]


def area_ball_space(dim: int = 3, radius: float = 0.5) -> TwoMetricSpace:
    if dim < 1:
        raise ValueError(f"ball dimension must be >= 1, got {dim}")
    if radius > 0.5 + 1e-12:
        raise ValueError("ball diameter must stay <= 1 for the bound axiom")
    return TwoMetricSpace(
        name=f"area-ball-{dim}d",
        d=area_metric,
        d_batch=area_metric_batch,
        sample=lambda rng, n: sample_ball(rng, n, dim=dim, radius=radius),
        contains=lambda x: np.linalg.norm(x) <= radius + 1e-12,
        line_points=lambda g1, g2, n: chord_points(g1, g2, n, radius=radius),
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

    ``lift`` is the inverse vertical projection to the lower hemisphere;
    ``metric`` is the Euclidean triangle area of the lifted points, which is
    strictly positive for distinct points since a line meets the sphere in
    at most two of them.
    """

    radius: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.radius < 0.25:
            raise ValueError("patch radius must lie in (0, 1/4)")

    def contains(self, p) -> bool:
        return float(np.linalg.norm(p)) <= self.radius + 1e-12

    def lift(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if not self.contains(p):
            raise ValueError(f"point {p.tolist()} outside patch radius {self.radius}")
        return np.array([p[0], p[1], -np.sqrt(1.0 - p[0] ** 2 - p[1] ** 2)])

    def lift_batch(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        h = -np.sqrt(1.0 - P[..., 0] ** 2 - P[..., 1] ** 2)
        return np.concatenate([P, h[..., None]], axis=-1)

    def metric(self, x, y, z) -> float:
        return area_metric(self.lift(x), self.lift(y), self.lift(z))

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

    def as_space(self) -> TwoMetricSpace:
        return TwoMetricSpace(
            name=f"sphere-patch-r{self.radius}",
            d=self.metric,
            d_batch=self.metric_batch,
            sample=self.sample,
            contains=self.contains,
        )


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
        return {
            "r": float(self.r),
            "samples": int(self.samples),
            "seed": int(self.seed),
            "upper_ratio": float(self.upper_ratio),
            "lower_ratio": float(self.lower_ratio),
            "C": float(self.C),
            "degenerate_skipped": int(self.degenerate_skipped),
        }


def convexity_bound(radius: float = 0.2, samples: int = 10000,
                    seed: int = 0) -> ConvexityBoundReport:
    """Measure the sandwich constant on seeded patch triples.

    Triples with a repeated point are skipped and counted: both sides vanish
    there and the bound holds trivially.
    """
    patch = SpherePatch(radius)
    rng = np.random.default_rng(seed)
    X = patch.sample(rng, samples)
    Y = patch.sample(rng, samples)
    Z = patch.sample(rng, samples)
    repeated = ((X == Y).all(axis=1) | (X == Z).all(axis=1) | (Y == Z).all(axis=1))
    X, Y, Z = X[~repeated], Y[~repeated], Z[~repeated]

    h = patch.metric_batch(X, Y, Z)
    s = triangle_area2(X, Y, Z) + rho(X, Y, Z)
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
