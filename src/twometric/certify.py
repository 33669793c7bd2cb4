"""Numerical contractivity certificates for planar C^2 maps.

On a patch metric satisfying the convexity sandwich, a map whose Jacobian
stays within a small budget c' of a fixed invertible matrix A, and whose
second derivative stays under the same budget, contracts the 2-metric by
C' * |det A| for a constant C' depending only on the sandwich constant and
the norm cap on A.  The certificate checks both hypotheses by sampled
central finite differences, and on success verifies the conclusion
empirically on sampled triples against the calibrated C'.

C' is calibrated once per patch configuration by maximizing the ratio over
linear maps drawn from a condition-bounded matrix family and committed as a
baseline; for strongly anisotropic near-singular A the ratio/|det A| sup is
empirically unbounded, so the certificate is only offered for matrices in
the calibration family (condition number <= the family cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import _at_least, _stacks, _strict, _worst_ratio, apply_rows
from .spaces import SpherePatch, _coords, _lengths

# Finite-difference step of the Jacobian and second-derivative checks.
_STEP = 1e-5
# Slack of the conclusion check: the worst sampled ratio may exceed the
# calibrated bound by this factor.
_SLACK = 1.05


def _max_radius(P) -> float:
    """The largest distance from 0 of planar points on the last axis, 0 for
    none and NaN if one is NaN: ``_lengths`` of the coordinate columns, with
    the bits of ``np.linalg.norm(P, axis=-1).max(initial=0.0)``."""
    return np.max(_lengths(_coords(P)), initial=0.0)


def _abs_det(A) -> float:
    """|det A| of a 2 x 2 matrix [[a, b], [c, d]], as abs(a d - b c) in that
    order on Python floats: the same bits whatever the LAPACK build."""
    (a, b), (c, d) = np.asarray(A, dtype=float).tolist()
    return abs(a * d - b * c)


def jacobian_fd(F, x, radius: float | None = None) -> np.ndarray:
    """Central-difference Jacobian at x, or at each point of a stack x of
    shape (..., d), with step ``_STEP``; O(step^2) error for C^3 maps.

    F is evaluated through ``apply_rows``: once per shifted stack when it is
    marked ``broadcasting``, else once per point.  ``radius`` bounds the
    admissible domain: every point needs margin >= step.
    """
    x = np.asarray(x, dtype=float)
    if radius is not None and _max_radius(x) + _STEP > radius:
        raise ValueError("insufficient margin for central differences")
    rows = x.reshape(-1, x.shape[-1])
    J = np.stack([(apply_rows(F, rows + e) - apply_rows(F, rows - e)) / (2.0 * _STEP)
                  for e in _STEP * np.eye(x.shape[-1])], axis=-1)
    return J.reshape(x.shape[:-1] + J.shape[1:])


def _spectral_norms(M) -> np.ndarray:
    """Spectral norm of each 2 x 2 matrix [[a, b], [c, d]] on the last two
    axes, NaN for a matrix with a non-finite entry: the larger singular
    value in closed form, (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2
    (Blinn, "Consider the lowly 2x2 matrix", 1996), elementwise over the
    stack.  Each matrix is first scaled by the power of two that brings its
    largest entry into [0.5, 1), which is exact, so no sum overflows and
    every norm that is a float comes out finite."""
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (2, 2):
        raise ValueError(f"need 2 x 2 matrices, got shape {M.shape}")
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    top = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    e = np.frexp(top)[1]
    # a non-finite entry makes its sums NaN, and its norm is set to NaN below
    with np.errstate(invalid="ignore"):
        a, b, c, d = (np.ldexp(x, -e) for x in (a, b, c, d))
        half = (np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) / 2.0
    return np.where(np.isfinite(top), np.ldexp(half, e), np.nan)


def hessian_bound_fd(F, points, radius: float | None = None) -> float:
    """Sampled sup of a planar map's second derivative: the max over points
    and directions of the spectral norm of dJ/dx_i by central differences
    with step ``_STEP``.  NaN when a difference is not finite."""
    X = np.asarray(points, dtype=float)
    if radius is not None and _max_radius(X) + 2.0 * _STEP > radius:
        raise ValueError("insufficient margin for central differences")
    # Jacobians that overflowed give a NaN norm, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [_spectral_norms((jacobian_fd(F, X + e) - jacobian_fd(F, X - e)) / (2.0 * _STEP))
                 for e in _STEP * np.eye(X.shape[-1])]
    return float(np.max(norms, initial=0.0))


@dataclass
class CertInput:
    """Hypotheses of a certificate run.

    ``proximity`` is the budget c' for both the Jacobian deviation and the
    second-derivative bound; the default is 0.01 * |det A| / C_A.
    ``ratio_constant`` is the calibrated C' (from the committed baseline).
    """

    map: object
    jac_target: np.ndarray
    norm_bound: float
    patch: SpherePatch
    inner_radius: float
    ratio_constant: float
    proximity: float | None = None

    def __post_init__(self):
        self.jac_target = np.asarray(self.jac_target, dtype=float)
        if self.jac_target.shape != (2, 2):
            raise ValueError("reference matrix must be 2x2")
        det = _abs_det(self.jac_target)
        if det < 1e-15:
            raise ValueError("reference matrix must be invertible")
        if np.linalg.norm(self.jac_target, 2) > self.norm_bound + 1e-12:
            raise ValueError("reference matrix exceeds its declared norm cap")
        if not 0.0 < self.inner_radius < self.patch.radius:
            raise ValueError("inner radius must sit strictly inside the patch")
        if self.proximity is None:
            self.proximity = 0.01 * det / self.norm_bound
        if not (self.ratio_constant > 0.0 and self.proximity > 0.0):
            raise ValueError(f"ratio constant and proximity budget must be positive, got "
                             f"{self.ratio_constant} and {self.proximity}")


@dataclass
class CertResult:
    passes: bool
    max_jac_dev: float
    max_hessian: float
    c_prime: float
    ratio_constant: float
    det_target: float
    worst_ratio: float | None
    bound: float
    conclusion_ok: bool | None
    failures: list = field(default_factory=list)
    samples: int = 0
    ratio_samples: int = 0

    def to_json(self) -> dict:
        """Strict JSON: a non-finite value, here or in a failure record, is
        written as null, and that object gets ``"non_finite": true``."""
        return _strict({
            "pass": bool(self.passes),
            "max_jac_dev": float(self.max_jac_dev),
            "max_hessian": float(self.max_hessian),
            "c_prime": float(self.c_prime),
            "C_prime": float(self.ratio_constant),
            "det_A": float(self.det_target),
            "worst_ratio": None if self.worst_ratio is None else float(self.worst_ratio),
            "bound": float(self.bound),
            "conclusion_ok": self.conclusion_ok,
            "failures": [_strict(f) for f in self.failures],
            "samples": int(self.samples),
            "ratio_samples": int(self.ratio_samples),
        })


def certify(inp: CertInput, samples: int = 400, ratio_triples: int = 2000,
            seed: int = 0) -> CertResult:
    """Check the Jacobian-proximity and second-derivative hypotheses on
    sampled points; on pass, verify the contraction conclusion on sampled
    nondegenerate triples.  Failures carry the broken hypothesis and the
    witness point."""
    _at_least(samples, 1, "sample counts")
    _at_least(ratio_triples, 1, "sample counts")
    A = inp.jac_target
    det = _abs_det(A)
    c_prime = float(inp.proximity)
    bound = inp.ratio_constant * det
    patch, rin = inp.patch, inp.inner_radius
    rng = np.random.default_rng(seed)

    margin = 2.5 * _STEP
    pts = patch.sample(rng, samples, radius=max(rin - margin, rin * 0.5))
    devs = _spectral_norms(jacobian_fd(inp.map, pts, radius=rin) - A)
    max_dev = float(devs.max())
    hess = hessian_bound_fd(inp.map, pts, radius=rin)

    # NaN fails both: it is not <= the budget, and argmax picks the first NaN
    failures = []
    if not max_dev <= c_prime:
        failures.append({
            "hypothesis": "jacobian_proximity",
            "value": max_dev,
            "budget": c_prime,
            "witness": [float(c) for c in pts[int(np.argmax(devs))]],
        })
    if not hess <= c_prime:
        failures.append({
            "hypothesis": "hessian_bound",
            "value": float(hess),
            "budget": c_prime,
            "witness": None,
        })

    if not failures:
        X, Y, Z = _stacks(partial(patch.sample, radius=rin), rng, ratio_triples, 3)
        FX, FY, FZ = (apply_rows(inp.map, P) for P in (X, Y, Z))
        # a NaN image norm is not <= the radius, so it fails the range too:
        # np.max keeps a NaN, where Python's max may drop it
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


def calibrate_ratio_constant(patch_radius: float = 0.2, inner_radius: float = 0.1,
                             norm_bound: float = 2.0, matrices: int = 200,
                             triples: int = 500, max_condition: float = 4.0,
                             seed: int = 0) -> dict:
    """Oracle run behind the committed C' baseline: the sup of
    ratio / |det A| over linear maps from the condition-bounded family."""
    patch = SpherePatch(patch_radius)
    rng = np.random.default_rng(seed)
    best = 0.0
    kept = 0
    while kept < matrices:
        A = rng.normal(size=(2, 2))
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[1] < 1e-12 or sv[0] / sv[1] > max_condition:
            continue
        A *= (rng.random() * norm_bound) / sv[0]
        if np.linalg.norm(A, 2) * inner_radius > patch_radius:
            continue
        det = abs(np.linalg.det(A))
        kept += 1
        P = _stacks(partial(patch.sample, radius=inner_radius), rng, triples, 3)
        ratio, _ = _worst_ratio(patch.metric_batch, P, [Q @ A.T for Q in P])
        best = max(best, ratio / det)
    return {
        "C_prime": best,
        "patch_r": patch_radius,
        "inner_radius": inner_radius,
        "C_A": norm_bound,
        "matrices": matrices,
        "triples": triples,
        "max_condition": max_condition,
        "seed": seed,
    }
