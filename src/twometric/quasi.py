"""Fixed-point solvers for pair distances with a one-sided triangle bound.

The spaces here carry a symmetric, reflexive distance phi together with the
lopsided inequality phi(x,y) <= phi(x,z) + C*phi(z,y) for a constant C >= 1
(C = 2 for distances derived from a bounded 2-metric).  Three solvers:

* ``banach_direct``   -- plain iteration for factor k < 1/C, with the
  geometric tail bound phi(x_n, x_m) < k^n/(1 - C k) * phi(x_0, x_1)
  asserted on every recorded pair;
* ``banach_power``    -- for any k < 1, iterate the smallest power F^a with
  k^a < 1/C, then confirm the result is fixed by F itself;
* ``banach_multcost`` -- the variant where the triangle bound carries a
  multiplicative cost exp(psi(x,y,z)) for a bounded ternary cost function.

Claimed contraction factors are never trusted: each solver measures the
factor on sampled pairs first and refuses on a violation, with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .core import (TwoMetricSpace, WitnessSet, _at_least, _stacks, _strict, apply_rows,
                   eval_phi, point_json)

# Sampled pairs (and cost triples) behind each solver's factor check.
_CHECK_SAMPLES = 100
# Pairs closer than this are left out of a measured factor.
_FLOOR = 1e-15
# A solver stops once phi(x, F(x)) is at or below this.
_TOL = 1e-12
# The largest power ``minimal_power`` tries.
_POWER_CAP = 100000


@dataclass(frozen=True)
class QuasiSpace:
    """A sampleable domain with a pair distance and its triangle constant.

    ``phi(x, y)`` and the optional cost ``psi(x, y, z)`` take points or
    stacks of points stacked on the first axis, as ``sample`` draws them,
    that broadcast against each other: one pair or triple gives a number,
    a stack an array with one value per entry.  A constant such as
    ``lambda x, y, z: 0.0`` broadcasts too.
    """

    phi: Callable[[Any, Any], float]
    C: float
    sample: Callable[[np.random.Generator, int], Any]
    psi: Callable[[Any, Any, Any], float] | None = None
    psi_bound: float | None = None

    def __post_init__(self):
        if self.C < 1.0:
            raise ValueError("triangle constant must be >= 1")


def interval_space(C: float = 1.0) -> QuasiSpace:
    """The unit interval with |x - y|; any C >= 1 is a valid declared
    constant."""
    return QuasiSpace(
        phi=lambda x, y: np.abs(np.subtract(x, y, dtype=float)),
        C=C,
        sample=lambda rng, n: rng.random(n),
    )


def quasi_from_two_metric(space: TwoMetricSpace, witnesses: WitnessSet) -> QuasiSpace:
    """Derived pair distance of a bounded 2-metric, by ``eval_phi``;
    satisfies the lopsided triangle inequality with C = 2, exactly on
    spaces that declare their phi and on finite spaces audited with all
    points as witnesses."""
    return QuasiSpace(
        phi=lambda x, y: eval_phi(space, x, y, witnesses),
        C=2.0,
        sample=space.sample,
    )


def check_quasi_axioms(space: QuasiSpace, samples: int = 200, seed: int = 0) -> dict:
    """Worst sampled violations of reflexivity, symmetry, the lopsided
    triangle inequality, and (when a cost is present) the multiplicative
    variant and the cost bound.  A NaN among the sampled values makes its
    entry NaN."""
    _at_least(samples, 1, "samples")
    X, Y, Z = _stacks(space.sample, seed, samples, 3)

    def worst(values) -> float:
        # np.max keeps a NaN, and 0.0 is the floor of every entry
        return float(np.max(values, initial=0.0))

    phi_xy, phi_xz, phi_zy = space.phi(X, Y), space.phi(X, Z), space.phi(Z, Y)
    out = {"reflexivity": worst(np.abs(space.phi(X, X))),
           "symmetry": worst(np.abs(phi_xy - space.phi(Y, X))),
           "triangle": worst(phi_xy - phi_xz - space.C * phi_zy)}
    if space.psi is not None:
        cost = space.psi(X, Y, Z)
        out["multiplicative_triangle"] = worst(phi_xy - (phi_xz + phi_zy) * np.exp(cost))
        out["cost_magnitude"] = worst(np.abs(cost))
    return out


@dataclass
class BanachRun:
    """Record of one solver run."""

    fixed_point: Any
    residual: float
    steps: int
    k_claimed: float
    k_measured: float
    C: float
    tail_bound_ok: bool
    tail_margin: float
    power: int = 1
    variant: str = "direct"
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        """Strict JSON, by the rule of ``core._strict``."""
        return _strict({
            "fixed_point": point_json(self.fixed_point),
            "residual": float(self.residual),
            "steps": int(self.steps),
            "k_claimed": float(self.k_claimed),
            "k_measured": float(self.k_measured),
            "C": float(self.C),
            "tail_bound_ok": bool(self.tail_bound_ok),
            "tail_margin": float(self.tail_margin),
            "power": int(self.power),
            "variant": self.variant,
            "notes": list(self.notes),
        })


class ContractionViolation(ValueError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def _measure_factor(space: QuasiSpace, F, k: float, seed: int) -> float:
    """Largest sampled ratio phi(Fx, Fy) / phi(x, y); a ratio above k, or a
    NaN ratio (so a NaN distance on the pair or its image), is a violation
    naming the first such pair in draw order."""
    X, Y = _stacks(space.sample, seed, _CHECK_SAMPLES, 2)
    base = np.asarray(space.phi(X, Y))
    # a NaN base is not <= the floor, so its pair is kept
    keep = np.flatnonzero(~(base <= _FLOOR))
    X, Y = X[keep], Y[keep]
    ratio = np.asarray(space.phi(apply_rows(F, X), apply_rows(F, Y))) / base[keep]
    bad = np.flatnonzero(np.isnan(ratio) | (ratio > k + 1e-9))
    if len(bad):
        i = bad[0]
        x, y = X[i], Y[i]
        if np.isnan(ratio[i]):
            raise ContractionViolation(
                f"contraction ratio is NaN on the sampled pair ({x}, {y})", (x, y))
        raise ContractionViolation(
            f"claimed factor {k} violated: measured ratio {ratio[i]:.6g}", (x, y))
    return float(np.max(ratio, initial=0.0))


def _iterate(space: QuasiSpace, F, x0, max_steps: int):
    # each step maps once: the image of the last iterate is the next one
    iterates, image = [x0], F(x0)
    residual = space.phi(x0, image)
    # a NaN residual is no convergence: the run goes on to max_steps
    while not residual <= _TOL and len(iterates) <= max_steps:
        iterates.append(image)
        image = F(image)
        residual = space.phi(iterates[-1], image)
    return iterates, residual


def _check_tail(space: QuasiSpace, iterates, bounds) -> tuple[bool, float]:
    """``bounds`` holds the admissible phi(x_n, x_m) of every pair n < m of
    ``iterates`` in ``np.triu_indices`` order; returns the pass flag and the
    worst excess over the bound (0.0 with no pair), NaN (and no pass) once
    an excess is NaN or a bound is not finite."""
    n, m = np.triu_indices(len(iterates), k=1)
    P = np.asarray(iterates)
    bounds = np.array(bounds, dtype=float)
    # a bound past the float range bounds nothing: its excess is NaN, and
    # so is that of an inf phi against it
    with np.errstate(invalid="ignore"):
        excess = np.where(np.isfinite(bounds), space.phi(P[n], P[m]) - bounds, np.nan)
    margin = float(excess.max()) if len(excess) else 0.0
    return margin <= 1e-12, margin


def _solve(space: QuasiSpace, F, x0, k: float, measured: float, bound_row,
           max_steps: int, variant: str) -> BanachRun:
    """Iterate F from x0, then check every recorded pair against its bound:
    ``bound_row(first, n, count)`` gives the bounds of phi(x_n, x_m) for
    m = n+1, ..., n+count, where first = phi(x_0, x_1)."""
    iterates, residual = _iterate(space, F, x0, max_steps)
    first = space.phi(iterates[0], iterates[1]) if len(iterates) > 1 else 0.0
    last = len(iterates) - 1
    # a far start overflows a bound, which then fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = [b for n in range(last) for b in bound_row(first, n, last - n)]
    ok, margin = _check_tail(space, iterates, bounds)
    return BanachRun(
        fixed_point=iterates[-1], residual=float(residual), steps=len(iterates) - 1,
        k_claimed=k, k_measured=measured, C=space.C, tail_bound_ok=ok, tail_margin=margin,
        variant=variant,
    )


def banach_direct(space: QuasiSpace, F, x0, k: float, max_steps: int = 200,
                  seed: int = 0) -> BanachRun:
    """Iterate a verified k-contraction with k < 1/C to its fixed point."""
    _at_least(max_steps, 0, "step count")
    if not 0.0 < k:
        raise ValueError("factor must be positive")
    if k >= 1.0 / space.C:
        raise ValueError(
            f"k={k} >= 1/C={1.0 / space.C}: direct iteration does not apply, "
            "use banach_power")
    measured = _measure_factor(space, F, k, seed)
    return _solve(space, F, x0, k, measured,
                  lambda first, n, count: [first / (1.0 - space.C * k) * k ** n] * count,
                  max_steps, "direct")


def minimal_power(k: float, C: float) -> int:
    """Smallest a with k^a < 1/C, refused past ``_POWER_CAP``."""
    if not 0.0 < k < 1.0:
        raise ValueError("factor must lie in (0, 1)")
    a, p = 1, k
    while p >= 1.0 / C:
        a += 1
        p *= k
        if a > _POWER_CAP:
            raise ValueError("no admissible power below cap; k too close to 1")
    return a


def banach_power(space: QuasiSpace, F, x0, k: float, max_steps: int = 200,
                 seed: int = 0) -> BanachRun:
    """Fixed point for any verified factor k < 1: run the direct solver on
    the smallest power F^a with k^a < 1/C, then confirm the point is fixed
    by F itself."""
    # again in banach_direct, but before the measurement here
    _at_least(max_steps, 0, "step count")
    measured = _measure_factor(space, F, k, seed)
    a = minimal_power(k, space.C)

    def Fa(x):
        for _ in range(a):
            x = F(x)
        return x

    run = banach_direct(space, Fa, x0, k ** a, max_steps=max_steps, seed=seed)
    z = run.fixed_point
    return replace(run, residual=float(space.phi(z, F(z))), k_claimed=k, k_measured=measured,
                   power=a, variant="power",
                   notes=[f"iterated F^{a} with factor {k ** a:.6g} < 1/C"])


def banach_multcost(space: QuasiSpace, F, x0, k: float, max_steps: int = 200,
                    seed: int = 0) -> BanachRun:
    """Solver under the multiplicative-cost triangle inequality.

    Requires both the phi-contraction and the cost contraction
    psi(Fx, Fy, Fz) <= k * psi(x, y, z), the latter checked only on sampled
    triples where both sides are positive; a NaN cost on a sampled triple or
    its image is a violation.  The asserted tail bound is the cost-inflated
    geometric series with the cost capped by its bound.
    """
    _at_least(max_steps, 0, "step count")
    if space.psi is None or space.psi_bound is None:
        raise ValueError("space carries no cost function / bound")
    if not 0.0 < k < 1.0:
        raise ValueError("factor must lie in (0, 1)")
    M = float(space.psi_bound)
    X, Y, Z = _stacks(space.sample, seed, _CHECK_SAMPLES, 3)
    cost = np.broadcast_to(space.psi(X, Y, Z), len(X))
    mapped = np.broadcast_to(space.psi(*(apply_rows(F, P) for P in (X, Y, Z))), len(X))
    over = np.abs(cost) > M + 1e-12
    nan = np.isnan(cost) | np.isnan(mapped)
    expands = (mapped > 0.0) & (cost > 0.0) & (mapped > k * cost + 1e-9)
    bad = np.flatnonzero(over | nan | expands)
    if len(bad):
        i = bad[0]
        witness = (X[i], Y[i], Z[i])
        if over[i]:
            raise ContractionViolation(f"cost function exceeds declared bound {M}", witness)
        if nan[i]:
            raise ContractionViolation(
                f"cost is NaN on the sampled triple or its image: {cost[i]} -> {mapped[i]}",
                witness)
        raise ContractionViolation(
            f"cost contraction violated: {mapped[i]:.6g} > {k} * {cost[i]:.6g}", witness)
    measured = _measure_factor(space, F, k, seed + 1)

    def bound_row(first: float, n: int, count: int) -> list:
        # the bound of phi(x_n, x_m) sums the series up to j = m - n - 1, so
        # one running sum gives the whole row
        row, total, exponent = [], 0.0, 0.0
        for j in range(count):
            exponent += M * k ** (n + j)
            total += k ** j * np.exp(exponent)
            row.append(k ** n * first * total)
        return row

    return _solve(space, F, x0, k, measured, bound_row, max_steps, "multcost")
