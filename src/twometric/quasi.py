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

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .core import TwoMetricSpace, WitnessSet, eval_phi, point_json

# Sampled pairs (and cost triples) behind each solver's factor check.
_CHECK_SAMPLES = 100
# Pairs closer than this are left out of a measured factor.
_FLOOR = 1e-15


@dataclass(frozen=True)
class QuasiSpace:
    """A sampleable domain with a pair distance and its triangle constant."""

    name: str
    phi: Callable[[Any, Any], float]
    C: float
    sample: Callable[[np.random.Generator, int], Any]
    strict_reflexive: bool = True
    psi: Callable[[Any, Any, Any], float] | None = None
    psi_bound: float | None = None

    def __post_init__(self):
        if self.C < 1.0:
            raise ValueError("triangle constant must be >= 1")


def interval_space(lo: float = 0.0, hi: float = 1.0, C: float = 1.0) -> QuasiSpace:
    """The interval with |x - y|; any C >= 1 is a valid declared constant."""
    return QuasiSpace(
        name=f"interval[{lo},{hi}]",
        phi=lambda x, y: abs(float(x) - float(y)),
        C=C,
        sample=lambda rng, n: lo + (hi - lo) * rng.random(n),
    )


def quasi_from_two_metric(space: TwoMetricSpace, witnesses: WitnessSet,
                          C: float = 2.0) -> QuasiSpace:
    """Derived pair distance of a bounded 2-metric; satisfies the lopsided
    triangle inequality with C = 2, exactly on finite spaces audited with
    all points as witnesses."""
    return QuasiSpace(
        name=f"phi({space.name})",
        phi=lambda x, y: eval_phi(space, x, y, witnesses),
        C=C,
        sample=space.sample,
    )


def check_quasi_axioms(space: QuasiSpace, samples: int = 200, seed: int = 0) -> dict:
    """Worst sampled violations of reflexivity, symmetry, the lopsided
    triangle inequality, and (when a cost is present) the multiplicative
    variant and the cost bound.  A NaN among the sampled values makes its
    entry NaN."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    X = space.sample(rng, samples)
    Y = space.sample(rng, samples)
    Z = space.sample(rng, samples)
    refl = sym = tri = 0.0
    for x in X:
        refl = _worse(refl, abs(space.phi(x, x)))
    for x, y in zip(X, Y):
        sym = _worse(sym, abs(space.phi(x, y) - space.phi(y, x)))
    for x, y, z in zip(X, Y, Z):
        tri = _worse(tri, space.phi(x, y) - space.phi(x, z) - space.C * space.phi(z, y))
    out = {"reflexivity": refl, "symmetry": sym, "triangle": tri}
    if space.psi is not None:
        mult = 0.0
        worst_cost = 0.0
        for x, y, z in zip(X, Y, Z):
            cost = space.psi(x, y, z)
            worst_cost = _worse(worst_cost, abs(cost))
            mult = _worse(mult, space.phi(x, y)
                          - (space.phi(x, z) + space.phi(z, y)) * np.exp(cost))
        out["multiplicative_triangle"] = mult
        out["cost_magnitude"] = worst_cost
    return out


def _worse(worst: float, value: float) -> float:
    """The larger of the two, NaN once either is NaN (the builtin ``max``
    keeps a NaN only when it comes first)."""
    return worst if worst >= value or worst != worst else value


@dataclass
class BanachRun:
    """Record of one solver run."""

    start: Any
    iterates: list
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
        return {
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
        }


class ContractionViolation(ValueError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def _measure_factor(space: QuasiSpace, F, k: float, seed: int) -> float:
    """Largest sampled ratio phi(Fx, Fy) / phi(x, y); a ratio above k, or a
    NaN ratio (so a NaN distance on the pair or its image), is a violation
    naming the pair."""
    rng = np.random.default_rng(seed)
    X = space.sample(rng, _CHECK_SAMPLES)
    Y = space.sample(rng, _CHECK_SAMPLES)
    measured = 0.0
    for x, y in zip(X, Y):
        base = space.phi(x, y)
        if base <= _FLOOR:
            continue
        ratio = space.phi(F(x), F(y)) / base
        if ratio != ratio:
            raise ContractionViolation(
                f"contraction ratio is NaN on the sampled pair ({x}, {y})", (x, y))
        if ratio > measured:
            measured = ratio
            if measured > k + 1e-9:
                raise ContractionViolation(
                    f"claimed factor {k} violated: measured ratio {measured:.6g}",
                    (x, y))
    return measured


def _iterate(space: QuasiSpace, F, x0, max_steps: int, tol: float):
    iterates = [x0]
    residual = space.phi(x0, F(x0))
    while residual > tol and len(iterates) <= max_steps:
        iterates.append(F(iterates[-1]))
        residual = space.phi(iterates[-1], F(iterates[-1]))
    return iterates, residual


def _check_tail(space: QuasiSpace, iterates, bound_for) -> tuple[bool, float]:
    """bound_for(n, m) gives the admissible phi(x_n, x_m); returns the pass
    flag and the worst excess over the bound, NaN (and no pass) once an
    excess is NaN."""
    margin = -np.inf
    for n in range(len(iterates)):
        for m in range(n + 1, len(iterates)):
            excess = space.phi(iterates[n], iterates[m]) - bound_for(n, m)
            margin = _worse(margin, excess)
    if margin == -np.inf:
        margin = 0.0
    return margin <= 1e-12, float(margin)


def banach_direct(space: QuasiSpace, F, x0, k: float, max_steps: int = 200,
                  tol: float = 1e-12, seed: int = 0) -> BanachRun:
    """Iterate a verified k-contraction with k < 1/C to its fixed point."""
    if not 0.0 < k:
        raise ValueError("factor must be positive")
    if k >= 1.0 / space.C:
        raise ValueError(
            f"k={k} >= 1/C={1.0 / space.C}: direct iteration does not apply, "
            "use banach_power")
    measured = _measure_factor(space, F, k, seed)
    iterates, residual = _iterate(space, F, x0, max_steps, tol)
    first = space.phi(iterates[0], iterates[1]) if len(iterates) > 1 else 0.0
    coeff = first / (1.0 - space.C * k)
    ok, margin = _check_tail(space, iterates, lambda n, m: coeff * k ** n)
    return BanachRun(
        start=x0, iterates=iterates, fixed_point=iterates[-1],
        residual=float(residual), steps=len(iterates) - 1, k_claimed=k,
        k_measured=measured, C=space.C, tail_bound_ok=ok, tail_margin=margin,
    )


def minimal_power(k: float, C: float, cap: int = 100000) -> int:
    """Smallest a with k^a < 1/C."""
    if not 0.0 < k < 1.0:
        raise ValueError("factor must lie in (0, 1)")
    a, p = 1, k
    while p >= 1.0 / C:
        a += 1
        p *= k
        if a > cap:
            raise ValueError("no admissible power below cap; k too close to 1")
    return a


def banach_power(space: QuasiSpace, F, x0, k: float, max_steps: int = 200,
                 tol: float = 1e-12, seed: int = 0) -> BanachRun:
    """Fixed point for any verified factor k < 1: run the direct solver on
    the smallest power F^a with k^a < 1/C, then confirm the point is fixed
    by F itself."""
    measured = _measure_factor(space, F, k, seed)
    a = minimal_power(k, space.C)

    def Fa(x):
        for _ in range(a):
            x = F(x)
        return x

    run = banach_direct(space, Fa, x0, k ** a, max_steps=max_steps, tol=tol, seed=seed)
    z = run.fixed_point
    residual = space.phi(z, F(z))
    return BanachRun(
        start=x0, iterates=run.iterates, fixed_point=z, residual=float(residual),
        steps=run.steps, k_claimed=k, k_measured=measured, C=space.C,
        tail_bound_ok=run.tail_bound_ok, tail_margin=run.tail_margin,
        power=a, variant="power",
        notes=[f"iterated F^{a} with factor {k ** a:.6g} < 1/C"],
    )


def banach_multcost(space: QuasiSpace, F, x0, k: float, max_steps: int = 200,
                    tol: float = 1e-12, seed: int = 0) -> BanachRun:
    """Solver under the multiplicative-cost triangle inequality.

    Requires both the phi-contraction and the cost contraction
    psi(Fx, Fy, Fz) <= k * psi(x, y, z), the latter checked only on sampled
    triples where both sides are positive.  The asserted tail bound is the
    cost-inflated geometric series with the cost capped by its bound.
    """
    if space.psi is None or space.psi_bound is None:
        raise ValueError("space carries no cost function / bound")
    if not 0.0 < k < 1.0:
        raise ValueError("factor must lie in (0, 1)")
    M = float(space.psi_bound)
    rng = np.random.default_rng(seed)
    X = space.sample(rng, _CHECK_SAMPLES)
    Y = space.sample(rng, _CHECK_SAMPLES)
    Z = space.sample(rng, _CHECK_SAMPLES)
    for x, y, z in zip(X, Y, Z):
        cost = space.psi(x, y, z)
        if abs(cost) > M + 1e-12:
            raise ContractionViolation(
                f"cost function exceeds declared bound {M}", (x, y, z))
        mapped = space.psi(F(x), F(y), F(z))
        if mapped > 0.0 and cost > 0.0 and mapped > k * cost + 1e-9:
            raise ContractionViolation(
                f"cost contraction violated: {mapped:.6g} > {k} * {cost:.6g}",
                (x, y, z))
    measured = _measure_factor(space, F, k, seed + 1)
    iterates, residual = _iterate(space, F, x0, max_steps, tol)
    first = space.phi(iterates[0], iterates[1]) if len(iterates) > 1 else 0.0

    def bound_for(n: int, m: int) -> float:
        total = 0.0
        exponent = 0.0
        for j in range(m - n):
            exponent += M * k ** (n + j)
            total += k ** j * np.exp(exponent)
        return k ** n * first * total

    ok, margin = _check_tail(space, iterates, bound_for)
    return BanachRun(
        start=x0, iterates=iterates, fixed_point=iterates[-1],
        residual=float(residual), steps=len(iterates) - 1, k_claimed=k,
        k_measured=measured, C=space.C, tail_bound_ok=ok, tail_margin=margin,
        variant="multcost",
    )
