"""Detection power of ``audit``'s sampled axioms: each planted defect is
named at every seed, and the clean spaces pass at every seed.

The planted spaces are the benchmark's: ``1.5 d`` on the det sphere breaks
B, and ``d + 1e-3 |x_0|`` on the det sphere and the 3-d ball breaks Sym.
Besides them each sampled axiom has a noise kernel on the det sphere that
breaks it on about 1-2% of its tuples, so a draw that lost that axiom's
law would miss it at some seeds.  The checks run as the benchmark's do:
128 witnesses, N non-fatal on the sphere.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from twometric import WitnessSet, area_ball_space, audit, det_sphere_space, sphere_witnesses
from twometric.spaces import area_metric_batch, det_metric_batch

SEEDS = range(50)
DET, BALL3, BALL5 = det_sphere_space(), area_ball_space(3), area_ball_space(5)


def cap(X, t):
    """1 where the first coordinate is above t: a cap of the sphere."""
    return (np.asarray(X)[..., 0] > t).astype(float)


def planted(space, kernel):
    return replace(space, name=f"{space.name}-planted", d_batch=kernel)


def skew(kernel):
    return lambda X, Y, Z: kernel(X, Y, Z) + 1e-3 * np.abs(np.asarray(X)[..., 0])


# the kernel that breaks each sampled axiom, and on what share of its
# tuples, measured on 2 * 10**5 of them
NOISE = {
    # an asymmetric bump on the first argument in a small cap: 1.5%
    "Sym": lambda X, Y, Z: det_metric_batch(X, Y, Z) + 1e-3 * cap(X, 0.99),
    # d only on triples inside a cap, so a fourth point outside it gives
    # a right side of 0: 1.2%
    "Tetr": lambda X, Y, Z: det_metric_batch(X, Y, Z) * cap(X, 0.5) * cap(Y, 0.5) * cap(Z, 0.5),
    # a floor on triples inside a cap, repeated points too: 1.0%
    "Z": lambda X, Y, Z: det_metric_batch(X, Y, Z) + 1e-3 * cap(X, 0.8) * cap(Y, 0.8) * cap(Z, 0.8),
    # values past 1 near orthonormal triples: 1.0%
    "B": lambda X, Y, Z: 1.05 * det_metric_batch(X, Y, Z),
    # doubled and clipped at 1, so the product outgrows the sum: 1.8%
    "Trans": lambda X, Y, Z: np.minimum(1.0, 2.0 * det_metric_batch(X, Y, Z)),
}

# (space, tuples, the axiom it must fail, or None for a clean space)
CASES = {
    "det-scale-1.5": (planted(DET, lambda X, Y, Z: 1.5 * det_metric_batch(X, Y, Z)), 2000, "B"),
    "det-skew": (planted(DET, skew(det_metric_batch)), 2000, "Sym"),
    "ball3-skew": (planted(BALL3, skew(area_metric_batch)), 1000, "Sym"),
    **{f"det-noise-{axiom}": (planted(DET, kernel), 2000, axiom) for axiom, kernel in NOISE.items()},
    "det": (DET, 2000, None),
    "ball3": (BALL3, 2000, None),
    "ball5": (BALL5, 2000, None),
}


def failing(space, tuples: int, seed: int) -> list[str]:
    """The axioms a benchmark-shaped audit at ``seed`` names."""
    on_sphere = space.name.startswith("det")
    W = sphere_witnesses(128, seed) if on_sphere else WitnessSet.sampled(space, 128, seed)
    report = audit(space, witnesses=W, triples=tuples, seed=seed)
    return report.failing(("N",) if on_sphere else ())


@pytest.mark.parametrize("name", CASES)
def test_each_planted_defect_is_named_and_each_clean_space_passes_at_every_seed(name):
    space, tuples, must_fail = CASES[name]
    named = {seed: failing(space, tuples, seed) for seed in SEEDS}
    if must_fail is None:
        assert {seed: f for seed, f in named.items() if f} == {}
    else:
        assert [seed for seed, f in named.items() if must_fail not in f] == []
