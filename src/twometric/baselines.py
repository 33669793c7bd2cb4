"""Committed empirical baselines.

The sandwich constant of the patch metric and the certifier's ratio
constant are existence results without closed forms; their values are
measured once by the oracle runs in ``twometric.calibrate`` with the
configurations stored alongside, and regression-checked at 5%.
"""

from __future__ import annotations

import json
from importlib import resources

REGRESSION_TOLERANCE = 0.05


def load_baselines() -> dict:
    path = resources.files("twometric").joinpath("data/baselines.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def convexity_baseline() -> dict:
    return load_baselines()["convexity"]


def certifier_baseline() -> dict:
    return load_baselines()["certifier"]


def within_regression(value: float, baseline: float) -> bool:
    return abs(value - baseline) <= REGRESSION_TOLERANCE * abs(baseline)
