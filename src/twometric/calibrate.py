"""Regenerate the committed baseline file from the two oracle runs.

Usage: python -m twometric.calibrate [--out PATH]

The configurations here are the committed ones; changing them invalidates
the regression checks in the test suite.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .certify import calibrate_ratio_constant
from .core import _write_json
from .spaces import convexity_bound

CONVEXITY_CONFIG = {"radius": 0.2, "samples": 10000, "seed": 20260808}
CERTIFIER_CONFIG = {
    "patch_radius": 0.2,
    "inner_radius": 0.1,
    "norm_bound": 2.0,
    "matrices": 200,
    "triples": 500,
    "max_condition": 4.0,
    "seed": 20260808,
}


def build_baselines() -> dict:
    conv = convexity_bound(**CONVEXITY_CONFIG)
    cert = calibrate_ratio_constant(**CERTIFIER_CONFIG)
    return {"convexity": conv.to_json(), "certifier": cert}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = Path(__file__).parent / "data" / "baselines.json"
    parser.add_argument("--out", type=Path, default=default_out)
    args = parser.parse_args(argv)
    payload = build_baselines()
    _write_json(args.out, payload)
    print(f"wrote {args.out}")
    print(f"  convexity C       = {payload['convexity']['C']:.6f}")
    print(f"  certifier C_prime = {payload['certifier']['C_prime']:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
