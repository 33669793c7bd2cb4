"""Time the blocked kernel scans of ``twometric`` at row budgets 2^12 to 2^16.

``core._ROW_BUDGET`` sizes every blocked scan: the values of one kernel
call in ``core._d_max`` and the rows of one block of the convexity sandwich
and of ``certify``'s conclusion (``spaces._SANDWICH_ROWS``, derived from
it).  For each budget this script times, in one process, per value
computed:

* ``_d_max`` scans of 1,024 columns and of 11,175 columns (the pairs of a
  150-point tail, as ``classify`` scans a 300-step orbit), by the det
  kernel's declared factors, by the det kernel alone (a wrapper that
  declares no factors), by the area kernel in 3, 5 and 9 dimensions and by
  the table lookup of a 40-point finite table;
* the same kernels on stacked rows, in blocks of the budget;
* the convexity sandwich, ``spaces._sandwich`` over blocks of
  ``_SANDWICH_ROWS`` triples with each ratio's running max;
* ``certify``'s conclusion on 20,000 and 200,000 triples, with the CLI's
  map (a certificate of one sample point, so the hypotheses cost next to
  nothing);

and, per tail, ``classify`` of 24 linear-map tails of 300-step orbits in
3-d with 64 witnesses, drawn as the benchmark's detect-linear checks draw
them.  The budgets are timed round-robin, so a drift of the host's speed
hits each alike, and each figure is the median over the rounds; the
``classify`` rounds run after all the kernel scans.

A process that has run those scans holds the allocator in another state
than a fresh one: glibc's malloc serves a buffer of 128 KiB or more by
``mmap`` until a larger one is freed, and gives the top of its heap back
to the system past a trim threshold, so a fresh process faults in the
pages of large buffers again and again.  So the script also runs
``detect_outcome`` on 12 such linear maps in fresh processes, one per
budget in each round, and reports the median time and the minor page
faults per call.  Last, it prints the ``tracemalloc`` peak of one kernel
call on stacked rows, in row-sized buffers of 8-byte floats, and that of
the two ``certify`` conclusions at each budget, in MB.  Run from the root
of the repository:

    PYTHONPATH=src python3 tools/row_budget_sweep.py [--rounds 7] [--json FILE]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np

from twometric import core, spaces
from twometric.baselines import certifier_baseline
from twometric.certify import CertInput, certify
from twometric.core import FiniteTwoMetricSpace, WitnessSet, broadcasting
from twometric.dynamics import detect_outcome, make_linear_map, orbit
from twometric.lines import Thresholds, classify
from twometric.spaces import (SpherePatch, area_ball_space, det_metric_batch, det_sphere_space,
                              sample_sphere)

BUDGETS = [1 << p for p in range(12, 17)]
# _d_max scans of (rows x columns): 1,024 columns, and the 11,175 pairs of a
# 150-point tail, as ``classify`` scans a 300-step orbit; 2^21 values each
SCANS = {"1,024 columns": (2048, 1024), "11,175 columns": (188, 11175)}
STACKED = 1 << 17                     # rows of a stacked scan, and sandwich triples
CERTIFY = (20_000, 200_000)           # triples of the certify conclusions
LIBRARY = core._ROW_BUDGET, spaces._SANDWICH_ROWS
# the module, which the package's name ``certify`` hides behind the function
CERTIFY_MODULE = importlib.import_module("twometric.certify")


def set_budget(budget: int) -> None:
    """Set ``_ROW_BUDGET``, and ``_SANDWICH_ROWS`` as the library derives it,
    in ``spaces`` and in ``certify``, which imports it."""
    core._ROW_BUDGET = budget
    spaces._SANDWICH_ROWS = CERTIFY_MODULE._SANDWICH_ROWS = budget * LIBRARY[1] // LIBRARY[0]


def cert_input() -> CertInput:
    """The certificate input of ``twometric certify --A=0.6,-0.2,0.3,0.5``."""
    A = np.array([[0.6, -0.2], [0.3, 0.5]])
    base = certifier_baseline()
    F = broadcasting(lambda x: np.matmul(A, np.asarray(x, dtype=float)[..., None])[..., 0])
    return CertInput(map=F, jac_target=A, norm_bound=base["C_A"],
                     patch=SpherePatch(base["patch_r"]), inner_radius=base["inner_radius"],
                     ratio_constant=base["C_prime"])


def _unfactored(space):
    """The space with a kernel that broadcasts but declares no factors."""
    return replace(space, d_batch=broadcasting(lambda X, Y, Z: det_metric_batch(X, Y, Z)))


def scans(rng):
    """Each scan's name, a call that runs it once, and its value count."""
    sphere = det_sphere_space()
    table = FiniteTwoMetricSpace.from_points(sample_sphere(rng, 40), det_metric_batch).as_space()
    spaces_ = {"det, factored": (sphere, sample_sphere(rng, 512)),
               "det, broadcast": (_unfactored(sphere), sample_sphere(rng, 512))}
    for dim in (3, 5, 9):
        ball = area_ball_space(dim)
        spaces_[f"area, {dim}-d"] = ball, ball.sample(rng, 512)
    spaces_["table lookup"] = table, np.arange(40)
    out = {}
    for shape, (rows, columns) in SCANS.items():
        for name, (space, P) in spaces_.items():
            X = rng.integers(0, len(P), (rows, 1))
            Y, Z = rng.integers(0, len(P), (2, 1, columns))
            out[f"{name}, {shape}"] = (
                lambda space=space, P=P, X=X, Y=Y, Z=Z: core._d_max(space, X, Y, Z, P),
                rows * columns)

    # the kernels on stacked rows, in blocks of the budget, as the sandwich
    # scans its stacks
    def stacked(kernel, stacks):
        for i in range(0, STACKED, core._ROW_BUDGET):
            kernel(*(S[i:i + core._ROW_BUDGET] for S in stacks))

    for name, (space, P) in spaces_.items():
        if name != "det, broadcast":
            stacks = np.take(P, rng.integers(0, len(P), (3, STACKED)), axis=0)
            out[f"{name.removesuffix(', factored')}, stacked"] = (
                partial(stacked, space.d_batch, stacks), STACKED)
    patch = [SpherePatch(0.2).sample(rng, STACKED, radius=0.2) for _ in range(3)]

    def sandwich():
        upper = lower = -np.inf
        for i in range(0, STACKED, spaces._SANDWICH_ROWS):
            h, s = spaces._sandwich(*(S[i:i + spaces._SANDWICH_ROWS] for S in patch))
            upper, lower = np.maximum(upper, (h / s).max()), np.maximum(lower, (s / h).max())
        return upper, lower

    out["convexity sandwich"] = sandwich, STACKED
    inp = cert_input()
    for triples in CERTIFY:
        out[f"certify conclusion, {triples:,} triples"] = (
            partial(certify, inp, samples=1, ratio_triples=triples), triples)
    return out


def linear_maps(rng, count: int) -> list:
    """``count`` runs (map, start, witnesses, seed) of 300-step linear-map
    orbits, as the benchmark's detect-linear checks draw them."""
    runs = []
    for _ in range(count):
        map_ = make_linear_map(np.linalg.qr(rng.normal(size=(3, 3)))[0],
                               float(rng.uniform(0.5, 0.7)))
        x0 = rng.normal(size=3)
        x0 *= 0.45 * rng.random() / np.linalg.norm(x0)
        seed = int(rng.integers(2 ** 31))
        runs.append((map_, x0, WitnessSet.sampled(map_.space, 64, seed), seed))
    return runs


def linear_tails(rng, count=24):
    """A call that classifies ``count`` linear-map orbits, and the count."""
    tails = [(map_.space, orbit(map_, x0, 300, W).points, W)
             for map_, x0, W, _ in linear_maps(rng, count)]
    return lambda: [classify(*tail, Thresholds()) for tail in tails], count


def fresh_detect(budget: int, rounds: int = 6) -> dict:
    """In this process, the median ms per ``detect_outcome`` call over rounds
    of 12 linear maps, the first round not counted, and the minor page
    faults per call of the last round."""
    set_budget(budget)
    runs = linear_maps(np.random.default_rng(5), 12)
    times = []
    for _ in range(rounds):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t = time.perf_counter()
        for map_, x0, W, seed in runs:
            detect_outcome(map_, x0, 300, W, seed=seed)
        times.append((time.perf_counter() - t) / len(runs) * 1e3)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"ms": statistics.median(times[1:]), "faults": faults / len(runs)}


def buffers(rng, rows=1 << 14) -> dict:
    """The ``tracemalloc`` peak of one kernel call on ``rows`` stacked rows,
    in buffers of ``rows`` floats, inputs not counted."""
    cases = {"det": (det_metric_batch, 3)}
    cases.update({f"area, {dim}-d": (area_ball_space(dim).d_batch, dim) for dim in (3, 5, 9)})
    out = {}
    for name, (kernel, dim) in cases.items():
        X, Y, Z = rng.random((3, rows, dim))
        tracemalloc.start()
        kernel(X, Y, Z)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[name] = round(peak / (8 * rows), 2)
    return out


def certify_peaks() -> dict:
    """The ``tracemalloc`` peak of each certify conclusion at each budget,
    in MB, after one untraced call."""
    inp = cert_input()
    out = {f"{triples:,} triples": {} for triples in CERTIFY}
    try:
        for triples in CERTIFY:
            for budget in BUDGETS:
                set_budget(budget)
                certify(inp, samples=1, ratio_triples=triples)
                tracemalloc.start()
                certify(inp, samples=1, ratio_triples=triples)
                out[f"{triples:,} triples"][str(budget)] = round(
                    tracemalloc.get_traced_memory()[1] / 1e6, 3)
                tracemalloc.stop()
    finally:
        set_budget(LIBRARY[0])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--json", help="also write the results to this file")
    parser.add_argument("--fresh-detect", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fresh_detect:              # one fresh process of the last part
        print(json.dumps(fresh_detect(args.fresh_detect)))
        return 0
    rng = np.random.default_rng(0)
    # the kernel scans, then classify apart, so the scans leave no cache
    # state that the classify rounds read
    groups = [scans(rng), {"classify, linear tails": linear_tails(np.random.default_rng(1))}]
    times = {name: {b: [] for b in BUDGETS} for todo in groups for name in todo}
    try:
        for todo in groups:
            for _ in range(args.rounds):
                for budget in BUDGETS:
                    set_budget(budget)
                    for name, (run, values) in todo.items():
                        t = time.perf_counter()
                        run()
                        times[name][budget].append((time.perf_counter() - t) / values * 1e9)
    finally:
        set_budget(LIBRARY[0])
    fresh = {b: [] for b in BUDGETS}
    for _ in range(args.rounds):
        for budget in BUDGETS:
            child = subprocess.run([sys.executable, __file__, "--fresh-detect", str(budget)],
                                   capture_output=True, text=True, check=True)
            fresh[budget].append(json.loads(child.stdout))
    tails = times.pop("classify, linear tails")
    result = {
        "ns_per_value": {name: {str(b): round(statistics.median(t), 2) for b, t in by.items()}
                         for name, by in times.items()},
        "classify_linear_tail_ms": {str(b): round(statistics.median(t) / 1e6, 3)
                                    for b, t in tails.items()},
        "fresh_detect_linear_ms": {str(b): round(statistics.median(r["ms"] for r in runs), 3)
                                   for b, runs in fresh.items()},
        "fresh_detect_linear_faults": {str(b): statistics.median(r["faults"] for r in runs)
                                       for b, runs in fresh.items()},
        "buffers_per_kernel_call": buffers(rng),
        "certify_peak_mb": certify_peaks(),
        "rounds": args.rounds,
    }
    print(f"{'ns per value':<38}" + "".join(f"{'2^' + str(b.bit_length() - 1):>9}"
                                            for b in BUDGETS))
    for name, by in result["ns_per_value"].items():
        print(f"{name:<38}" + "".join(f"{v:>9.2f}" for v in by.values()))
    for key, label in (("classify_linear_tail_ms", "classify, ms per linear tail"),
                       ("fresh_detect_linear_ms", "fresh detect_outcome, ms per call"),
                       ("fresh_detect_linear_faults", "fresh detect_outcome, faults per call")):
        print(f"{label:<38}" + "".join(f"{v:>9.2f}" for v in result[key].values()))
    for name, by in result["certify_peak_mb"].items():
        print(f"{'certify peak MB, ' + name:<38}" + "".join(f"{v:>9.2f}" for v in by.values()))
    print("row buffers per kernel call:", result["buffers_per_kernel_call"])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
