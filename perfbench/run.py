"""Benchmark of the twometric checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout and nowhere else.  One process runs one workload as a closed
loop with one client: the next check starts when the previous one returns.
The human-readable report goes first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` its per-layer ones.  See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy is imported anywhere

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5          # set-ups per run; setup_s is their median
TAIL_BEYOND = 10           # checks beyond the tail percentile
TRACE_SHARE = 3            # a traced run traces one cycle in this many
STOP_AFTER = 1.25          # a run on a slowed machine stops after this many --seconds
# Wall time of each kind of reference work on the reference machine.
REF_S = {"numpy": 0.015, "python": 0.011}
REF_SETUP_RUNS = 5         # reference runs timed right after each set-up
REF_WINDOW = 16            # reference runs whose median scales one check


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one cycle of tiny inputs, for the self-test")
    ap.add_argument("--plant-nan", action="store_true",
                    help="finite-tables: put one NaN entry in one table of each cycle")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return (f"machine: nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def reference(kind: str):
    """A callable that runs a fixed piece of work and returns its wall time.

    The work does not use twometric.  ``numpy`` gathers and multiplies
    arrays the size of a 2000-tuple audit's stacked rows, memory-bound like
    the batch kernels; ``python`` is a scalar loop, like the table, orbit
    and single-pair code.  Neither allocates anything large, so its time
    does not depend on what the checks left in the allocator; the numpy
    arrays (14 MB) stay allocated while the callable lives.

    On a shared machine the speed left to one process drifts by up to 2x
    within a minute, and each kind of work drifts with the reference of its
    kind.  ``REF_S[kind]`` over the reference's time is the speed factor: a
    time multiplied by the factor measured next to it estimates the time on
    the reference machine.
    """
    if kind == "numpy":
        import numpy as np
        rows = np.full((2000 * 128, 3), 0.5)
        stacked = np.empty_like(rows)
        index = np.repeat(np.arange(2000), 128)

        def work():
            for _ in range(3):
                np.take(rows, index, axis=0, out=stacked)
                np.multiply(stacked, rows, out=stacked)
                stacked.sum()
    else:
        def work():
            x = 0.0
            for i in range(150000):
                x += i * 0.5

    def timed() -> float:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    return timed


def speed_factor(kind: str) -> float:
    timed = reference(kind)
    return REF_S[kind] / statistics.median(timed() for _ in range(REF_SETUP_RUNS))


def run_check(checks, ctx, check, tr):
    """Time one check's program calls, then verify them untimed.
    Returns (seconds, error or None, artifacts)."""
    execute, verify = checks.KINDS[check.kind]
    gc.collect()               # so no check pays for its predecessor's garbage
    t0 = time.perf_counter()
    try:
        out = execute(ctx, check.args, tr)
    except Exception as exc:  # one failed check must not stop the run
        return time.perf_counter() - t0, f"{check.kind}: raised {exc!r}", {}
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, None, verify(ctx, check.args, out)
    except Exception as exc:
        return elapsed, f"{check.kind}: {type(exc).__name__}: {exc}", {}


def warm_up(checks, ctx):
    """Run the first check of each kind once, untimed."""
    seen = set()
    for check in ctx.cycles[0]:
        if check.kind not in seen:
            seen.add(check.kind)
            run_check(checks, ctx, check, None)


def setup_seconds(checks, args, first: float) -> list[float]:
    """This process's set-up plus SETUP_REPEATS - 1 set-ups in fresh
    interpreters, each importing twometric and generating the inputs, and
    each scaled by the speed factor measured right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    cmd += ["--tiny"] * args.tiny + ["--plant-nan"] * args.plant_nan
    samples = [first * speed_factor(checks.REFERENCE[args.workload])]
    for _ in range(SETUP_REPEATS - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(res.stdout.strip().splitlines()[-1])
        samples.append(out["setup_s"] * out["speed"])
    return samples


def _fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def tail(times: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND checks beyond it."""
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    percentile = 100.0 * (len(ordered) - beyond) / len(ordered)
    return ordered[len(ordered) - 1 - beyond], percentile, beyond


def end_to_end(checks, ctx, args, setup_first):
    setups = setup_seconds(checks, args, setup_first)
    kind = checks.REFERENCE[args.workload]
    ref = reference(kind)
    warm_up(checks, ctx)
    # refs[i + 1] runs just before check i, refs[i + 2] just after it.
    refs, raw, errors, cycles = [ref()], [], [], []
    t0 = time.perf_counter()
    for ci, cycle in enumerate(ctx.cycles):
        c0, first = time.perf_counter(), len(raw)
        for check in cycle:
            refs.append(ref())
            elapsed, err, _ = run_check(checks, ctx, check, None)
            raw.append(elapsed)
            errors.append(err)
        loop_s = time.perf_counter() - c0 - sum(refs[first + 1:])
        cycles.append((first, len(raw), loop_s))
        if time.perf_counter() - t0 > STOP_AFTER * args.seconds and ci + 1 < len(ctx.cycles):
            print(f"perfbench: stopped after {ci + 1} of {len(ctx.cycles)} cycles, "
                  f"over {STOP_AFTER}x --seconds", file=sys.stderr)
            break
    refs.append(ref())
    wall = sum(s for _, _, s in cycles)
    n = len(raw)
    # Each check is scaled by the speed factor of the REF_WINDOW reference
    # runs around it, half before and half after, and a cycle's loop time
    # by its checks' factors weighted by their times.  A single factor per
    # run would miss drifts shorter than the run.
    half = REF_WINDOW // 2
    factors = [REF_S[kind] / statistics.median(refs[max(0, i + 2 - half):i + 2 + half])
               for i in range(n)]
    times = [t * f for t, f in zip(raw, factors)]
    speeds = [sum(times[a:b]) / sum(raw[a:b]) for a, b, _ in cycles]
    scaled_wall = sum(s * speed for (_, _, s), speed in zip(cycles, speeds))
    failed = sum(e is not None for e in errors)
    tail_s, pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_s,
        "verdicts_per_s": n / scaled_wall,
        "failed_ratio": failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of this process's set-up and {len(setups) - 1} in fresh "
                   f"interpreters: {_fmt(setups)}",
        "verdict_p50_s": f"unscaled {statistics.median(raw):.3f}",
        "verdict_tail_s": f"p{pct:.1f}: {beyond} of {n} checks beyond it; unscaled "
                          f"{tail(raw)[0]:.3f}",
        "verdicts_per_s": f"unscaled {n / wall:.3f}: {n} checks in {wall:.2f} s of loop "
                          f"time; speed factor per cycle {_fmt(speeds)}",
        "failed_ratio": f"{failed} of {n} checks failed",
    }
    return values, notes, errors


def traced(checks, tracing, ctx, spec):
    warm_up(checks, ctx)
    tr = tracing.Tracer()
    records, errors = [], []
    for cycle in ctx.cycles:
        for check in cycle:
            untraced_s, err, plain = run_check(checks, ctx, check, None)
            tr.roots = []
            traced_s, err_t, arts = run_check(checks, ctx, check, tr)
            if err is None and err_t is None and arts != plain:
                err_t = f"{check.kind}: traced artifacts differ from untraced ones"
            errors.append(err or err_t)
            summary = tracing.summarize(tr.roots)
            summary["metrics"]["cli.artifact_bytes"] = sum(
                len(raw) for name, raw in arts.items() if "." in name)
            records.append({"summary": summary, "untraced_s": untraced_s,
                            "traced_s": traced_s})
    values = tracing.layer_metrics(records, spec["per_layer"])
    values.update(checks.probes(ctx, tr))
    return values, {}, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twometric" / "__init__.py").is_file():
        print(f"perfbench: no twometric sources under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    checks = importlib.import_module("checks")
    import twometric
    if SRC.resolve() not in Path(twometric.__file__).resolve().parents:
        print(f"perfbench: imported twometric from {twometric.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in checks.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(checks.BUILDERS)}", file=sys.stderr)
        return 2
    cycles = 1 if args.tiny else max(2, round(args.seconds / checks.CYCLE_S[args.workload]))
    if args.trace:
        cycles = max(1, cycles // TRACE_SHARE)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    try:
        ctx = checks.setup(args.workload, args.seed, args.tiny, args.plant_nan, cycles, work)
        setup_first = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_first,
                              "speed": speed_factor(checks.REFERENCE[args.workload])}))
            return 0
        if args.trace:
            tracing = importlib.import_module("tracing")
            values, notes, errors = traced(checks, tracing, ctx, spec)
        else:
            values, notes, errors = end_to_end(checks, ctx, args, setup_first)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass                    # another run still uses it
    failed = [e for e in errors if e is not None]
    for err in failed[:5]:
        print(f"perfbench: failed check: {err}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={cycles} checks={len(errors)} (closed loop, 1 client)")
    print(machine())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # failed_ratio is printed but kept out of BENCHMARK.json, whose metrics
    # must never read 0; the JSON line carries it as failed / attempted.
    shown = wanted if args.trace else wanted + [{"name": "failed_ratio", "unit": "ratio"}]
    for m in shown:
        print(f"  {m['name']:<28} {values[m['name']]:<14.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(errors), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
