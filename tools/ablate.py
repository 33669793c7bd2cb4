"""Measure, end to end, what each fast path of ``twometric`` is worth.

Each row of ``tools/ablations.json`` is a list of exact text edits to
``src/twometric`` (a file, an old text that occurs there once, and its new
text) that swaps one fast path for its plain form, or sets a constant to a
neighbouring value.  For each row the tool copies ``src/``, ``perfbench/``
and ``BENCHMARK.json`` to a temporary directory and applies the edits there;
the tree as it stands gets a copy of its own, the parent.  Then it measures
the row and the parent in alternating pairs, the parent first in every
other pair:

* ``CLI_RUNS`` pairs of fresh runs of the row's ``cli`` call, a default CLI
  call that reaches the edit, by wall time;
* ``RSS_RUNS`` pairs of runs of each scaled config that the row names under
  ``rss``, by the child's peak RSS;
* ``BENCH_RUNS`` pairs of ``perfbench/run.py --seconds 30`` on every
  workload of ``BENCHMARK.json`` at seed 7, and as many at seed 57440 where
  seed 7 moved a metric that can keep the row.

A row is kept when the edit makes some timing metric of the benchmark
worse, with its median outside the parent's quartiles, on one workload at
every seed; when the median of its CLI runs, or of the peak RSS of one of
its configs, gets worse than the parent's by more than the parent's
quartile spread; or when the edit fails a check.  The benchmark's
``peak_rss_mb`` is recorded but keeps no row: it is the peak of a whole
benchmark process, and it moves with edits of code that the workload never
runs, so memory is judged at the row's configs only.  Every other row is
idle.  Run from the root of the repository:

    python3 tools/ablate.py --check
    python3 tools/ablate.py [--rows NAME ...] [--json FILE]

``--check`` runs no benchmark: it asks that every anchor of every row
occurs exactly once, that the edited modules compile, that every config a
row names is in ``rss_configs``, and that the row's ``cli`` call parses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "src")]
from code_lines import code_lines  # noqa: E402
LEDGER = ROOT / "tools" / "ablations.json"
SEEDS = ("7", "57440")
# the benchmark's metric that keeps no row
WHOLE_PROCESS_RSS = "peak_rss_mb"
BENCH_RUNS, CLI_RUNS, RSS_RUNS = 10, 30, 5


def ledger() -> dict:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def edited(row: dict) -> dict:
    """The sources the row's edits give, by path from the root; a
    ``ValueError`` names an anchor that does not occur exactly once."""
    out = {}
    for edit in row["edits"]:
        path, old = edit["file"], "\n".join(edit["old"])
        text = out.get(path) or (ROOT / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise ValueError(f"{row['name']}: stale, {path} holds its anchor "
                             f"{text.count(old)} times: {edit['old'][0].strip()!r}")
        out[path] = text.replace(old, "\n".join(edit["new"]))
    return out


def removed_lines(sources: dict) -> int:
    return sum(code_lines((ROOT / path).read_text(encoding="utf-8")) - code_lines(text)
               for path, text in sources.items())


def cli_argv(row: dict) -> list:
    """The row's ``cli`` call, ``{root}`` filled in with the checkout."""
    return [a.replace("{root}", str(ROOT)) for a in row["cli"]]


def check(rows: list) -> int:
    """Print each row's state; 1 when a row is stale, does not compile,
    names a config that the ledger lacks or has a call that does not
    parse."""
    from twometric.cli import build_parser
    configs, bad = ledger()["rss_configs"], 0
    for row in rows:
        try:
            sources = edited(row)
            for path, text in sources.items():
                compile(text, path, "exec")
            for name in row.get("rss", []):
                if name not in configs:
                    raise ValueError(f"no config {name!r} in rss_configs")
            if row.get("cli"):
                try:
                    build_parser().parse_args(cli_argv(row))
                except SystemExit:
                    raise ValueError(f"cli does not parse: {row['cli']}") from None
            print(f"{row['name']:<24} applies, -{removed_lines(sources)} code lines")
        except (ValueError, SyntaxError) as exc:
            print(f"{row['name']:<24} {exc}")
            bad = 1
    return bad


def verdict(parent, edit, better="lower", spread=False) -> int:
    """1 where the median of ``edit`` reads worse than ``parent`` allows, -1
    where it reads better, 0 where it is level: outside the parent's
    quartiles, or with ``spread`` off the parent's median by more than the
    quartile spread."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    lo, hi = (statistics.median(parent) - (q3 - q1), statistics.median(parent) + (q3 - q1)) \
        if spread else (q1, q3)
    m = statistics.median(edit)
    return (1 if better == "lower" else -1) * ((m > hi) - (m < lo))


def decide(row: dict, metrics: list, seeds=SEEDS) -> dict:
    """The criteria that the row's runs move, each way, and its decision.
    ``row["bench"]`` holds, per seed, the parent's and the edit's runs: per
    workload, each end-to-end metric and the failed checks.  A benchmark
    metric counts where it moves the same way on one workload at every
    one of ``seeds``; ``WHOLE_PROCESS_RSS`` never counts."""
    metrics = [m for m in metrics if m["name"] != WHOLE_PROCESS_RSS]
    moved = {1: [], -1: []}
    for sign in moved:
        shared = None
        for seed in seeds:
            runs = row.get("bench", {}).get(seed, {"parent": [], "edit": []})
            found = {(w, m["name"]) for w in (runs["edit"][0] if runs["edit"] else {})
                     for m in metrics
                     if verdict(*([r[w][m["name"]] for r in runs[s]] for s in ("parent", "edit")),
                                m["better"]) == sign}
            shared = found if shared is None else shared & found
        moved[sign] += [f"bench: {w} {m}" for w, m in sorted(shared)]
        cli = row.get("cli_s")
        if cli and verdict(cli["parent"], cli["edit"], spread=True) == sign:
            moved[sign].append("cli")
        moved[sign] += [f"rss: {name}" for name, rss in row.get("rss_mb", {}).items()
                        if verdict(rss["parent"], rss["edit"], spread=True) == sign]
    if any(r[w]["failed"] for runs in row.get("bench", {}).values() for r in runs["edit"] for w in r):
        moved[1].append("failed checks")
    return {"decision": "kept" if moved[1] else "idle", "worse": moved[1], "better": moved[-1]}


def pairs(count: int, run) -> dict:
    """``count`` alternating pairs of ``run("parent")`` and ``run("edit")``,
    the parent first in every other pair.  Pairs, not rounds of the parent
    and every row: with the parent at both ends of each round, it read
    faster than nearly every row, on workloads that an edit never reaches
    too (``BENCH_51.json``)."""
    out = {"parent": [], "edit": []}
    for i in range(count):
        for side in ("parent", "edit")[::1 - 2 * (i % 2)]:
            out[side].append(run(side))
    return out


def child(root: Path, argv: list, work: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of ``python3 argv`` on the sources
    under ``root``, run in ``work``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=work, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if status:
        raise RuntimeError(f"{argv} exited {status} on {root.name}")
    return time.perf_counter() - t, usage.ru_maxrss / 1024


def bench(root: Path, seed: str, workloads: list) -> dict:
    """One run of every workload at ``seed`` on the copy at ``root``."""
    out = {}
    for name in workloads:
        res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed",
                              seed, "--seconds", "30"], cwd=root, capture_output=True,
                             text=True, check=True)
        last = json.loads(res.stdout.strip().splitlines()[-1])
        out[name] = {k: v["value"] for k, v in last["metrics"].items()} | {"failed": last["failed"]}
    return out


def machine() -> dict:
    import numpy
    cpu = next((ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), "unknown")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def measure(row: dict, configs: dict, tmp: Path) -> None:
    """Runs the row against the tree as it stands, each side from its own
    copy under ``tmp``, and puts its runs and its decision in ``row``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, metrics = [w["name"] for w in spec["workloads"]], spec["end_to_end"]
    roots = {"parent": tmp / "parent", "edit": tmp / row["name"]}
    for side, sources in (("parent", {}), ("edit", edited(row))):
        if not roots[side].exists():
            for part in ("src", "perfbench"):
                shutil.copytree(ROOT / part, roots[side] / part)
            shutil.copy(ROOT / "BENCHMARK.json", roots[side])
        for path, text in sources.items():
            (roots[side] / path).write_text(text, encoding="utf-8")
    work = tmp / "work"
    if not work.exists():
        # every config runs once first, in the ledger's order, so that one
        # may read what an earlier one writes: t80 loads the file of table80
        work.mkdir()
        for argv in configs.values():
            child(roots["parent"], argv, work)
    if row.get("cli"):
        argv = ["-m", "twometric"] + cli_argv(row)
        row["cli_s"] = pairs(CLI_RUNS, lambda side: child(roots[side], argv, work)[0])
    for config in row.get("rss", []):
        row.setdefault("rss_mb", {})[config] = pairs(
            RSS_RUNS, lambda side: child(roots[side], configs[config], work)[1])
    # a seed past the first runs only where the seeds before it moved the
    # benchmark
    row["bench"] = {}
    for k, seed in enumerate(SEEDS):
        if k and not any(m.startswith("bench") for key in ("worse", "better")
                         for m in decide(row, metrics, SEEDS[:k])[key]):
            break
        row["bench"][seed] = pairs(BENCH_RUNS, lambda side: bench(roots[side], seed, workloads))
    row.update(decide(row, metrics))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="check the edits; run no benchmark")
    ap.add_argument("--rows", nargs="+", help="measure these rows only")
    ap.add_argument("--json", help="write every run and decision to this file")
    args = ap.parse_args(argv)
    book = ledger()
    if args.check:
        return check(book["rows"])
    rows = [dict(r) for r in book["rows"] if not args.rows or r["name"] in args.rows]
    result = {"machine": machine(), "bench_runs": BENCH_RUNS, "cli_runs": CLI_RUNS,
              "rss_runs": RSS_RUNS, "rows": []}
    with tempfile.TemporaryDirectory(prefix="ablate-") as tmp:
        for row in rows:
            row["code_lines"] = removed_lines(edited(row))
            measure(row, book["rss_configs"], Path(tmp))
            print(f"{row['name']:<24} -{row['code_lines']:<3} {row['decision']:<5} "
                  f"worse: {', '.join(row['worse']) or '-'}; "
                  f"better: {', '.join(row['better']) or '-'}", flush=True)
            # written after every row, so a long run leaves the rows it measured
            result["rows"].append(row)
            if args.json:
                Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
