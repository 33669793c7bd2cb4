"""Smoke test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload once untraced and twice traced, each in its own process,
and asserts that:
  * the last line of stdout is the result object, with every end-to-end
    (untraced) or per-layer (traced) metric of BENCHMARK.json and its unit,
    and the report above it prints each of them by name with its unit;
  * every verdict is right;
  * every count metric repeats exactly across the two traced runs;
  * a NaN-planted finite-tables run reports its failures as failed checks
    and no other check fails;
  * without the package sources next to it, the benchmark exits non-zero
    and prints no result.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, *extra: str) -> dict:
    proc = bench(workload, trace, *extra)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted], list(out["metrics"])
    report = "\n".join(lines[:-1])
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        assert any(ln.split()[:1] == [m["name"]] and m["unit"] in ln.split()
                   for ln in report.splitlines()), f"{m['name']} [{m['unit']}] not printed"
    return out


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = result(workload, 0)
        assert plain["correct"] and plain["failed"] == 0, (workload, plain)
        first, second = result(workload, 1), result(workload, 1)
        assert first["correct"] and second["correct"], workload
        for m in SPEC["per_layer"]:
            if m["unit"] == "count":
                a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
                assert a == b, f"{workload}: {m['name']} differs across traced runs: {a} != {b}"
        print(f"ok  {workload}: {plain['attempted']} checks; traced counts repeat")

    planted = result("finite-tables", 0, "--plant-nan")
    assert planted["failed"] <= 1, planted      # one NaN table per cycle, one cycle
    print(f"ok  finite-tables --plant-nan: {planted['failed']} of "
          f"{planted['attempted']} checks failed")

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("sampled-audit", 0, cwd=bare)
        assert proc.returncode != 0, "ran without the package sources"
        assert '"correct"' not in proc.stdout, "printed a result without the package"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass                    # a benchmark run still uses it
    print(f"ok  without src/: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
