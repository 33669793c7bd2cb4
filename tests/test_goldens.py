"""The golden artifacts under ``tests/data/``: every CLI run whose files are
compared byte for byte, JSON with the timestamp blanked, the same bytes at
other row budgets, and classify of a demo trace against the classification
its outcome holds.  The 12-point table's runs are checked in
``test_table_store.py``, beside its bytes."""

from __future__ import annotations

import importlib
import json

import pytest

from conftest import TABLE12, check_golden
from twometric import core, spaces
from twometric.cli import main

# golden directory -> (files copied in from it, commands run there with
# their exit codes, files compared with it).  The commands take relative
# paths, so the echoed config matches the committed one.
GOLDENS = {
    "demo_equator": ((), [(["demo-equator"], 0)], ("outcome.json", "trace.csv")),
    "iterate": ((), [(["iterate"], 0)], ("iterate.json", "trace.csv")),
    "iterate_linear": ((), [(["iterate", "--map=linear"], 0)], ("iterate.json", "trace.csv")),
    "certify": ((), [(["certify"], 0)], ("certify.json",)),
    "certify_quad05": ((), [(["certify", "--quad=0.5"], 1)], ("certify.json",)),
    "banach": ((), [(["banach"], 0)], ("banach.json",)),
    "banach_k09": ((), [(["banach", "--k=0.9"], 0)], ("banach.json",)),
    "banach_multcost": ((), [(["banach", "--variant=multcost"], 0)], ("banach.json",)),
    "convexity": ((), [(["convexity"], 0)], ("convexity.json",)),
    # the 300-step demo-equator trace: a 150-point tail, past 120 points,
    # whose triple modulus is read off the candidate scan over every triple
    "classify_demo300": (("trace.csv",), [(["classify", "--input=trace.csv"], 0)],
                         ("classification.json",)),
    # linear-map traces on the area ball (``iterate --map=linear --k=0.95
    # --angle=1.7``): 300 steps scan every pair of the tail, 500 steps a
    # seeded subsample of the pairs
    **{f"classify_linear{steps}": (("trace.csv",), [(
        ["classify", "--space=area-ball", "--witnesses=64", "--input=trace.csv"], 0)],
        ("classification.json",)) for steps in (300, 500)},
    "audit_det_sphere": ((), [(["audit", "--space=det-sphere", "--samples=10000"], 0)],
                         ("audit.json",)),
    "audit_area_ball5": ((), [(["audit", "--space=area-ball", "--dim=5"], 0)], ("audit.json",)),
}


@pytest.mark.parametrize("golden", GOLDENS)
def test_golden_bytes(tmp_path, monkeypatch, golden):
    monkeypatch.chdir(tmp_path)
    check_golden(tmp_path, golden, *GOLDENS[golden])


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 15, 2 ** 20])
@pytest.mark.parametrize("golden, run", [
    *(pytest.param(golden, run, id=golden) for golden, run in GOLDENS.items()),
    *(pytest.param("table12", run, id=f"table12-{name}") for name, run in TABLE12.items()),
])
def test_golden_bytes_at_another_row_budget(tmp_path, monkeypatch, golden, run, budget):
    # core owns the budget, classify's candidate scan and its cuts included;
    # 2 ** 15 and 2 ** 14 were budgets before 2 ** 13.  spaces derives the
    # sandwich blocks from it once, at import, and certify binds its own
    # copy, so both are set too; ``twometric.certify`` names the function,
    # not the module
    monkeypatch.setattr(core, "_ROW_BUDGET", budget)
    for module in (spaces, importlib.import_module("twometric.certify")):
        monkeypatch.setattr(module, "_SANDWICH_ROWS", budget * 7 // 16)
    monkeypatch.chdir(tmp_path)
    check_golden(tmp_path, golden, *run)


@pytest.mark.parametrize("steps", [200, 300])
def test_classify_of_a_demo_trace_gives_its_outcome_classification(tmp_path, steps):
    # tails of 100 and 150 points: the triple modulus over every tail triple
    assert main(["demo-equator", "--steps", str(steps), "--out", str(tmp_path)]) == 0
    assert main(["classify", "--input", str(tmp_path / "trace.csv"),
                 "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "classification.json").read_text(encoding="utf-8"))
    want = json.loads((tmp_path / "outcome.json").read_text(encoding="utf-8"))
    assert got["classification"] == want["outcome"]["classification"]
