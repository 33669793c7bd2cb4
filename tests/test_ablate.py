"""The fast-path ledger of ``tools/ablate.py``: every row's edits apply to
the tree, and its decision rule reads fixed run outputs as documented."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from twometric.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ablate.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ablate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ablate = load_tool()
ROWS = ablate.ledger()["rows"]
METRICS = [{"name": "verdict_p50_s", "better": "lower"},
           {"name": "verdicts_per_s", "better": "higher"}]


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_each_row_applies_once_and_compiles(row):
    sources = ablate.edited(row)
    assert sources and all(path.startswith("src/twometric/") for path in sources)
    for path, text in sources.items():
        compile(text, path, "exec")


def test_a_missing_anchor_is_stale():
    row = {"name": "renamed", "edits": [{"file": "src/twometric/core.py",
                                         "old": ["def _no_such_name():"], "new": [""]}]}
    with pytest.raises(ValueError, match="stale"):
        ablate.edited(row)
    assert ablate.check([row]) == 1


def applying(**row):
    return {"name": "probe", "edits": ROWS[0]["edits"], **row}


def anchor_spans(row):
    """The file and the first and last line of each anchor of the row."""
    out = []
    for edit in row["edits"]:
        text = (ablate.ROOT / edit["file"]).read_text(encoding="utf-8")
        first = text[:text.index("\n".join(edit["old"]))].count("\n") + 1
        out.append((edit["file"].removeprefix("src/"), first, first + len(edit["old"]) - 1))
    return out


def code_span(code):
    """The first and last line of a function's code: its first line is its
    decorator's, where it has one."""
    return code.co_firstlineno, max(line for *_, line in code.co_lines() if line is not None)


def sets_a_constant(row):
    """Whether each edit of the row is one module-level line, such as
    ``_ROW_BUDGET = 1 << 13``, which no function's lines hold."""
    return all(len(e["old"]) == 1 and not e["old"][0].startswith(" ") for e in row["edits"])


@pytest.mark.parametrize("row", [r for r in ROWS if r.get("cli") and not sets_a_constant(r)],
                         ids=lambda row: row["name"])
def test_each_rows_cli_call_runs_an_edited_function(row, tmp_path):
    # the call that the ledger times for the row, in-process: some function
    # it runs holds an anchor of the row, so the edit is on its path
    called = set()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)
    try:
        main(ablate.cli_argv(row) + ["--out", str(tmp_path)])
    finally:
        sys.setprofile(None)
    spans = {(Path(code.co_filename).as_posix(), *code_span(code)) for code in called}
    assert any(path.endswith("/" + name) and first <= end and start <= last
               for name, start, end in anchor_spans(row) for path, first, last in spans)


def test_check_fails_a_config_missing_from_the_ledger(capsys):
    assert ablate.check([applying(rss=["a5w400"])]) == 0
    assert ablate.check([applying(rss=["a5w40"])]) == 1
    assert "no config 'a5w40'" in capsys.readouterr().out


def test_check_fails_a_cli_call_that_does_not_parse(capsys):
    assert ablate.check([applying(cli=["audit", "--table", "{root}/t.json"])]) == 0
    assert ablate.check([applying(cli=["audit", "--witneses", "400"])]) == 1
    assert "does not parse" in capsys.readouterr().out


def runs(p50, rate, count=10):
    """``count`` benchmark runs of one workload, p50 and rate spread by 1%."""
    return [{"w": {"verdict_p50_s": p50 * (1 + i / 100), "verdicts_per_s": rate * (1 + i / 100),
                   "failed": 0}} for i in range(count)]


def decide(seed7, seed57440, **row):
    bench = {seed: {"parent": runs(1.0, 100.0), "edit": edit}
             for seed, edit in (("7", seed7), ("57440", seed57440))}
    return ablate.decide({"bench": bench, **row}, METRICS)


def test_a_row_worse_at_seed_7_only_is_idle():
    got = decide(runs(1.2, 100.0), runs(1.0, 100.0))
    assert got == {"decision": "idle", "worse": [], "better": []}


def test_a_row_worse_at_both_seeds_is_kept():
    got = decide(runs(1.2, 100.0), runs(1.2, 100.0))
    assert got == {"decision": "kept", "worse": ["bench: w verdict_p50_s"], "better": []}


def test_a_row_better_on_one_metric_and_worse_on_another_is_kept():
    got = decide(runs(0.8, 80.0), runs(0.8, 80.0))
    assert got == {"decision": "kept", "worse": ["bench: w verdicts_per_s"],
                   "better": ["bench: w verdict_p50_s"]}


def decide_whole_process(metric, parent, edit):
    """The decision on a row whose runs read ``metric`` at ``parent`` and
    ``edit`` at both seeds, the edit's p50 as the parent's or 20% worse."""
    def bench(value, p50=1.0):
        return [{"w": r["w"] | {metric: value * (1 + i / 1000)}}
                for i, r in enumerate(runs(p50, 100.0))]
    # counted, the metric would read worse
    assert ablate.verdict(*([r["w"][metric] for r in bench(v)] for v in (parent, edit))) == 1
    return [ablate.decide({"bench": {seed: {"parent": bench(parent), "edit": bench(edit, p50)}
                                     for seed in ("7", "57440")}},
                          METRICS + [{"name": metric, "better": "lower"}])
            for p50 in (1.0, 1.2)]


def test_the_benchmarks_peak_rss_keeps_no_row():
    # a whole benchmark process's peak: it moves with edits the workload
    # never runs, so memory is judged at the row's configs only
    assert decide_whole_process("peak_rss_mb", 60.8, 61.2) == [
        {"decision": "idle", "worse": [], "better": []},
        {"decision": "kept", "worse": ["bench: w verdict_p50_s"], "better": []}]


def test_the_benchmarks_setup_time_keeps_no_row():
    # set-up imports numpy and the package and builds the inputs, and no
    # check of the workload runs in it
    assert decide_whole_process("setup_s", 0.169, 0.178) == [
        {"decision": "idle", "worse": [], "better": []},
        {"decision": "kept", "worse": ["bench: w verdict_p50_s"], "better": []}]


def test_a_memory_row_is_kept_on_its_peak_rss_alone():
    level = runs(1.0, 100.0)
    rss = {"cert1m": {"parent": [97.7, 97.8, 97.75, 97.72, 97.78],
                      "edit": [98.6, 98.7, 98.65, 98.62, 98.68]}}
    assert decide(level, level, rss_mb=rss) == {"decision": "kept", "worse": ["rss: cert1m"],
                                                "better": []}
    rss["cert1m"]["edit"] = [97.74, 97.76, 97.79, 97.71, 97.73]
    assert decide(level, level, rss_mb=rss)["decision"] == "idle"


def test_fresh_cli_runs_count_past_the_parents_quartile_spread():
    level = runs(1.0, 100.0)
    parent = [0.20 + i / 1000 for i in range(30)]
    slower = {"parent": parent, "edit": [t + 0.02 for t in parent]}
    assert decide(level, level, cli_s=slower)["worse"] == ["cli"]
    within = {"parent": parent, "edit": [t + 0.01 for t in parent]}
    assert decide(level, level, cli_s=within)["decision"] == "idle"


def test_pairs_alternate_which_side_runs_first():
    order = []
    got = ablate.pairs(3, lambda side: order.append(side) or len(order))
    assert order == ["parent", "edit", "edit", "parent", "parent", "edit"]
    assert got == {"parent": [1, 4, 5], "edit": [2, 3, 6]}


def test_a_failed_check_keeps_the_row():
    failing = runs(1.0, 100.0)
    failing[3]["w"]["failed"] = 1
    assert decide(failing, [])["worse"] == ["failed checks"]
