"""Tests of the benchmark itself, at smoke sizes (the full workloads run
only through ``run.py``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare
from perfbench import run as bench
from perfbench.tracing import Probe, Recorder, patched, self_times
from perfbench.workloads import BootstrapJF200, ChurnFT8, TrafficJF200, run_digest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(cls, scratch):
    sizes = {
        BootstrapJF200: dict(topology="fattree:4"),
        ChurnFT8: dict(topology="fattree:4", reps=1),
        TrafficJF200: dict(topology="jellyfish:20", flows=2000, pairs=32, duration=2.0, cycles=1),
    }[cls]
    return cls(scratch, min_ops=1, **sizes)


# -- span arithmetic ----------------------------------------------------------------


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],  # sibling of b
        ["b", 5.0, 7.0, 0],
        ["c", 5.5, 6.5, 2],  # nested in b
        ["a", 8.0, 9.0, 0],  # second call of a
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 2.0 - 1.0)
    assert own["a"] == pytest.approx(3.0 + 1.0)
    assert own["b"] == pytest.approx(2.0 - 1.0)
    assert own["c"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["x", 1.0, 4.0, 0], ["y", 3.0, 6.0, 0], ["z", 9.0, 12.0, 0]]
    # children cover [1, 6] and [9, 10] of the root's interval
    assert self_times(spans)["root"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_spans_under_the_open_one():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    with rec.span("after"):
        pass
    assert [(name, parent) for name, _s, _e, parent in rec.spans] == [
        ("outer", -1),
        ("inner", 0),
        ("after", -1),
    ]


def test_patched_restores_the_originals():
    from repro.core.rules import RuleGenerator

    original = RuleGenerator.rules_for_view
    with patched([("repro.core.rules:RuleGenerator.rules_for_view", lambda fn: "wrapped")]):
        assert RuleGenerator.rules_for_view == "wrapped"
    assert RuleGenerator.rules_for_view is original


# -- correctness gate ---------------------------------------------------------------


def _bootstrap_outcome(tmp_path):
    workload = smoke(BootstrapJF200, tmp_path)
    probe = Probe()
    with patched(probe.replacements()):
        outcome = workload.op(0, probe)
    return outcome, probe.runs


def test_gate_accepts_the_pinned_outcome_and_rejects_an_altered_one(tmp_path):
    outcome, runs = _bootstrap_outcome(tmp_path)
    assert outcome.failed == 0
    assert run_digest(runs) == outcome.digest

    gate = bench.Gate({"0": {"op": outcome.digest}})
    gate.check(outcome, 0)
    assert (gate.attempted, gate.failed, gate.mismatches, gate.pinned) == (1, 0, [], True)

    result, steps = runs[0]
    result.metrics["rules_installed"] += 1
    altered = run_digest([(result, steps)])
    assert altered != outcome.digest
    outcome.digest = altered
    gate.check(outcome, 0)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.mismatches == [altered]


def test_gate_without_a_reference_checks_repeats_of_a_seed(tmp_path):
    outcome, _runs = _bootstrap_outcome(tmp_path)
    gate = bench.Gate({})
    gate.check(outcome, bench.HELD_OUT_SEED)
    gate.check(outcome, bench.HELD_OUT_SEED)
    assert (gate.attempted, gate.failed, gate.pinned) == (2, 0, False)
    outcome.digest = "0" * 64
    gate.check(outcome, bench.HELD_OUT_SEED)
    assert gate.failed == 1


def test_operations_walk_the_seed_panel():
    assert [bench.op_seed(30, j) for j in range(4)] == [30, 31, 0, 1]
    assert {bench.op_seed(bench.HELD_OUT_SEED, j) for j in range(4)} == {bench.HELD_OUT_SEED}


def test_digest_covers_the_event_count(tmp_path):
    _outcome, runs = _bootstrap_outcome(tmp_path)
    (result, steps), = runs
    assert run_digest([(result, steps)]) != run_digest([(result, steps + 1)])


def test_digest_ignores_host_timings(tmp_path):
    _outcome, runs = _bootstrap_outcome(tmp_path)
    (result, steps), = runs
    before = run_digest(runs)
    result.timings = [{"phase": "bootstrap", "wall_seconds": 1.0}]
    assert run_digest([(result, steps)]) == before


# -- smoke runs of every workload ---------------------------------------------------------


@pytest.mark.parametrize("cls", [BootstrapJF200, ChurnFT8, TrafficJF200])
def test_untraced_smoke_run_reports_every_end_to_end_metric(cls, tmp_path):
    workload = smoke(cls, tmp_path)
    gate = bench.Gate({})
    metrics, named, detail = bench.measure_untraced(workload, 0, 0, gate)
    assert gate.attempted >= 1 and gate.failed == 0 and not gate.mismatches
    selected = bench.select(BENCHMARK["end_to_end"], metrics)
    assert list(selected) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in selected.values())
    assert named["setup_s"] == metrics["setup_s"]
    assert list(tmp_path.iterdir()) == []  # stores and scratch removed


@pytest.mark.parametrize("cls", [BootstrapJF200, ChurnFT8, TrafficJF200])
def test_traced_smoke_run_reports_every_layer_and_matches_untraced(cls, tmp_path):
    workload = smoke(cls, tmp_path)
    gate = bench.Gate({})
    metrics, _named, detail = bench.measure_traced(workload, 0, gate, tmp_path)
    # Every arm — untraced, telemetry, spanned — hashed to the same outcome.
    assert gate.failed == 0 and not gate.mismatches
    assert [arm for arm, _total in detail["arms"]] == list(bench.TRACE_ARMS)
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) == declared
    assert metrics["bench.coverage"] > 0.9
    spans = json.loads((tmp_path / detail["spans"]).read_text())
    assert len(spans["ops"]) == bench.TRACE_ARMS.count("spanned")


def test_churn_counts_each_repetition_as_an_operation(tmp_path):
    workload = smoke(ChurnFT8, tmp_path)
    workload.reps = 2
    gate = bench.Gate({})
    bench.measure_untraced(workload, 0, 0, gate)
    assert gate.attempted == 2 and gate.failed == 0


# -- compare --------------------------------------------------------------------------


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, parent, "lower", 0.1)[0] == "unresolved"
    # 30% worse on the median, but losing only 8/10 pairs
    mixed = [v * 1.3 for v in parent[:8]] + [v * 0.9 for v in parent[8:]]
    assert compare.verdict(parent, mixed, "lower", 0.15)[0] == "regressed"


def test_compare_prints_one_row_per_workload():
    def record(workload, value):
        return {"workload": workload, "trace": 0, "metrics": {"op_wall_s": {"value": value, "unit": "s"}}}

    parent = [record("bootstrap-jf200", 6.0), record("churn-ft8", 1.5)] * 3
    change = [record("bootstrap-jf200", 5.0), record("churn-ft8", 1.5)] * 3
    lines = compare.compare(parent, change, BENCHMARK)
    rows = [line for line in lines if line.startswith("  ")]
    assert len(rows) == 2
    assert rows[0].split()[0] == "bootstrap-jf200" and rows[0].endswith("better")
    assert rows[1].split()[0] == "churn-ft8" and rows[1].endswith("same")


# -- the contract's empty-directory check -------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bootstrap-jf200", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
