"""Shared helpers for the figure/table reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's Section 6
with a reduced repetition count (the paper uses 20; shapes are stable from
a handful), prints the regenerated rows, and asserts the qualitative
properties the paper reports.  ``pytest benchmarks/ --benchmark-only``
runs the whole evaluation; per-figure wall time is dominated by the
simulated bootstraps of the larger Rocketfuel networks.

Benchmarks execute through the experiment orchestration subsystem
(:mod:`repro.exp`): :func:`run_figure` resolves the figure id in the spec
registry and hands it to the parallel repetition runner.  Set
``REPRO_WORKERS=N`` to fan repetitions out over N worker processes — the
regenerated series are bit-identical to a serial run, only faster on
multi-core machines.

The regenerated rows are the actual deliverable, so :func:`emit` writes
them to the live terminal (bypassing pytest's capture) and, with
``REPRO_BENCH_RECORD=1``, to ``benchmarks/results/<figure>.txt``.  Every
committed result file is written only under that variable (see
:func:`write_result`), so a plain test run leaves the tree unchanged;
the assertions run either way.
"""

from __future__ import annotations

import os
import pathlib
import re
import sys
from typing import Dict, List

from repro.exp.runner import run_spec
from repro.exp.spec import ExperimentResult
from repro.sim.metrics import median

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Keyword arguments consumed by the runner itself; everything else a
#: benchmark passes is forwarded to the spec's case builder.
_RUNNER_ARGS = frozenset({"reps", "networks", "workers", "base_seed"})


def run_figure(figure: str, **kwargs) -> ExperimentResult:
    """Run one registered figure/table spec through the repetition runner.

    Spec-specific knobs (``controller_counts``, ``delays``, ``kill_counts``,
    ``fail_counts``, ...) ride along as spec params; the runner resolves
    the worker count (``REPRO_WORKERS`` override) when none is passed.
    """
    params = {k: v for k, v in kwargs.items() if k not in _RUNNER_ARGS}
    runner_kwargs = {k: v for k, v in kwargs.items() if k in _RUNNER_ARGS}
    return run_spec(figure, params=params or None, **runner_kwargs)


def emit(result: ExperimentResult) -> Dict[str, List[float]]:
    """Print the regenerated figure rows and persist them; returns the
    series for shape assertions."""
    text = "\n".join(result.rows())
    print(f"\n{text}", file=sys.__stdout__, flush=True)
    slug = re.sub(r"[^a-z0-9]+", "-", result.name.lower()).strip("-")
    write_result(RESULTS_DIR / f"{slug}.txt", text + "\n")
    return result.series


def write_result(path: pathlib.Path, text: str) -> None:
    """Persist a committed benchmark result — only when
    ``REPRO_BENCH_RECORD=1`` is set."""
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)


def med(values: List[float]) -> float:
    assert values, "experiment produced no data"
    return median(values)
