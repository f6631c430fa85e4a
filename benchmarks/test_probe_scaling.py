"""Scaling benchmark for the incremental legitimacy engine (ISSUE 6).

The legitimacy probe is the hot loop of every experiment: it runs every
``convergence_interval`` and re-derives Definition 1 from the ground
truth.  With dependency-tracked invalidation the steady-state probe walks
*zero* forwarding paths — only flows whose visited set was actually
perturbed since the last probe are re-walked.  This bench measures that
on growing fabrics, against the legacy epoch-clearing baseline
(``RouteCache.incremental = False``: every mutation drops the whole memo
and re-dirties every pair).

Metrics per topology:

- ``probe_walks``  — forwarding walks performed *inside* legitimacy
  probes (cache misses during ``is_legitimate``); the number the
  incremental engine drives to ~0.
- ``total_walks`` / ``cache_hits`` — all walks vs. memo hits over the
  whole bootstrap (includes the unavoidable first walk per flow and
  re-walks of genuinely changed flows).
- ``bootstrap_wall_s`` — host wall-clock for the full bootstrap.

Results land in ``benchmarks/results/probe-scaling.json`` (the committed
BENCH record, rewritten under ``REPRO_BENCH_RECORD=1``).
``REPRO_PROBE_SIZES`` (comma-separated specs) restricts the matrix —
CI's perf-smoke job runs ``fattree:4`` only.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Dict, Optional

from conftest import write_result
from repro.net.topologies import attach_controllers
from repro.scenarios.generators import parse_topology
from repro.sim.network_sim import NetworkSimulation, SimulationConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Fabrics ordered by size; the baseline (epoch-clearing) comparison only
#: runs on the small ones — on fattree:16 the baseline alone takes ~40 s,
#: which is exactly the cost this PR removes.
ALL_SPECS = ["fattree:4", "fattree:8", "jellyfish:20", "jellyfish:200"]
BASELINE_SPECS = {"fattree:4", "fattree:8"}


def _selected_specs():
    env = os.environ.get("REPRO_PROBE_SIZES")
    if not env:
        return ALL_SPECS
    wanted = [s.strip() for s in env.split(",") if s.strip()]
    return [s for s in ALL_SPECS if s in wanted] or wanted


def _measure(spec: str, incremental: bool, timeout: float = 600.0) -> Dict[str, float]:
    topology = parse_topology(spec, seed=0)
    attach_controllers(topology, 3, seed=0)
    sim = NetworkSimulation(topology, SimulationConfig(seed=0, theta=10))
    cache = sim.route_cache
    assert cache is not None
    cache.incremental = incremental

    probe_walks = 0
    inner = sim.is_legitimate

    def counting_probe(full: bool = False) -> bool:
        nonlocal probe_walks
        before = cache.misses
        result = inner(full=full)
        probe_walks += cache.misses - before
        return result

    sim.is_legitimate = counting_probe  # type: ignore[method-assign]

    start = time.perf_counter()
    converged = sim.run_until_legitimate(timeout=timeout)
    wall = time.perf_counter() - start
    assert converged is not None, f"{spec} bootstrap timed out ({timeout}s)"
    return {
        "converged_at": converged,
        "bootstrap_wall_s": round(wall, 3),
        "probe_walks": probe_walks,
        "total_walks": cache.misses,
        "cache_hits": cache.hits,
        "invalidations": cache.invalidations,
        "switches": len(topology.switches),
        "nodes": len(topology.nodes),
    }


def _emit_json(results: Dict[str, Dict[str, Optional[Dict[str, float]]]]) -> None:
    payload = {
        "bench": "probe-scaling",
        "seed": 0,
        "controllers": 3,
        "theta": 10,
        "specs": results,
    }
    write_result(
        RESULTS_DIR / "probe-scaling.json",
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    print(f"\nBENCH {json.dumps(payload, sort_keys=True)}", file=sys.__stdout__, flush=True)


def test_probe_scaling_incremental_vs_epoch_clearing():
    results: Dict[str, Dict[str, Optional[Dict[str, float]]]] = {}
    for spec in _selected_specs():
        incr = _measure(spec, incremental=True)
        base = _measure(spec, incremental=False) if spec in BASELINE_SPECS else None
        results[spec] = {"incremental": incr, "baseline": base}

        # Steady state: once legitimate, nothing is dirty between probes —
        # the convergence probe itself must walk (almost) nothing.  The
        # epoch-clearing baseline re-walks every pair every probe.
        if base is not None:
            assert base["probe_walks"] >= 5 * max(1, incr["probe_walks"]), (
                spec,
                base["probe_walks"],
                incr["probe_walks"],
            )
            # Identical convergence instant: the cache discipline must not
            # change simulation semantics, only host-side work.
            assert base["converged_at"] == incr["converged_at"]
        # The first walk of each flow is unavoidable; the memo must be
        # doing real work beyond that.
        assert incr["cache_hits"] > incr["total_walks"]

    _emit_json(results)


def test_fattree16_bootstrap_completes():
    """The scale unlock: fattree:16 (320 switches) bootstraps to
    legitimacy in seconds — previously ~40 s of host time, dominated by
    epoch-cleared probe re-walks."""
    env = os.environ.get("REPRO_PROBE_SIZES")
    if env and "fattree:16" not in env:
        import pytest

        pytest.skip("REPRO_PROBE_SIZES excludes fattree:16")
    stats = _measure("fattree:16", incremental=True, timeout=600.0)
    # Near-zero: the converging probe may re-walk the handful of flows
    # whose rules landed just before it fired, nothing else.
    assert stats["probe_walks"] <= 10
    print(
        f"\nfattree:16 bootstrap: {stats['bootstrap_wall_s']}s wall, "
        f"{stats['total_walks']} walks, {stats['cache_hits']} hits",
        file=sys.__stdout__,
        flush=True,
    )
