#!/usr/bin/env python3
"""Run one benchmark workload; print its result as the last stdout line.

    python3 perfbench/run.py --workload bootstrap-jf200 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the same operation in three arms — untraced, under
``repro.obs.use_telemetry`` (alternating which goes first) and with the
benchmark's layer spans — and reports the per-layer metrics of the
spanned arm plus both overhead ratios.  Metric names and units come from
``BENCHMARK.json``; every run appends a full record (provenance, all
metrics) to ``perfbench/out/results.jsonl`` and a traced run also writes
its spans to ``perfbench/out/spans-<workload>-seed<n>.json``.

Each operation's simulated outcome is hashed and compared with the
reference pinned in ``references.json`` for the workload and input seed;
a mismatch, a non-converged run or a warm re-read that differs counts
the operation as failed.  Successive operations of a run take successive
input seeds (see :func:`op_seed`), so a run covers several pinned inputs;
the traced arms all take the run's own input seed, so they compare like
with like.  ``--pin SEEDS`` recomputes references.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

#: Run seeds map onto a panel of input seeds (``seed % PANEL``), each with
#: a pinned reference outcome per workload.
PANEL = 32
#: An input seed no run seed maps to, kept out of use while the benchmark
#: and the changes it measures are developed; later performance claims
#: are re-checked on it (``--held-out``).
HELD_OUT_SEED = PANEL

MAX_OPS = 50
#: Arm order of a traced run, symmetric so every arm has the same mean
#: position (drift within a run cancels): the two untraced/telemetry
#: pairs run in opposite orders, the spanned arm sits in the middle.
TRACE_ARMS = ("untraced", "telemetry", "spanned", "spanned", "telemetry", "untraced")


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_references() -> Dict[str, Dict[str, Dict[str, str]]]:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text())
    return {}


def provenance(workload, run_seed: Optional[int], input_seed: int, seconds: int) -> Dict[str, Any]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": run_seed,
        "input_seed": input_seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "params": workload.params,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def op_seed(input_seed: int, index: int) -> int:
    """Input seed of a run's ``index``-th operation: a run walks the panel
    from its own seed, so its operations cover distinct pinned inputs; the
    held-out seed is repeated."""
    if input_seed >= PANEL:
        return input_seed
    return (input_seed + index) % PANEL


class Gate:
    """Checks each operation's digest against the reference pinned for its
    input seed (for a seed without one, against the first operation run
    on that seed)."""

    def __init__(self, references: Dict[str, Dict[str, str]]) -> None:
        self.references = references
        self.seen: Dict[int, str] = {}
        self.pinned = True
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def _expected(self, seed: int, key: str, digest: str) -> str:
        reference = self.references.get(str(seed))
        if reference is None:
            self.pinned = False
            return self.seen.setdefault(seed, digest) if key == "op" else digest
        return reference[key]

    def check(self, outcome, seed: int) -> None:
        self.attempted += outcome.ops
        if outcome.digest != self._expected(seed, "op", outcome.digest):
            self.failed += outcome.ops
            self.mismatches.append(outcome.digest)
        else:
            self.failed += outcome.failed

    def check_finish(self, finish, seed: int) -> None:
        if finish.digest is None:
            return
        self.attempted += finish.attempted
        if finish.digest != self._expected(seed, "finish", finish.digest):
            self.failed += finish.attempted
            self.mismatches.append(finish.digest)
        else:
            self.failed += finish.failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(workload, seed: int, seconds: int, gate: Gate):
    from perfbench.tracing import Probe, patched, perf

    probe = Probe()
    with patched(probe.replacements()):
        workload.prepare()
        # Set-up cost can depend on the input (churn's controller placement
        # does), so every run samples the whole panel and reports the median.
        setup: List[float] = []
        for index in range(PANEL):
            gc.collect()
            setup.append(workload.setup_sample(op_seed(seed, index)))
        outcomes = []
        deadline = perf() + seconds
        while len(outcomes) < MAX_OPS:
            gc.collect()
            probe.reset()
            seed_j = op_seed(seed, len(outcomes))
            outcome = workload.op(seed_j, probe)
            gate.check(outcome, seed_j)
            outcomes.append(outcome)
            # Start another operation while at least half of one fits.
            if len(outcomes) >= workload.min_ops and (
                perf() + median([o.total for o in outcomes]) / 2 > deadline
            ):
                break
        gc.collect()
        probe.reset()
        finish = workload.finish(seed)
        gate.check_finish(finish, seed)

    metrics = {
        "op_wall_s": median([o.wall for o in outcomes]),
        "sim_events_per_s": median([o.events / (o.wall * o.ops) for o in outcomes]),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
    named.update(workload.named_metrics(outcomes, metrics))
    named.update(finish.metrics)
    detail = {"ops": len(outcomes), "op_walls": [o.wall for o in outcomes], "setup_samples": setup}
    return metrics, named, detail


def measure_traced(workload, seed: int, gate: Gate, out_dir: Path):
    from repro.obs import Telemetry, use_telemetry

    from perfbench.tracing import ROOT as ROOT_SPAN
    from perfbench.tracing import Probe, Recorder, layer_metrics, layer_replacements, patched

    probe = Probe()
    arms = []
    recorders: List[Recorder] = []
    with patched(probe.replacements()):
        workload.prepare()
        for arm in TRACE_ARMS:
            gc.collect()
            probe.reset()
            if arm == "untraced":
                outcome = workload.op(seed, probe)
            elif arm == "telemetry":
                with use_telemetry(Telemetry()):
                    outcome = workload.op(seed, probe)
            else:
                recorder = Recorder()
                recorders.append(recorder)
                with patched(layer_replacements(recorder)):
                    with recorder.span(ROOT_SPAN):
                        outcome = workload.op(seed, probe, recorder)
            gate.check(outcome, seed)
            arms.append((arm, outcome))

    def totals(name: str) -> List[float]:
        return [o.total for arm, o in arms if arm == name]

    untraced = statistics.mean(totals("untraced"))
    # The first pair runs untraced first, the second telemetry first.
    (u_first, u_last), (t_first, t_last) = totals("untraced"), totals("telemetry")
    after_untraced, before_untraced = t_first / u_first, t_last / u_last
    per_op = [layer_metrics(recorder) for recorder in recorders]
    metrics = {name: statistics.mean(m[name] for m in per_op) for name in per_op[0]}
    metrics.update(
        {
            "bench.untraced_wall_s": untraced,
            "bench.wrapper.overhead_ratio": statistics.mean(totals("spanned")) / untraced,
            "obs.telemetry.overhead_ratio": (after_untraced + before_untraced) / 2.0,
            "obs.telemetry.overhead_ratio_spread": abs(after_untraced - before_untraced),
            "obs.telemetry.ratio_second": after_untraced,
            "obs.telemetry.ratio_first": before_untraced,
        }
    )
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "input_seed": seed,
                "format": "[name, start, end, parent index]",
                "ops": [recorder.spans for recorder in recorders],
            }
        )
    )
    detail = {"arms": [[arm, o.total] for arm, o in arms], "spans": spans_path.name}
    return metrics, {}, detail


def select(declared: List[Dict[str, str]], values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Exactly the declared metrics, in declared order, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def pin(workload_cls, seeds: Sequence[int]) -> int:
    from perfbench.tracing import Probe, patched

    refs = load_references()
    OUT_DIR.mkdir(exist_ok=True)
    workload = workload_cls(OUT_DIR)
    probe = Probe()
    with patched(probe.replacements()):
        workload.prepare()
        for seed in seeds:
            probe.reset()
            outcome = workload.op(seed, probe)
            finish = workload.finish(seed)
            if outcome.failed or finish.failed:
                print(f"{workload.name} seed {seed}: operation failed, not pinned", file=sys.stderr)
                return 1
            entry = {"op": outcome.digest}
            if finish.digest is not None:
                entry["finish"] = finish.digest
            refs.setdefault(workload.name, {})[str(seed)] = entry
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"{workload.name} seed {seed}: {entry}", flush=True)
    return 0


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true", help="use the held-out input seed")
    parser.add_argument("--pin", metavar="SEEDS", help="pin references, e.g. 0-31")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.pin:
        return pin(WORKLOADS[args.workload], parse_seeds(args.pin))

    benchmark = load_benchmark()
    input_seed = HELD_OUT_SEED if args.held_out else args.seed % PANEL
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](OUT_DIR)
    gate = Gate(load_references().get(workload.name, {}))
    if args.trace:
        values, named, detail = measure_traced(workload, input_seed, gate, OUT_DIR)
        declared = benchmark["per_layer"]
    else:
        values, named, detail = measure_untraced(workload, input_seed, args.seconds, gate)
        declared = benchmark["end_to_end"]
    metrics = select(declared, values)
    correct = gate.failed == 0 and not gate.mismatches
    record = {
        "bench": "perfbench",
        "workload": workload.name,
        "trace": args.trace,
        **provenance(workload, None if args.held_out else args.seed, input_seed, args.seconds),
        "pinned": gate.pinned,
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "mismatches": gate.mismatches,
        "metrics": metrics,
        "workload_metrics": named,
        "detail": detail,
    }
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"# {workload.name} input seed {input_seed} "
          f"({'pinned references' if gate.pinned else 'not all pinned'}), "
          f"attempted {gate.attempted}, failed {gate.failed}")
    units = {"peak_rss_mb": "MB", "campaign_reps_per_s": "1/s", "sim_events_per_s": "1/s"}
    for name, value in named.items():
        print(f"#   {name} = {value:.6g} {units.get(name, 's')}")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
