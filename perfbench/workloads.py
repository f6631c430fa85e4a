"""The three benchmark workloads, each driving only the public API.

Every workload is closed-loop and single-process: one operation at a
time, ``workers=1`` pinned wherever a runner could fan out.  The run's
input seed is passed to :meth:`Workload.op`; an operation returns an
:class:`Outcome` whose ``digest`` hashes the simulated results (never
host timings) so they can be checked against the pinned references.

The networks are fixed at the repository's yardsticks — jellyfish:200
and fattree:8, generated and placed at seed 0 — and the seed drives
what varies between runs of the same network: the simulation's event
randomness (bootstrap), the per-repetition placements and campaigns
(churn), and the generated flow workload (traffic).  Holding the network
and the traffic fault schedule fixed keeps the per-run cost comparable
across seeds (the 10⁶-flow campaign's host time scales with its fault
count, which a per-seed churn draw varies between 1 and 7).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.tracing import RUNNER, Probe, Recorder, perf


@dataclass
class Outcome:
    """One operation's result.

    ``wall`` is the host time the end-to-end metric reports and ``total``
    everything the operation did (the traced root span covers ``total``);
    ``ops``/``failed`` count the operations it stands for (one bootstrap,
    one traffic run, or one campaign repetition each).
    """

    wall: float
    total: float
    events: int
    digest: str
    ops: int = 1
    failed: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Finish:
    """Measurements a workload makes once, after its operations."""

    metrics: Dict[str, float] = field(default_factory=dict)
    digest: Optional[str] = None
    attempted: int = 0
    failed: int = 0


def run_digest(runs: Sequence[Tuple[Any, int]], extra: Any = None) -> str:
    """sha256 over each run's record (host timings excluded) with its
    simulator event count, plus any workload-specific outputs."""
    docs = []
    for result, steps in runs:
        doc = result.to_dict()
        doc.pop("timings", None)
        docs.append([doc, steps])
    payload = json.dumps(
        {"runs": docs, "extra": extra}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class Workload:
    """Base class.  Constructor keywords override the full-size inputs
    (the tests run every workload at a smoke size)."""

    name = ""
    #: Fewest operations a run makes, however long they take.
    min_ops = 3

    def __init__(self, scratch: Path, **size: Any) -> None:
        self.scratch = scratch
        for key, value in size.items():
            if not hasattr(self, key):
                raise TypeError(f"{self.name} has no input {key!r}")
            setattr(self, key, value)

    @property
    def params(self) -> Dict[str, Any]:
        """The fixed inputs and sizes, recorded in every result."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the fixed inputs and run a tiny operation so imports and
        lazy set-up are paid before anything is timed."""

    def setup_sample(self, seed: int) -> float:
        """Host seconds of one set-up: topology resolution, simulation
        construction and (traffic) workload generation."""
        raise NotImplementedError

    def op(self, seed: int, probe: Probe, rec: Optional[Recorder] = None) -> Outcome:
        raise NotImplementedError

    def finish(self, seed: int) -> Finish:
        return Finish()

    def named_metrics(self, outcomes: List[Outcome], metrics: Dict[str, float]) -> Dict[str, float]:
        """The workload's own end-to-end figures, by their usual names."""
        return {}


class BootstrapJF200(Workload):
    """jellyfish:200 with 3 controllers and θ=10, from empty tables to
    legitimacy.  The network is generated and placed at seed 0 (the
    ROADMAP yardstick); the input seed is the simulation's own seed."""

    name = "bootstrap-jf200"
    topology = "jellyfish:200"
    controllers = 3
    theta = 10

    @property
    def params(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "network_seed": 0,
            "controllers": self.controllers,
            "theta": self.theta,
            "seed_drives": "SimulationConfig.seed",
        }

    def _plan(self, seed: int):
        from repro.api import Bootstrap, RunPlan

        return (
            RunPlan(self.topology, controllers=self.controllers, seed=0)
            .configure(theta=self.theta, seed=seed)
            .then(Bootstrap())
        )

    def prepare(self) -> None:
        from repro.api import Bootstrap, RunPlan

        RunPlan("fattree:4", controllers=3).configure(theta=10).then(Bootstrap()).run()

    def setup_sample(self, seed: int) -> float:
        started = perf()
        self._plan(seed).session()
        return perf() - started

    def op(self, seed: int, probe: Probe, rec: Optional[Recorder] = None) -> Outcome:
        started = perf()
        session = self._plan(seed).session()
        t_run = perf()
        result = session.run()
        ended = perf()
        ok = result.ok and result.bootstrap_time is not None
        return Outcome(
            wall=ended - t_run,
            total=ended - started,
            events=session.sim.sim.steps,
            digest=run_digest(probe.runs),
            failed=0 if ok else 1,
        )


    def named_metrics(self, outcomes: List[Outcome], metrics: Dict[str, float]) -> Dict[str, float]:
        return {
            "bootstrap_wall_s": metrics["op_wall_s"],
            "sim_events_per_s": metrics["sim_events_per_s"],
        }


class ChurnFT8(Workload):
    """A ``scenario`` sweep through ``run_spec``: fattree:8 × the ``mixed``
    campaign × ``reps`` repetitions, cold into a fresh run store, then a
    warm re-read of the same sweep.  The input seed is the sweep's base
    seed (each repetition's placement and campaign derive from it)."""

    name = "churn-ft8"
    topology = "fattree:8"
    campaign = "mixed"
    reps = 6

    @property
    def params(self) -> Dict[str, Any]:
        return {
            "spec": "scenario",
            "topology": self.topology,
            "campaign": self.campaign,
            "reps_per_sweep": self.reps,
            "workers": 1,
            "seed_drives": "run_spec base_seed",
        }

    def _sweep(self, seed: int, store: Path, rec: Optional[Recorder], reps: int, topology: str):
        from repro.exp.runner import run_spec

        kwargs = dict(
            reps=reps,
            workers=1,
            base_seed=seed,
            params={"topology": topology, "campaign": self.campaign},
            store=str(store),
        )
        if rec is None:
            return run_spec("scenario", **kwargs)
        with rec.span(RUNNER):
            return run_spec("scenario", **kwargs)

    def prepare(self) -> None:
        store = Path(tempfile.mkdtemp(prefix="warmup-", dir=self.scratch))
        try:
            self._sweep(0, store, None, reps=1, topology="fattree:4")
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def setup_sample(self, seed: int) -> float:
        from repro.api import RunPlan

        started = perf()
        RunPlan(self.topology, controllers=3, seed=seed).configure(
            task_delay=0.5, theta=10
        ).session()
        return perf() - started

    def op(self, seed: int, probe: Probe, rec: Optional[Recorder] = None) -> Outcome:
        reps = self.reps
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        try:
            started = perf()
            cold = self._sweep(seed, store, rec, reps, self.topology)
            t_warm = perf()
            warm = self._sweep(seed, store, rec, reps, self.topology)
            ended = perf()
        finally:
            shutil.rmtree(store, ignore_errors=True)
        series = json.dumps(cold.series, sort_keys=True)
        failed = reps - sum(len(values) for values in cold.series.values())
        cold_ok = (cold.cache_stats or {}).get("simulated") == reps
        warm_ok = (
            json.dumps(warm.series, sort_keys=True) == series
            and (warm.cache_stats or {}).get("hit") == reps
        )
        if not (cold_ok and warm_ok):
            failed = reps
        return Outcome(
            wall=(t_warm - started) / reps,
            total=ended - started,
            events=sum(steps for _result, steps in probe.runs),
            digest=run_digest(probe.runs, extra=cold.series),
            ops=reps,
            failed=failed,
            extra={"warm_s": ended - t_warm, "recovery_s": list(probe.recovery_s)},
        )


    def named_metrics(self, outcomes: List[Outcome], metrics: Dict[str, float]) -> Dict[str, float]:
        named = {
            "campaign_reps_per_s": 1.0 / metrics["op_wall_s"],
            "sim_events_per_s": metrics["sim_events_per_s"],
            "warm_reread_s": statistics.median(o.extra["warm_s"] for o in outcomes),
        }
        recovery = [r for o in outcomes for r in o.extra["recovery_s"]]
        if recovery:
            named["recovery_wall_s"] = statistics.median(recovery)
        return named


class TrafficJF200(Workload):
    """10⁶ flows on jellyfish:200 with no controllers through a churn
    campaign, then link-failure reconvergence cycles on a live engine.

    The network (seed 0) and the fault schedule — the churn campaign
    ``run_traffic(topology, seed=0, campaign="churn")`` draws — are fixed;
    the input seed drives the generated flows (pairs, sizes, arrivals)."""

    name = "traffic-jf200-1m"
    topology = "jellyfish:200"
    flows = 10**6
    pairs = 256
    duration = 12.0
    ecmp = 4
    cycles = 3

    @property
    def params(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "network_seed": 0,
            "controllers": 0,
            "flows": self.flows,
            "pairs": self.pairs,
            "duration": self.duration,
            "ecmp": self.ecmp,
            "campaign": "churn, drawn once from fault_rng(0)",
            "reconverge_cycles": self.cycles,
            "seed_drives": "workload generation",
        }

    def prepare(self) -> None:
        from repro.api import resolve_topology
        from repro.exp.seeding import fault_rng
        from repro.scenarios.campaigns import build_campaign
        from repro.traffic.spec import run_traffic

        self.network = resolve_topology(self.topology, seed=0)
        # The first plan of the seed-0 fault stream on this network.
        self.faults = build_campaign("churn", self.network, fault_rng(0))
        run_traffic("jellyfish:20", 0, flows=2000, pairs=32, duration=2.0)

    def _workload_spec(self):
        from repro.traffic.workload import WorkloadSpec

        return WorkloadSpec(flows=self.flows, pairs=self.pairs)

    def _plan(self, seed: int):
        from repro.api import RunPlan, Traffic

        phase = Traffic(
            workload=self._workload_spec(),
            duration=self.duration,
            plan=self.faults,
            ecmp=self.ecmp,
        )
        return RunPlan(self.network.copy(), controllers=0, seed=seed).then(phase)

    def setup_sample(self, seed: int) -> float:
        from repro.api import RunPlan, resolve_topology

        started = perf()
        network = resolve_topology(self.topology, seed=0)
        RunPlan(network, controllers=0, seed=seed).session()
        self._workload_spec().generate(
            hosts=network.switches, seed=seed, duration=self.duration
        )
        return perf() - started

    def op(self, seed: int, probe: Probe, rec: Optional[Recorder] = None) -> Outcome:
        started = perf()
        session = self._plan(seed).session()
        t_run = perf()
        result = session.run()
        ended = perf()
        ok = result.ok and (result.traffic or {}).get("completed", 0) > 0
        return Outcome(
            wall=ended - t_run,
            total=ended - started,
            events=session.sim.sim.steps,
            digest=run_digest(probe.runs),
            failed=0 if ok else 1,
        )

    def named_metrics(self, outcomes: List[Outcome], metrics: Dict[str, float]) -> Dict[str, float]:
        return {"traffic_campaign_wall_s": metrics["op_wall_s"]}

    def finish(self, seed: int) -> Finish:
        """Time link-failure reconvergence on a live engine: fail a link,
        stall the flows on it, replan the tenant rules around it and remap
        every flow (the repair must be lossless).  The link is restored,
        untimed, before the next cycle."""
        from repro.api import build_simulation
        from repro.sim.faults import random_link
        from repro.traffic.engine import FluidTrafficEngine
        from repro.traffic.routes import TenantFlows

        topology = self.network.copy()
        sim = build_simulation(topology, controllers=0, seed=seed)
        workload = self._workload_spec().generate(
            hosts=topology.switches, seed=seed, duration=self.duration
        )
        tenant = TenantFlows(topology, sim.switches, workload.pairs, ecmp=self.ecmp)
        tenant.install()
        engine = FluidTrafficEngine(topology, sim.switches, workload, max_paths=self.ecmp)
        engine.advance(0.5)  # admit and route every flow
        rng = random.Random(seed)
        walls: List[float] = []
        outputs: List[List[Any]] = []
        failed = 0
        for _ in range(self.cycles):
            u, v = random_link(topology, rng)
            started = perf()
            topology.set_link_up(u, v, False)
            stalled = engine.reroute(now=0.5)
            tenant.install()
            disrupted = engine.reroute(now=0.5, count_disruptions=False)
            walls.append(perf() - started)
            outputs.append([u, v, stalled, disrupted])
            if disrupted:
                failed += 1
            topology.set_link_up(u, v, True)
            tenant.install()
            engine.reroute(now=0.5, count_disruptions=False)
        return Finish(
            {"reconverge_wall_s": statistics.median(walls)},
            hashlib.sha256(json.dumps(outputs).encode()).hexdigest(),
            attempted=self.cycles,
            failed=failed,
        )


WORKLOADS = {cls.name: cls for cls in (BootstrapJF200, ChurnFT8, TrafficJF200)}
