"""Benchmark-side instrumentation: layer spans and the untraced probe.

Nothing under ``src/`` is edited.  The traced run replaces each layer's
public entry point (a class method or an imported module-level function)
with a wrapper that records a span — name, start, end and parent — into
an in-memory :class:`Recorder`; the originals are restored when the
``with`` block ends.  A layer's self time is its spans' duration minus
the part of that interval its child spans cover (:func:`self_times`).

Per-rule calls (``FlowTable.install``, ~557k per jellyfish:200 bootstrap)
are deliberately not wrapped: rule counts come from the arguments of
``replace_rules_of`` instead, and the table's forwarding ``version``
counter gives how many of the submitted rules actually changed anything.

The untraced :class:`Probe` wraps only ``RunSession.run`` and the two
fault phases (a handful of calls per run) to capture each run's record,
its simulator event count and its recovery host time.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

perf = time.perf_counter

#: One recorded span: [name, start, end, parent index (-1 for a root)].
Span = List[Any]


class Recorder:
    """In-memory span and counter sink for one traced operation."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        #: NetworkSimulation objects built while recording (for the
        #: route-cache counters read at the end of the operation).
        self.sims: List[Any] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per span name: each span's duration minus the union of
    its children's intervals (clipped to the span), summed over spans."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for idx, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def durations(spans: Sequence[Span]) -> Dict[str, float]:
    """Inclusive seconds per span name."""
    totals: Dict[str, float] = {}
    for name, start, end, _parent in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def call_counts(spans: Sequence[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


# -- patching -----------------------------------------------------------------


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` or ``"pkg.module:attr"`` → (owner, attr)."""
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(replacements: Sequence[Tuple[str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Replace each target with ``make(original)``; restore on exit."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for path, make in replacements:
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- the untraced probe ---------------------------------------------------------


class Probe:
    """Per-operation capture that stays on in untraced runs.

    ``runs`` holds ``(RunResult, Simulator.steps)`` per executed
    :class:`~repro.api.plan.RunSession`; ``recovery_s`` holds, per run
    that injected faults, the host seconds of its ``InjectFaults`` plus
    ``AwaitLegitimacy`` phases.
    """

    def __init__(self) -> None:
        self.runs: List[Tuple[Any, int]] = []
        self.recovery_s: List[float] = []
        self._pending: Optional[float] = None

    def reset(self) -> None:
        self.runs = []
        self.recovery_s = []
        self._pending = None

    def replacements(self) -> List[Tuple[str, Callable[[Callable], Callable]]]:
        probe = self

        def session_run(original: Callable) -> Callable:
            def run(session, *args, **kwargs):
                result = original(session, *args, **kwargs)
                probe.runs.append((result, session.sim.sim.steps))
                if probe._pending is not None:
                    probe.recovery_s.append(probe._pending)
                    probe._pending = None
                return result

            return run

        def fault_phase(original: Callable) -> Callable:
            def execute(phase, session):
                started = perf()
                try:
                    return original(phase, session)
                finally:
                    probe._pending = (probe._pending or 0.0) + perf() - started

            return execute

        return [
            ("repro.api.plan:RunSession.run", session_run),
            ("repro.api.phases:InjectFaults.execute", fault_phase),
            ("repro.api.phases:AwaitLegitimacy.execute", fault_phase),
        ]


# -- layer spans ------------------------------------------------------------------


Hook = Tuple[Callable[[Recorder, tuple], Any], Callable[[Recorder, tuple, Any, Any], None]]


def _spanned(rec: Recorder, name: str, hook: Optional[Hook] = None) -> Callable[[Callable], Callable]:
    """Wrapper factory: a span named ``name`` around every call; the
    optional ``(before, after)`` hook reads counters inside the span."""

    def make(original: Callable) -> Callable:
        if hook is None:

            def wrapper(*args, **kwargs):
                idx = rec.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    rec.close(idx)

        else:
            before, after = hook

            def wrapper(*args, **kwargs):
                idx = rec.open(name)
                try:
                    state = before(rec, args)
                    result = original(*args, **kwargs)
                    after(rec, args, state, result)
                    return result
                finally:
                    rec.close(idx)

        return wrapper

    return make


def _steps_hook() -> Hook:
    def before(rec, args):
        return args[0].steps

    def after(rec, args, steps, _result):
        rec.add("sim.engine.events", args[0].steps - steps)

    return before, after


def _plan_hook() -> Hook:
    def before(rec, args):
        return args[0].computations

    def after(rec, args, computations, _result):
        rec.add("core.rules.plan_computations", args[0].computations - computations)

    return before, after


def _replace_hook() -> Hook:
    def before(rec, args):
        table = args[0]
        return table.version, table.evictions

    def after(rec, args, state, _result):
        table, _cid, rules = args[0], args[1], args[2]
        version, evictions = state
        rec.add("switch.flow_table.rules_submitted", len(rules))
        rec.add("switch.flow_table.changed", table.version - version)
        rec.add("switch.flow_table.evictions", table.evictions - evictions)

    return before, after


def _store_get_hook() -> Hook:
    def before(rec, args):
        return None

    def after(rec, args, _state, result):
        if result is not None:
            rec.add("store.store.hits", 1)

    return before, after


def _sim_build_hook() -> Hook:
    def before(rec, args):
        return None

    def after(rec, args, _state, _result):
        rec.sims.append(args[0])

    return before, after


#: (target, span name, hook factory).  Module-level functions are patched
#: where their callers look them up (``build_view`` is imported by name
#: into the controller, ``plan_flow_rules`` into the rule planner,
#: ``resolve_topology`` into the run-plan module).
LAYER_TARGETS: List[Tuple[str, str, Optional[Callable[[], Hook]]]] = [
    ("repro.sim.engine:Simulator.run", "sim.engine", _steps_hook),
    ("repro.core.controller:RenaissanceController.iterate", "core.controller.iterate", None),
    ("repro.core.controller:RenaissanceController.on_reply", "core.controller.on_reply", None),
    ("repro.core.rules:RuleGenerator.rules_for_view", "core.rules.plan", _plan_hook),
    ("repro.core.controller:build_view", "core.rules.build_view", None),
    ("repro.core.rules:plan_flow_rules", "flows.failover.plan_flow_rules", None),
    ("repro.switch.abstract_switch:AbstractSwitch.handle_batch", "switch.abstract_switch.handle_batch", None),
    ("repro.switch.flow_table:FlowTable.replace_rules_of", "switch.flow_table.replace", _replace_hook),
    ("repro.core.legitimacy:LegitimacyChecker.is_legitimate", "core.legitimacy.probe", None),
    ("repro.net.discovery:LocalDiscovery.probe_round", "net.discovery.probe_round", None),
    ("repro.traffic.routes:TenantFlows.install", "traffic.routes.install", None),
    ("repro.traffic.engine:FluidTrafficEngine.__init__", "traffic.engine.init", None),
    ("repro.traffic.engine:FluidTrafficEngine.advance", "traffic.engine.advance", None),
    ("repro.traffic.engine:FluidTrafficEngine.reroute", "traffic.engine.reroute", None),
    ("repro.traffic.engine:FluidTrafficEngine.solve_rates", "traffic.engine.solve_rates", None),
    ("repro.store.store:RunStore.get", "store.store.get", _store_get_hook),
    ("repro.store.store:RunStore.put", "store.store.put", None),
    ("repro.api.phases:Bootstrap.execute", "api.phases.bootstrap", None),
    ("repro.api.phases:InjectFaults.execute", "api.phases.inject_faults", None),
    ("repro.api.phases:AwaitLegitimacy.execute", "api.phases.await_legitimacy", None),
    ("repro.traffic.phase:Traffic.execute", "api.phases.traffic", None),
    ("repro.api.plan:resolve_topology", "api.topology.resolve", None),
    ("repro.sim.network_sim:NetworkSimulation.__init__", "sim.network_sim.build", _sim_build_hook),
    ("repro.traffic.workload:WorkloadSpec.generate", "traffic.workload.generate", None),
]

#: The root span of one traced operation and the benchmark's own span
#: around ``run_spec`` (its self time is the runner's overhead).
ROOT = "bench.op"
RUNNER = "exp.runner"


def layer_replacements(rec: Recorder) -> List[Tuple[str, Callable[[Callable], Callable]]]:
    return [
        (target, _spanned(rec, name, hook() if hook is not None else None))
        for target, name, hook in LAYER_TARGETS
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Per-layer metrics of one traced operation (zero where a layer was
    not exercised).  ``*_s`` are self seconds, except the ``api.phases``
    entries, which are inclusive (the phase split of the operation)."""
    own = self_times(rec.spans)
    incl = durations(rec.spans)
    calls = call_counts(rec.spans)
    counts = rec.counts

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    hits = misses = invalidations = 0
    for sim in rec.sims:
        cache = sim.route_cache
        if cache is not None:
            hits += cache.hits
            misses += cache.misses
            invalidations += cache.invalidations
    plan_calls = n("core.rules.plan")
    plan_computations = counts.get("core.rules.plan_computations", 0.0)
    submitted = counts.get("switch.flow_table.rules_submitted", 0.0)
    root = incl.get(ROOT, 0.0)
    attributed = sum(v for k, v in own.items() if k != ROOT)
    return {
        "sim.engine.events": counts.get("sim.engine.events", 0.0),
        "sim.engine.self_s": s("sim.engine"),
        "core.controller.iterations": n("core.controller.iterate"),
        "core.controller.iterate_self_s": s("core.controller.iterate"),
        "core.controller.on_reply_s": s("core.controller.on_reply"),
        "core.rules.plan_calls": plan_calls,
        "core.rules.plan_computations": plan_computations,
        "core.rules.plan_hit_ratio": 1.0 - plan_computations / plan_calls if plan_calls else 0.0,
        "core.rules.plan_s": s("core.rules.plan"),
        "core.rules.build_view_calls": n("core.rules.build_view"),
        "core.rules.build_view_s": s("core.rules.build_view"),
        "flows.failover.plan_flow_rules_calls": n("flows.failover.plan_flow_rules"),
        "flows.failover.plan_flow_rules_s": s("flows.failover.plan_flow_rules"),
        "switch.abstract_switch.handle_batch_calls": n("switch.abstract_switch.handle_batch"),
        "switch.abstract_switch.handle_batch_s": s("switch.abstract_switch.handle_batch"),
        "switch.flow_table.replace_calls": n("switch.flow_table.replace"),
        "switch.flow_table.replace_s": s("switch.flow_table.replace"),
        "switch.flow_table.rules_submitted": submitted,
        "switch.flow_table.changed_ratio": _ratio(counts.get("switch.flow_table.changed", 0.0), submitted),
        "switch.flow_table.evictions": counts.get("switch.flow_table.evictions", 0.0),
        "core.legitimacy.probes": n("core.legitimacy.probe"),
        "core.legitimacy.probe_s": s("core.legitimacy.probe"),
        "core.legitimacy.route_cache.path_calls": hits + misses,
        "core.legitimacy.route_cache.hit_ratio": _ratio(hits, hits + misses),
        "core.legitimacy.route_cache.invalidations": invalidations,
        "net.discovery.probe_rounds": n("net.discovery.probe_round"),
        "net.discovery.probe_round_s": s("net.discovery.probe_round"),
        "traffic.routes.install_calls": n("traffic.routes.install"),
        "traffic.routes.install_s": s("traffic.routes.install"),
        "traffic.engine.init_s": s("traffic.engine.init"),
        "traffic.engine.advance_calls": n("traffic.engine.advance"),
        "traffic.engine.advance_s": s("traffic.engine.advance"),
        "traffic.engine.reroute_s": s("traffic.engine.reroute"),
        "traffic.engine.solve_rates_s": s("traffic.engine.solve_rates"),
        "store.store.put_calls": n("store.store.put"),
        "store.store.put_s": s("store.store.put"),
        "store.store.get_calls": n("store.store.get"),
        "store.store.get_s": s("store.store.get"),
        "store.store.hits": counts.get("store.store.hits", 0.0),
        "exp.runner.overhead_s": s(RUNNER),
        "api.phases.bootstrap_s": incl.get("api.phases.bootstrap", 0.0),
        "api.phases.inject_faults_s": incl.get("api.phases.inject_faults", 0.0),
        "api.phases.await_legitimacy_s": incl.get("api.phases.await_legitimacy", 0.0),
        "api.phases.traffic_s": incl.get("api.phases.traffic", 0.0),
        "api.topology.resolve_s": s("api.topology.resolve"),
        "sim.network_sim.build_s": s("sim.network_sim.build"),
        "traffic.workload.generate_s": s("traffic.workload.generate"),
        "bench.unattributed_s": s(ROOT),
        "bench.coverage": _ratio(attributed, root),
        "bench.traced_wall_s": root,
    }
