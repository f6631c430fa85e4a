"""First-class run phases: the paper's evaluation protocol as objects.

Every measurement in the repository is a sequence of the same few steps —
bootstrap to a legitimate configuration, inject faults, let the clock run,
measure re-convergence.  Each step is a :class:`Phase`: a declarative,
reusable object executed by a :class:`~repro.api.plan.RunSession`, which
replaces the hand-rolled loops previously duplicated across
``exp/spec.py``, ``scenarios/spec.py``, and ``cli.py``.

A phase's :meth:`~Phase.execute` receives the session, advances the
simulation, and returns a :class:`~repro.api.results.PhaseResult`.  Fault
timing state (the instant of the last injected fault) flows between
phases through the session, so an ``InjectFaults``/``AwaitLegitimacy``
pair measures recovery exactly the way the paper's protocol defines it:
seconds from the final fault action back to legitimacy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.api.results import PhaseResult
from repro.api.topology import default_timeout
from repro.sim.faults import FaultPlan

#: A fault-plan builder: called with the live simulation and the
#: repetition's fault randomness stream once the network is bootstrapped.
FaultBuilder = Callable[["object", random.Random], FaultPlan]


def describe_fault_plan(plan: FaultPlan) -> list:
    """JSON-able encoding of an explicit fault schedule.

    Targets may carry non-JSON leaves (corruption payloads embed ``Rule``
    objects); those are folded in by ``repr`` — deterministic for the
    immutable values involved — so two plans hash equal iff their
    schedules are identical.  ``Rule`` is a named tuple but folds whole.
    """

    def leaf(value: object):
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        if type(value) in (list, tuple):
            return [leaf(v) for v in value]
        return repr(value)

    return [[a.at, a.kind, leaf(list(a.target))] for a in plan.actions]


@dataclass(frozen=True)
class Phase:
    """Base class; concrete phases override ``name`` and ``execute``."""

    name = "phase"

    def execute(self, session) -> PhaseResult:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-able description of the phase for content addressing.

        Together with the plan's topology/config/seed this must determine
        the phase's behaviour: the run store hashes it into the run key.
        Concrete phases extend the base ``{"phase": name}`` dict.
        """
        return {"phase": self.name}

    def addressable(self) -> bool:
        """Whether :meth:`describe` fully captures the phase's behaviour.

        A plan containing any non-addressable phase bypasses the run
        store entirely (``RunPlan.cacheable()`` is false) — an
        under-specified description must never produce a wrong cache hit.
        """
        return True


@dataclass(frozen=True)
class Bootstrap(Phase):
    """Run until Definition 1 holds; the value is the convergence time.

    ``timeout`` defaults to the per-network table of
    :mod:`repro.api.topology`.  ``full`` requests the exhaustive
    κ-resilience check instead of the sampled one.
    """

    timeout: Optional[float] = None
    full: bool = False

    name = "bootstrap"

    def describe(self) -> dict:
        return {"phase": self.name, "timeout": self.timeout, "full": self.full}

    def execute(self, session) -> PhaseResult:
        timeout = (
            self.timeout
            if self.timeout is not None
            else default_timeout(session.topology_spec)
        )
        sim = session.sim
        t_start = sim.sim.now
        t = sim.run_until_legitimate(timeout=timeout, full=self.full)
        return PhaseResult(
            phase=self.name,
            ok=t is not None,
            t_start=t_start,
            t_end=sim.sim.now,
            value=t,
            details={"timeout": timeout},
        )


@dataclass(frozen=True)
class CorruptState(Phase):
    """Rewrite component state to an *arbitrary* configuration.

    Applies the named :data:`~repro.adversary.corruptions.CORRUPTIONS`
    strategy — after topology construction, before the first protocol
    step when placed first in a plan — so a following
    :class:`AwaitLegitimacy` measures convergence from arbitrary state:
    the paper's self-stabilization claim itself, not merely recovery from
    faults injected into a clean run.  The corruption randomness is a
    pure function of the plan seed (its own decorrelated stream), which
    keeps corrupted repetitions bit-identical across worker processes and
    makes the phase content-addressable: the corruption *name* plus the
    plan's seed fully determine the injected state.

    Marks the metrics recorder's corruption instant, so the run's
    ``stabilization_time`` (distinct from post-fault ``recovery_time``)
    measures from here to the first legitimate configuration.
    """

    corruption: str = "mixed"

    name = "corrupt_state"

    def describe(self) -> dict:
        return {"phase": self.name, "corruption": self.corruption}

    def execute(self, session) -> PhaseResult:
        # Lazy: the adversary registry sits above this layer.
        from repro.adversary.corruptions import apply_corruption
        from repro.exp.seeding import adversary_rng

        sim = session.sim
        t_start = sim.sim.now
        # Provenance root: the corruption is not itself a scheduled event,
        # so it enters the happens-before DAG as a synthetic root; any
        # events the strategy schedules (e.g. channel-garbage's in-flight
        # datagrams) inherit it as their cause.
        root = sim.sim.provenance_root(
            note=f"corrupt:{self.corruption}",
            tags={
                "corruption": self.corruption,
                "corruption_id": f"{self.corruption}@seed={session.seed}",
            },
        )
        with sim.sim.cause_scope(root):
            accounting = apply_corruption(
                self.corruption, sim, adversary_rng(session.seed)
            )
        sim.metrics.mark_corruption(sim.sim.now)
        return PhaseResult(
            phase=self.name,
            ok=True,
            t_start=t_start,
            t_end=sim.sim.now,
            details={"corruption": self.corruption, "accounting": accounting},
        )


@dataclass(frozen=True)
class RunFor(Phase):
    """Advance the simulation clock by a fixed duration."""

    duration: float = 1.0

    name = "run_for"

    def describe(self) -> dict:
        return {"phase": self.name, "duration": self.duration}

    def execute(self, session) -> PhaseResult:
        sim = session.sim
        t_start = sim.sim.now
        sim.run_for(self.duration)
        return PhaseResult(
            phase=self.name,
            ok=True,
            t_start=t_start,
            t_end=sim.sim.now,
            value=self.duration,
        )


@dataclass(frozen=True)
class InjectFaults(Phase):
    """Inject a fault plan and run just past its final action.

    Exactly one of ``plan`` (a prebuilt :class:`FaultPlan`) and
    ``builder`` (called with ``(sim, rng)``, where ``rng`` is the
    repetition's decorrelated fault stream) must be given.  With
    ``relative=True`` the plan is interpreted on a relative clock and
    shifted to the current simulation time — the convention fault
    campaigns use.  After injection the clock advances to ``settle``
    seconds past the last action, so a following
    :class:`AwaitLegitimacy` measures from the fault, not before it.

    ``label`` names the builder for content addressing: a builder is a
    callable the run store cannot hash, and its qualified name would
    collapse distinct parametrizations of one closure factory onto the
    same key.  A call site that wants its runs cached must therefore pass
    a label carrying the builder's full parametrization (kill counts,
    campaign names, ...); an unlabeled builder makes the whole plan
    uncacheable rather than risk a wrong cache hit.
    """

    plan: Optional[FaultPlan] = None
    builder: Optional[FaultBuilder] = field(default=None, compare=False)
    settle: float = 0.01
    relative: bool = False
    label: Optional[str] = None

    name = "inject_faults"

    def addressable(self) -> bool:
        return self.plan is not None or self.label is not None

    def describe(self) -> dict:
        if self.plan is not None:
            faults = describe_fault_plan(self.plan)
        else:
            faults = self.label
        return {
            "phase": self.name,
            "faults": faults,
            "settle": self.settle,
            "relative": self.relative,
        }

    def execute(self, session) -> PhaseResult:
        if (self.plan is None) == (self.builder is None):
            raise ValueError("InjectFaults needs exactly one of plan and builder")
        sim = session.sim
        t_start = sim.sim.now
        plan = self.plan
        if plan is None:
            plan = self.builder(sim, session.fault_stream)
        if self.relative:
            plan = plan.shifted(sim.sim.now)
        if not plan.actions:
            # Nothing to inject: the network is already (still) legitimate,
            # so a following AwaitLegitimacy reports zero recovery.
            session.fault_at = None
            session.trivial_recovery = True
            return PhaseResult(
                phase=self.name,
                ok=True,
                t_start=t_start,
                t_end=sim.sim.now,
                details={"n_actions": 0},
            )
        session.trivial_recovery = False
        sim.inject(plan)
        fault_at = plan.last_at()
        sim.run_for(max(0.0, fault_at - sim.sim.now) + self.settle)
        session.fault_at = fault_at
        return PhaseResult(
            phase=self.name,
            ok=True,
            t_start=t_start,
            t_end=sim.sim.now,
            value=fault_at,
            details={
                "n_actions": len(plan.actions),
                "kinds": sorted({a.kind for a in plan.actions}),
            },
        )


@dataclass(frozen=True)
class AwaitLegitimacy(Phase):
    """Run until legitimacy returns; the value is the recovery time.

    Measures seconds from the last injected fault (the session's
    ``fault_at``) to re-convergence; when no fault was injected the value
    is the absolute convergence time.  ``clamp_zero`` floors the
    measurement at zero (fault campaigns use it).  Fails — ``ok=False``,
    aborting subsequent phases — if the timeout elapses first.
    """

    timeout: Optional[float] = None
    clamp_zero: bool = False
    full: bool = False

    name = "await_legitimacy"

    def describe(self) -> dict:
        return {
            "phase": self.name,
            "timeout": self.timeout,
            "clamp_zero": self.clamp_zero,
            "full": self.full,
        }

    def execute(self, session) -> PhaseResult:
        sim = session.sim
        t_start = sim.sim.now
        if session.trivial_recovery:
            return PhaseResult(
                phase=self.name,
                ok=True,
                t_start=t_start,
                t_end=t_start,
                value=0.0,
                details={"trivial": True},
            )
        timeout = (
            self.timeout
            if self.timeout is not None
            else default_timeout(session.topology_spec)
        )
        t = sim.run_until_legitimate(timeout=timeout, full=self.full)
        if t is None:
            return PhaseResult(
                phase=self.name,
                ok=False,
                t_start=t_start,
                t_end=sim.sim.now,
                details={"timeout": timeout},
            )
        value = t if session.fault_at is None else t - session.fault_at
        if self.clamp_zero:
            value = max(0.0, value)
        return PhaseResult(
            phase=self.name,
            ok=True,
            t_start=t_start,
            t_end=sim.sim.now,
            value=value,
            details={"timeout": timeout, "converged_at": t},
        )


__all__ = [
    "AwaitLegitimacy",
    "Bootstrap",
    "CorruptState",
    "FaultBuilder",
    "InjectFaults",
    "Phase",
    "RunFor",
    "describe_fault_plan",
]
