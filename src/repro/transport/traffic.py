"""Traffic workloads for the throughput experiments (Figures 15–20).

The paper places two hosts at maximal distance, streams Iperf TCP between
them for 30 seconds, and fails a link near the middle of the primary path
at the 10th second.  Two modes are compared:

* **with recovery** (Figure 15): Renaissance's tag-based consistent
  updates re-establish fresh κ-fault-resilient flows after the failure;
* **without recovery** (Figure 16): only the pre-installed backup
  (fast-failover) paths are used — no new primaries are computed.

:class:`TrafficRun` reproduces this protocol on the simulated data plane.
Host flows are installed into the *actual* switch flow tables with the
same planner the control plane uses, and the TCP path provider resolves
the route by walking those tables — so the failover and the repair are
exercised end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.topology import Topology
from repro.flows.failover import directed_rules
from repro.switch.abstract_switch import AbstractSwitch
from repro.switch.flow_table import Rule
from repro.core.legitimacy import forwarding_path
from repro.transport.tcp import RenoConnection, RenoParams
from repro.transport.stats import TrafficStats


@dataclass(frozen=True)
class HostPair:
    """Two host attachment switches and the hop distance between them."""

    a: str
    b: str
    distance: int


def place_hosts_at_max_distance(topology: Topology) -> HostPair:
    """The paper's host placement: 'the distance between them is as large
    as the network diameter'."""
    best: Optional[HostPair] = None
    for switch in topology.switches:
        layers = topology.bfs_layers(switch)
        far_switches = [
            (dist, node)
            for node, dist in layers.items()
            if topology.is_switch(node)
        ]
        dist, node = max(far_switches)
        if best is None or dist > best.distance:
            best = HostPair(a=switch, b=node, distance=dist)
    if best is None:
        raise ValueError("topology has no switches")
    return best


def middle_primary_link(
    topology: Topology, pair: HostPair
) -> Tuple[str, str]:
    """The link 'as close to the middle of the primary path as possible'
    whose failure leaves a backup route available."""
    path = topology.shortest_path(pair.a, pair.b)
    if path is None or len(path) < 2:
        raise ValueError("host pair is not connected")
    hops = list(zip(path, path[1:]))
    order = sorted(range(len(hops)), key=lambda i: abs(i - len(hops) // 2))
    for idx in order:
        u, v = hops[idx]
        probe = topology.copy()
        probe.remove_link(u, v)
        if probe.connected():
            return u, v
    raise ValueError("no mid-path link can fail without disconnecting")


class FlowMaintainer:
    """Installs and (optionally) repairs the host flow in the switch
    tables — standing in for the controller's data-plane rule generation.

    ``owner`` tags the rules; the control plane treats it like any other
    rule owner.  In recovery mode, a topology change triggers a fresh
    computation ``repair_latency`` seconds later — the measured control
    plane recovery time of Figures 10–14."""

    def __init__(
        self,
        topology: Topology,
        switches: Dict[str, AbstractSwitch],
        pair: HostPair,
        owner: str = "traffic-ctrl",
        kappa: int = 1,
    ) -> None:
        self.topology = topology
        self.switches = switches
        self.pair = pair
        self.owner = owner
        self.kappa = kappa

    def install(self, view: Optional[Topology] = None) -> int:
        """(Re)compute and install host-flow rules from ``view`` (defaults
        to the live ground truth, i.e. a converged control plane's view).
        Returns the number of rules installed."""
        graph = view or self._live_view()
        a, b = self.pair.a, self.pair.b
        plan = directed_rules(graph, a, b, self.kappa) + directed_rules(
            graph, b, a, self.kappa
        )
        per_switch: Dict[str, List[Rule]] = {}
        for hop_rule in plan:
            if hop_rule.switch not in self.switches:
                continue
            per_switch.setdefault(hop_rule.switch, []).append(
                Rule(
                    cid=self.owner,
                    sid=hop_rule.switch,
                    src=hop_rule.src,
                    dst=hop_rule.dst,
                    priority=hop_rule.priority,
                    forward_to=hop_rule.forward_to,
                    tag=None,
                )
            )
        installed = 0
        for sid, rules in per_switch.items():
            self.switches[sid].table.replace_rules_of(self.owner, rules)
            installed += len(rules)
        # Switches no longer on any path lose their stale host rules.
        for sid, switch in self.switches.items():
            if sid not in per_switch:
                switch.table.delete_rules_of(self.owner)
        return installed

    def _live_view(self) -> Topology:
        live = self.topology.copy()
        for u, v in live.failed_links():
            live.remove_link(u, v)
        return live


@dataclass
class TrafficRun:
    """The Figures 15–20 protocol on one network.

    ``recovery=True`` re-installs fresh flows ``repair_latency`` seconds
    after the failure (Figure 15); ``recovery=False`` leaves only the
    failover detours (Figure 16).
    """

    topology: Topology
    switches: Dict[str, AbstractSwitch]
    pair: HostPair
    recovery: bool = True
    duration: float = 30.0
    failure_at: float = 10.0
    repair_latency: float = 1.5
    kappa: int = 1
    params: Optional[RenoParams] = None

    def run(self) -> TrafficStats:
        maintainer = FlowMaintainer(
            self.topology, self.switches, self.pair, kappa=self.kappa
        )
        maintainer.install()
        fail_u, fail_v = middle_primary_link(self.topology, self.pair)

        connection = RenoConnection(
            path_provider=lambda: self._current_path(),
            params=self.params,
        )
        # Dense per-second series over the whole protocol; seconds a
        # reroute jumps across stay as zero-filled buckets in place.
        connection.stats.duration = self.duration

        def advance_to(t: float) -> None:
            if connection.now < t:
                connection.run(t - connection.now)

        advance_to(self.failure_at)
        # The clamped stepping lands exactly on the boundary, so the
        # failure is injected in the advertised second, not one RTT late.
        assert connection.now == self.failure_at
        self.topology.set_link_up(fail_u, fail_v, False)
        if self.recovery:
            advance_to(self.failure_at + self.repair_latency)
            # The paper's variant repairs flows with tag-based consistent
            # updates (Section 6.2): the switch to the fresh primary is
            # planned and lossless.
            maintainer.install()
            connection.notify_consistent_update()
        advance_to(self.duration)
        return connection.stats

    def _current_path(self) -> Optional[List[str]]:
        return forwarding_path(
            self.topology, self.switches, self.pair.a, self.pair.b
        )


def standalone_switches(
    topology: Topology, max_rules: int = 100_000
) -> Dict[str, AbstractSwitch]:
    """Bare switches for data-plane-only studies (no control plane)."""
    switches: Dict[str, AbstractSwitch] = {}
    for sid in topology.switches:
        switches[sid] = AbstractSwitch(
            sid,
            alive_neighbors=(lambda s: (lambda: topology.operational_neighbors(s)))(sid),
            max_rules=max_rules,
        )
    return switches


__all__ = [
    "HostPair",
    "place_hosts_at_max_distance",
    "middle_primary_link",
    "FlowMaintainer",
    "TrafficRun",
    "standalone_switches",
]
