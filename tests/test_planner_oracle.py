"""Oracle test for the rule planner.

The planner shares resumable path searches across the flows of one view
and caches its plan per view.  The reference below is the straightforward
construction — one fresh breadth-first search per primary path and per
detour, one full plan per (view, tag) — kept here only as a test oracle.
Every view must give identical rules, in identical order, from both.
"""

from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.core.rules import RuleGenerator
from repro.core.tags import Tag
from repro.flows.failover import (
    PRIMARY_PRIORITY,
    HopRule,
    PathSearch,
    directed_rules,
    plan_flow_rules,
)
from repro.net.topologies import attach_controllers
from repro.net.topology import EdgeId, NodeId, Topology, edge
from repro.scenarios.generators import parse_topology
from repro.switch.flow_table import Rule

# -- reference implementation ----------------------------------------------------


def _ref_bfs_avoiding(
    view: Topology,
    start: NodeId,
    dst: NodeId,
    failed_edges: Set[EdgeId],
    avoid_nodes: Set[NodeId],
) -> Optional[List[NodeId]]:
    if start in avoid_nodes or dst in avoid_nodes:
        return None
    index = view.index()
    idx = index.idx
    src_i, dst_i = idx[start], idx[dst]
    if src_i == dst_i:
        return [start]
    avoid_mask = 0
    for node in avoid_nodes:
        avoid_mask |= 1 << idx[node]
    excluded: Dict[int, int] = {}
    for e in failed_edges:
        u, v = tuple(e)
        excluded[idx[u]] = excluded.get(idx[u], 0) | (1 << idx[v])
        excluded[idx[v]] = excluded.get(idx[v], 0) | (1 << idx[u])
    relay_mask = index.switch_mask | (1 << src_i)
    parent: Dict[int, int] = {src_i: src_i}
    seen = (1 << src_i) | avoid_mask
    frontier = [src_i]
    found = False
    while frontier and not found:
        next_frontier: List[int] = []
        for u in frontier:
            if not (relay_mask >> u) & 1:
                continue
            mask = index.adj_masks[u] & ~seen & ~excluded.get(u, 0)
            for v in range(len(index.names)):
                if not (mask >> v) & 1:
                    continue
                seen |= 1 << v
                parent[v] = u
                next_frontier.append(v)
                if v == dst_i:
                    found = True
        frontier = next_frontier
    if dst_i not in parent:
        return None
    path_i = [dst_i]
    while path_i[-1] != src_i:
        path_i.append(parent[path_i[-1]])
    path_i.reverse()
    return [index.names[i] for i in path_i]


def _ref_directed_rules(
    view: Topology, src: NodeId, dst: NodeId, kappa: int
) -> List[HopRule]:
    primary = _ref_bfs_avoiding(view, src, dst, set(), set())
    if primary is None:
        return []
    rules = [
        HopRule(switch=hop, src=src, dst=dst, forward_to=nxt, priority=PRIMARY_PRIORITY)
        for hop, nxt in zip(primary, primary[1:])
    ]
    if kappa < 1:
        return rules
    for idx in range(len(primary) - 1):
        x, y = primary[idx], primary[idx + 1]
        failed = {edge(x, y)}
        detour = _ref_bfs_avoiding(view, x, dst, failed, set(primary[:idx]))
        if detour is None:
            detour = _ref_bfs_avoiding(view, x, dst, failed, set())
        if detour is None:
            continue
        priority = PRIMARY_PRIORITY - 1 - idx
        if priority <= 0:
            break
        start_hop = detour[0] if view.is_switch(detour[0]) else (
            detour[1] if len(detour) > 1 else detour[0]
        )
        for hop, nxt in zip(detour, detour[1:]):
            rules.append(
                HopRule(
                    switch=hop,
                    src=src,
                    dst=dst,
                    forward_to=nxt,
                    priority=priority,
                    detour=idx,
                    detour_start=(hop == start_hop),
                )
            )
    return rules


def _ref_plan_flow_rules(view, source, target, kappa) -> List[HopRule]:
    return _ref_directed_rules(view, source, target, kappa) + _ref_directed_rules(
        view, target, source, kappa
    )


def _ref_rules_for_view(owner, kappa, view, tag) -> Dict[str, Tuple[Rule, ...]]:
    """Full plan, then ``myRules``' per-switch key deduplication."""
    per_switch: Dict[str, Dict[tuple, Rule]] = {}
    for target in sorted(view.bfs_layers(owner)):
        if target == owner:
            continue
        for hop in _ref_plan_flow_rules(view, owner, target, kappa):
            if not view.is_switch(hop.switch):
                continue
            rule = Rule(
                cid=owner,
                sid=hop.switch,
                src=hop.src,
                dst=hop.dst,
                priority=hop.priority,
                forward_to=hop.forward_to,
                tag=tag,
                detour=hop.detour,
                detour_start=hop.detour_start,
            )
            per_switch.setdefault(hop.switch, {})[rule.key()] = rule
    return {sid: tuple(rules.values()) for sid, rules in per_switch.items()}


# -- views -------------------------------------------------------------------------


def _with_controllers(spec: str, seed: int, controllers: int) -> Topology:
    topo = parse_topology(spec, seed=seed)
    attach_controllers(topo, controllers, seed=seed)
    return topo


def _fallback_view() -> Topology:
    """Primary c0→s0→s1→t; the detour for the failed edge (s1, t) can only
    leave s1 through the prefix node s0, so the prefix-avoiding search
    fails and the edge-only fallback s1→s0→s2→t is taken."""
    topo = Topology()
    topo.add_controller("c0")
    for s in ("s0", "s1", "s2", "t"):
        topo.add_switch(s)
    for u, v in (("c0", "s0"), ("s0", "s1"), ("s0", "s2"), ("s1", "t"), ("s2", "t")):
        topo.add_link(u, v)
    return topo


def _unreachable_view() -> Topology:
    """An isolated island, and a switch only reachable through a peer
    controller (controllers never relay)."""
    topo = Topology()
    topo.add_controller("c0")
    topo.add_controller("c1")
    for s in ("s0", "s1", "s2", "x0", "x1"):
        topo.add_switch(s)
    for u, v in (
        ("c0", "s0"),
        ("s0", "s1"),
        ("s1", "c1"),
        ("c1", "s2"),
        ("x0", "x1"),
    ):
        topo.add_link(u, v)
    return topo


VIEWS = {
    "fattree:4": lambda: _with_controllers("fattree:4", 0, 3),
    **{
        f"jellyfish:30@{seed}": (lambda seed=seed: _with_controllers("jellyfish:30", seed, 3))
        for seed in range(5)
    },
    "ring:8+2c": lambda: _with_controllers("ring:8", 0, 2),
    "fallback": _fallback_view,
    "unreachable": _unreachable_view,
}

T1 = Tag("c0", 1)
T2 = Tag("c0", 2)


@pytest.mark.parametrize("name", sorted(VIEWS))
@pytest.mark.parametrize("kappa", [0, 1, 2])
def test_rules_for_view_matches_reference(name, kappa):
    view = VIEWS[name]()
    for owner in view.controllers:
        gen = RuleGenerator(owner, kappa)
        assert gen.rules_for_view(view, T1) == _ref_rules_for_view(owner, kappa, view, T1)
        # Same view, new round: re-tagged, not re-planned.
        assert gen.rules_for_view(view, T2) == _ref_rules_for_view(owner, kappa, view, T2)
        assert gen.computations == 1
        for sid, rules in _ref_rules_for_view(owner, kappa, view, T2).items():
            assert gen.my_rules(view, sid, T2) == rules


@pytest.mark.parametrize("name", sorted(VIEWS))
@pytest.mark.parametrize("kappa", [0, 1])
def test_plan_flow_rules_matches_reference(name, kappa):
    view = VIEWS[name]()
    for owner in view.controllers:
        shared = PathSearch(view)
        for target in view.nodes:
            if target == owner:
                continue
            expected = _ref_plan_flow_rules(view, owner, target, kappa)
            assert plan_flow_rules(view, owner, target, kappa) == expected
            assert plan_flow_rules(view, owner, target, kappa, shared) == expected
            assert directed_rules(view, owner, target, kappa) == _ref_directed_rules(
                view, owner, target, kappa
            )


def test_fallback_view_takes_edge_only_detour():
    view = _fallback_view()
    rules = directed_rules(view, "c0", "t", kappa=1)
    detour2 = [(r.switch, r.forward_to) for r in rules if r.detour == 2]
    assert detour2 == [("s1", "s0"), ("s0", "s2"), ("s2", "t")]
    assert rules == _ref_directed_rules(view, "c0", "t", kappa=1)


def test_unreachable_targets_get_no_rules():
    view = _unreachable_view()
    assert plan_flow_rules(view, "c0", "x0", kappa=1) == []
    assert plan_flow_rules(view, "c0", "s2", kappa=1) == []  # behind c1
    per_switch = RuleGenerator("c0", kappa=1).rules_for_view(view, T1)
    dsts = {r.dst for rules in per_switch.values() for r in rules}
    assert not dsts & {"x0", "x1", "s2"}
