"""Rule generation — the paper's ``myRules(G, j, tag)`` interface.

Given the controller's accumulated topology view ``G`` (built from query
replies), :class:`RuleGenerator` computes the κ-fault-resilient flows from
the controller to every reachable node and materializes them as per-switch
:class:`~repro.switch.flow_table.Rule` sets, tagged with the current
synchronization round.

The computation is cached per view signature: Algorithm 2 refreshes rules
on *every* iteration of the do-forever loop, but the underlying flows
change only when the discovered topology changes.  A new round's tag on an
unchanged view only re-tags the cached rules; no route is re-planned.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple, Union

from repro.net.topology import Topology, NodeKind
from repro.flows.failover import PathSearch, plan_flow_rules, HopRule
from repro.switch.flow_table import Rule
from repro.switch.commands import QueryReply
from repro.core.tags import Tag


def build_view(
    owner: str,
    own_neighbors: Iterable[str],
    replies: Iterable[QueryReply],
    controller_ids: Optional[Set[str]] = None,
) -> Topology:
    """Construct the topology view ``G(S)`` of Algorithm 2 (line 4).

    Nodes: every reply's sender and every reported neighbour.  Edges: the
    union of reported adjacencies (plus the owner's own neighbourhood).
    Nodes whose kind is unknown (seen only as neighbours) are treated as
    switches — they cannot be managed until they reply anyway.
    """
    view = Topology()
    kinds: Dict[str, NodeKind] = {owner: NodeKind.CONTROLLER}
    adjacency: Dict[str, Set[str]] = {owner: set(own_neighbors)}
    for reply in replies:
        kind = NodeKind.CONTROLLER if reply.kind == "controller" else NodeKind.SWITCH
        kinds[reply.node] = kind
        adjacency.setdefault(reply.node, set()).update(reply.neighbors)
    if controller_ids:
        for cid in controller_ids:
            kinds.setdefault(cid, NodeKind.CONTROLLER)

    all_nodes: Set[str] = set(adjacency)
    for neighbors in list(adjacency.values()):
        all_nodes.update(neighbors)
    for node in sorted(all_nodes):
        view.add_node(node, kinds.get(node, NodeKind.SWITCH))
    seen: Set[FrozenSet[str]] = set()
    for node, neighbors in adjacency.items():
        for peer in neighbors:
            if peer == node:
                continue
            key = frozenset((node, peer))
            if key in seen:
                continue
            seen.add(key)
            view.add_link(node, peer)
    return view


def _view_signature(view: Topology) -> Tuple:
    return (tuple(view.nodes), tuple(view.links))


class RuleGenerator:
    """Cached ``myRules`` for one controller."""

    def __init__(self, owner: str, kappa: int) -> None:
        self.owner = owner
        self.kappa = kappa
        self._cache_key: Optional[Tuple] = None
        self._cache_tag: Optional[Tag] = None
        self._cache: Dict[str, Tuple[Rule, ...]] = {}
        self.computations = 0  # full route plans; re-tags do not count

    def rules_for_view(self, view: Topology, tag: Tag) -> Dict[str, Tuple[Rule, ...]]:
        """Per-switch rules realizing κ-fault-resilient flows from the owner
        to every node reachable in ``view``, tagged ``tag``.  Deduplicated
        per switch: two flows may share a hop with the same (match,
        priority, action); the last one planned wins, in the position of
        the first.  A re-plan under an unchanged tag returns the previous
        plan's object for every rule it planned again, so an unchanged
        rule reaches the switch as the object the table already holds."""
        key = _view_signature(view)
        if key == self._cache_key:
            if tag != self._cache_tag:
                self._cache = {
                    sid: tuple([_tagged(r.cid, r.sid, r, tag) for r in rules])
                    for sid, rules in self._cache.items()
                }
                self._cache_tag = tag
            return self._cache
        self.computations += 1
        # Hops per switch, keyed like Rule.key(): with the owner fixed,
        # hop[1:6] = (src, dst, forward_to, priority, detour) identifies it.
        per_switch: Dict[str, Dict[Tuple, HopRule]] = {}
        if self.owner in view:
            switches = set(view.switches)
            search = PathSearch(view)
            for target in sorted(view.bfs_layers(self.owner)):
                if target == self.owner:
                    continue
                for hop in plan_flow_rules(view, self.owner, target, self.kappa, search):
                    if hop.switch not in switches:
                        continue  # controllers do not hold forwarding rules
                    per_switch.setdefault(hop.switch, {})[hop[1:6]] = hop
        previous: Dict[Rule, Rule] = {}
        if tag == self._cache_tag:
            previous = {r: r for rules in self._cache.values() for r in rules}
        self._cache_key = key
        self._cache_tag = tag
        self._cache = {}
        for sid, hops in per_switch.items():
            rules = [_tagged(self.owner, sid, hop, tag) for hop in hops.values()]
            self._cache[sid] = tuple([previous.get(r, r) for r in rules])
        return self._cache

    def my_rules(self, view: Topology, switch: str, tag: Tag) -> Tuple[Rule, ...]:
        """The paper's ``myRules(G, j, tag)``: the owner's rules at one
        switch."""
        return self.rules_for_view(view, tag).get(switch, ())

    def invalidate(self) -> None:
        self._cache_key = None
        self._cache_tag = None
        self._cache = {}


def _tagged(cid: str, sid: str, hop: Union[HopRule, Rule], tag: Tag) -> Rule:
    """``hop``'s match and action as a rule of ``cid`` at ``sid``."""
    return Rule(
        cid, sid, hop.src, hop.dst, hop.priority, hop.forward_to, tag, hop.detour,
        hop.detour_start,
    )


__all__ = ["build_view", "RuleGenerator"]
