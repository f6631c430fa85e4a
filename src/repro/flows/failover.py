"""Conditional forwarding plans with local fast failover.

The paper realizes κ-fault-resilient flows with conditional forwarding
rules in the style of OpenFlow fast-failover groups [6]: when a switch's
primary out-link is down it locally falls back to a lower-priority rule,
without waiting for the controller.

For a flow ``src → dst`` we install:

* the **primary** rules along the first shortest path ``P0`` at
  ``PRIMARY_PRIORITY``;
* for each directed edge ``(x, y)`` at index ``i`` of ``P0``, a **detour**
  from the *detecting* switch ``x`` to ``dst``, computed in the graph
  without ``(x, y)`` and (when possible) without the strict prefix
  ``P0[:i]`` — so the detour cannot be hijacked by a pre-failure primary
  rule — at priority ``PRIMARY_PRIORITY - 1 - i``.

A detour may rejoin ``P0`` *after* the failed edge; there the primary
(higher-priority, operational) rules take over, which is sound for a
single failure because the suffix past the failed edge is intact.  This
construction is exact for κ = 1 — the κ the paper's prototype evaluates —
and best-effort beyond (deeper failures fall back through remaining
detour priorities and are ultimately bounded by the packet TTL).

Each direction of a flow is planned independently (``dst → src`` runs the
same construction on swapped endpoints), giving the bidirectional packet
exchange the paper's flow definition requires.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.net.topology import Topology, NodeId

#: Priority of primary-path rules; detours descend from it.  Far above the
#: meta-rule's priority 0, leaving room for diameter-many detour levels.
PRIMARY_PRIORITY = 1_000


class HopRule(NamedTuple):
    """One forwarding entry to install at ``switch``: matches header
    ``(src, dst)``, forwards to adjacent ``forward_to`` when that link is
    operational.  Larger ``priority`` wins.

    ``detour`` identifies which per-edge detour the rule belongs to (None
    for primary rules); ``detour_start`` marks the detecting switch where
    packets are stamped onto the detour (see
    :class:`repro.switch.flow_table.Rule`)."""

    switch: NodeId
    src: NodeId
    dst: NodeId
    forward_to: NodeId
    priority: int
    detour: Optional[int] = None
    detour_start: bool = False


class PathSearch:
    """First-shortest-path searches on one view snapshot.

    A search ``(start, blocked, avoid)`` is a BFS from ``start`` that never
    crosses the edge ``(start, blocked)`` nor enters the ``avoid`` bitmask;
    its paths are the first shortest ones whose *interior* nodes are
    switches (controllers never relay, Section 2), expanding the frontier
    in discovery order and neighbours in ascending (= sorted-name) order.
    A search expands whole layers only until the requested destination
    has a parent and resumes from there for the next one; parents never
    change, so every path equals a fresh search's.  Searches live as long
    as this object: shared across flows, all primaries from one source come
    from one tree and each per-edge detour search serves every target
    below that edge.
    """

    __slots__ = ("names", "idx", "switch_mask", "_adj", "_memo")

    def __init__(self, view: Topology) -> None:
        index = view.index()
        self.names = index.names
        self.idx = index.idx
        self.switch_mask = index.switch_mask
        self._adj = index.adj_masks
        self._memo: Dict[Tuple[int, int, int], list] = {}

    def path(
        self, start: int, dst: int, blocked: int = -1, avoid: int = 0
    ) -> Optional[List[int]]:
        """Node indices of the first shortest ``start → dst`` path, or None."""
        if (avoid >> start) & 1 or (avoid >> dst) & 1:
            return None
        if start == dst:
            return [start]
        key = (start, blocked, avoid)
        state = self._memo.get(key)
        if state is None:
            parent = [-1] * len(self._adj)
            parent[start] = start
            state = self._memo[key] = [parent, (1 << start) | avoid, [start]]
        parent, seen, frontier = state
        if parent[dst] < 0 and frontier:
            adj = self._adj
            # Only switches relay; the start node forwards its own packets.
            relay = self.switch_mask | (1 << start)
            unblock = ~(1 << blocked) if blocked >= 0 else -1
            while frontier:
                layer: List[int] = []
                for u in frontier:
                    if not (relay >> u) & 1:
                        continue
                    mask = adj[u] & ~seen
                    if u == start:
                        mask &= unblock
                    seen |= mask
                    while mask:
                        low = mask & -mask
                        v = low.bit_length() - 1
                        parent[v] = u
                        layer.append(v)
                        mask ^= low
                frontier = layer
                if parent[dst] >= 0:
                    break
            state[1] = seen
            state[2] = frontier
        if parent[dst] < 0:
            return None
        path = [dst]
        while dst != start:
            dst = parent[dst]
            path.append(dst)
        path.reverse()
        return path


def directed_rules(
    view: Topology,
    src: NodeId,
    dst: NodeId,
    kappa: int,
    search: Optional[PathSearch] = None,
) -> List[HopRule]:
    """Primary + per-edge detour rules for packets ``src → dst``.

    ``search`` shares path searches across calls on the same ``view``;
    without one, the call's searches are dropped when it returns."""
    if search is None:
        search = PathSearch(view)
    names = search.names
    s, d = search.idx[src], search.idx[dst]
    primary = search.path(s, d)
    if primary is None:
        return []
    rules = [
        HopRule(names[hop], src, dst, names[nxt], PRIMARY_PRIORITY)
        for hop, nxt in zip(primary, primary[1:])
    ]
    if kappa < 1:
        return rules

    prefix = 0  # nodes strictly before the detecting node
    for i in range(len(primary) - 1):
        if i:
            prefix |= 1 << primary[i - 1]
        x, y = primary[i], primary[i + 1]
        # Shortest detour avoiding the failed edge, preferring one that
        # also avoids the primary prefix (hijack-free); falls back to
        # edge-avoidance only.
        detour = search.path(x, d, y, prefix)
        if detour is None and prefix:
            detour = search.path(x, d, y)
        if detour is None:
            continue
        priority = PRIMARY_PRIORITY - 1 - i
        if priority <= 0:
            break
        # The stamping point is the first *switch* of the detour: when the
        # detour starts at the (non-forwarding) source controller, packets
        # are stamped at the first switch they reach instead.
        start_hop = detour[0] if (search.switch_mask >> detour[0]) & 1 else (
            detour[1] if len(detour) > 1 else detour[0]
        )
        rules.extend(
            HopRule(names[hop], src, dst, names[nxt], priority, i, hop == start_hop)
            for hop, nxt in zip(detour, detour[1:])
        )
    return rules


def plan_flow_rules(
    view: Topology,
    source: NodeId,
    target: NodeId,
    kappa: int,
    search: Optional[PathSearch] = None,
) -> List[HopRule]:
    """Bidirectional κ-fault-resilient rule plan between two endpoints.

    ``search`` (on ``view``) is shared by the ``source → target``
    direction only: planning from one source to many targets reuses its
    searches, while the ``target → source`` searches start at a different
    node for every target and are never reused."""
    forward = directed_rules(view, source, target, kappa, search)
    backward = directed_rules(view, target, source, kappa)
    return forward + backward


def rules_by_switch(rules: List[HopRule]) -> Dict[NodeId, List[HopRule]]:
    grouped: Dict[NodeId, List[HopRule]] = {}
    for rule in rules:
        grouped.setdefault(rule.switch, []).append(rule)
    return grouped


__all__ = [
    "HopRule", "PRIMARY_PRIORITY", "PathSearch", "directed_rules", "plan_flow_rules",
    "rules_by_switch",
]
