"""Search planning over the scene graph: where to look next, and how to get there.

Region proposal walks the abstraction hierarchy top-down, asking the oracle
at every layer which node is most promising for the goal; unexplored
connectors are offered beside known places because new doors are the natural
frontiers of a topological map.  A shortest route over the place/connector
connectivity turns the chosen target into a next waypoint, and object
proposal grounds that waypoint into a concrete leaf to steer toward.

Each query reads what the graph keeps rather than rebuilding it: the
``(id, label, labels)`` rows the oracle sees (``SceneGraph.candidate_rows``;
``labels`` is the tuple of a place's, region's or connector's children's
labels, extended on each ``HAS``, ``CONTAINS`` or ``IS_NEAR`` insert from it,
and handed on unchanged), the frontier from each connector's count of
place-side neighbours, and one breadth-first tree per graph version and source
(``SceneGraph.hop_tree``), which gives both the hop order of the candidates
and the route to the target.
A ``SubgoalPlan`` is a NamedTuple: it equals a plain tuple of the same values.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import SceneGraph, hop_distances, hop_order
from .oracle.rules import RuleOracle
from .schema import CONNECTOR, CONNECTS_TO, CONTAINS, PLACE, REGION, Schema

logger = logging.getLogger(__name__)

# fresh sweeps reason_step may start once every region has been searched
MAX_RESETS = 8

__all__ = [
    "SubgoalPlan",
    "PlannerMemory",
    "ExhaustedError",
    "find_path",
    "propose_region",
    "propose_object",
    "reason_step",
    "export_plan_trace",
]


class ExhaustedError(RuntimeError):
    """Nothing left to search: no promising region and no frontier."""


class SubgoalPlan(NamedTuple):
    target_region: str | None = None
    waypoint: str | None = None
    object_goal: tuple[str, str] | None = None  # (node id, image_ref)


@dataclass
class PlannerMemory:
    exhausted: set[str] = field(default_factory=set)
    last_proposal: tuple[str | None, str] | None = None
    last_version: int = -1
    resets: int = 0
    trace: list[dict] = field(default_factory=list)


def find_path(graph: SceneGraph, frm: str, to: str) -> list[str] | None:
    """Fewest-hop route in the connectivity layer, excluding the start node.

    Returns ``[]`` when already there and ``None`` when unreachable.  The
    route is read off the graph's kept breadth-first tree from ``frm``,
    following first-discoverer parents back from ``to``.
    """
    adj = graph.connectivity_subgraph()
    if frm not in adj or to not in adj:
        return None
    if frm == to:
        return []
    _, prev = graph.hop_tree(frm)
    if to not in prev:
        return None
    path = [to]
    while path[-1] != frm:
        path.append(prev[path[-1]])
    path.reverse()
    return path[1:]


def _is_connector(graph: SceneGraph, node_id: str) -> bool:
    return graph.node(node_id).kind is CONNECTOR


def _frontier_connectors(graph: SceneGraph) -> list[str]:
    """Connectors seen from at most one place: likely doors to unmapped space."""
    return [c for c, places in graph.connector_place_counts().items() if places <= 1]


def propose_region(
    schema: Schema,
    graph: SceneGraph,
    goal: str,
    oracle: RuleOracle,
    current: str | None = None,
    exhausted: set[str] | None = None,
) -> str:
    """Coarse-to-fine pick of a layer-2 target to search for the goal.

    Candidates are handed to the oracle nearest-first, so with no semantic
    signal the tie-break sweeps outward instead of ping-ponging across the map.
    When the descent through the regions finds nothing left to search, the
    target is the unexplored connector fewest hops away (ties: first mapped).
    """
    exhausted = exhausted or set()
    if not graph.count(PLACE):
        raise ExhaustedError("the graph holds no places yet")

    # the descent starts at the regions of the highest layer the graph holds
    regions = graph.nodes(REGION)
    layers = [schema.concepts[n.cls].layer_id for n in regions]
    top = max(layers, default=None)
    start_nodes = [n.id for n, layer in zip(regions, layers) if layer == top]

    distances = hop_distances(graph, current)
    frontier = hop_order(
        [f for f in _frontier_connectors(graph) if f not in exhausted], distances
    )

    if not start_nodes:
        candidates = hop_order(
            [p.id for p in graph.places() if p.id not in exhausted], distances
        ) + frontier
        if candidates:
            return oracle.select_region(graph.candidate_rows(candidates), goal).chosen
    else:
        chosen = _descend(graph, goal, oracle, start_nodes, frontier, exhausted, distances)
        if chosen is not None:
            return chosen
        if frontier:
            return frontier[0]
    raise ExhaustedError("no unexplored region or connector remains")


def _descend(
    graph: SceneGraph,
    goal: str,
    oracle: RuleOracle,
    start_nodes: list[str],
    frontier: list[str],
    exhausted: set[str],
    distances: Mapping[str, int],
) -> str | None:
    """Walk containment downward; every pick is a child of the previous pick."""

    def region_key(region_id: str) -> tuple[float, str]:
        children = graph.out_targets(region_id, CONTAINS)
        reach = [distances[c] for c in children if c in distances]
        return (min(reach) if reach else float("inf"), region_id)

    level = sorted(start_nodes, key=region_key)
    while level:
        proposal = oracle.select_region(graph.candidate_rows(level), goal)
        node = graph.node(proposal.chosen)
        if node.kind is not REGION:
            return proposal.chosen
        children = graph.out_targets(node.id, CONTAINS)
        if all(graph.node(c).kind is REGION for c in children) and children:
            level = sorted(children, key=region_key)
            continue
        places = hop_order([c for c in children if c not in exhausted], distances)
        # a frontier connector is nearby when it connects to a non-connector child
        inside = {c for c in children if graph.node(c).kind is not CONNECTOR}
        nearby_frontier = [
            f for f in frontier
            if not inside.isdisjoint(graph.out_targets(f, CONNECTS_TO))
        ]
        candidates = places + nearby_frontier
        if not candidates:
            return None
        return oracle.select_region(graph.candidate_rows(candidates), goal).chosen
    return None


def propose_object(
    graph: SceneGraph,
    region: str,
    goal: str,
    oracle: RuleOracle,
    toward: str | None = None,
) -> tuple[str, str, str]:
    """Ground a region into a leaf to steer toward; connectors pass through as-is.

    Returns (node id, image handle, reasoning).
    """
    node = graph.node(region)
    if node.kind is CONNECTOR:
        return (region, node.image_ref, "the target is itself a passage")
    leaves = graph.leaves_of(region)
    # a path node is a place or connector, never an object: only a connector matches here
    if toward is not None and toward in leaves:
        return (toward, graph.node(toward).image_ref, "this passage continues the planned path")
    if not leaves:
        raise ExhaustedError(f"{region} holds no leaf to steer toward")
    proposal = oracle.select_object(
        [(leaf.id, leaf.label, leaf.desc) for leaf in map(graph.node, leaves)], goal
    )
    return (proposal.chosen, graph.node(proposal.chosen).image_ref, proposal.reasoning)


def _reached(graph: SceneGraph, target: str, current: str | None) -> bool:
    if current is None:
        return False
    if current == target:
        return True
    return _is_connector(graph, target) and graph.has_edge(
        current, target, CONNECTS_TO
    )


def reason_step(
    schema: Schema,
    graph: SceneGraph,
    current: str | None,
    plan: SubgoalPlan,
    goal: str,
    oracle: RuleOracle,
    memory: PlannerMemory | None = None,
) -> SubgoalPlan:
    """Advance the plan one decision: pick/approach/search the target region."""
    memory = memory if memory is not None else PlannerMemory()
    attempts = graph.count(PLACE) + len(_frontier_connectors(graph)) + 2
    target = plan.target_region
    for _ in range(attempts):
        if target is None:
            try:
                target = propose_region(
                    schema, graph, goal, oracle, current=current, exhausted=memory.exhausted
                )
            except ExhaustedError:
                if not memory.exhausted or memory.resets >= MAX_RESETS:
                    raise
                # everything has been swept once; detections drop out, so a
                # bounded number of fresh passes may still find the goal
                logger.debug("search memory exhausted; starting a fresh sweep")
                memory.resets += 1
                memory.exhausted.clear()
                target = propose_region(
                    schema, graph, goal, oracle, current=current, exhausted=memory.exhausted
                )
        reached = _reached(graph, target, current)
        path = [] if reached or current is None else find_path(graph, current, target)
        if path is None:
            logger.debug("target %s unreachable from %s; re-proposing", target, current)
            memory.exhausted.add(target)
            target = None
            continue
        # ground the next hop, or the target itself once there or when lost
        waypoint = path[0] if path else None
        toward = path[1] if len(path) > 1 else None
        node_id, image_ref, why = propose_object(
            graph, waypoint or target, goal, oracle, toward=toward
        )
        result = SubgoalPlan(
            target_region=None if reached else target,
            waypoint=waypoint,
            object_goal=(node_id, image_ref),
        )
        repeat = _is_repeat(memory, graph, result)
        if reached or repeat:
            memory.exhausted.add(target)
        if repeat:
            target = None
            continue
        _remember(memory, graph, result, path, why)
        return result
    raise ExhaustedError("planner cycled without finding a new proposal")


def _is_repeat(memory: PlannerMemory, graph: SceneGraph, plan: SubgoalPlan) -> bool:
    if plan.object_goal is None:
        return False
    pair = (plan.target_region, plan.object_goal[0])
    return pair == memory.last_proposal and graph.version == memory.last_version


def _remember(
    memory: PlannerMemory,
    graph: SceneGraph,
    plan: SubgoalPlan,
    path: list[str],
    reasoning: str,
) -> None:
    assert plan.object_goal is not None
    memory.last_proposal = (plan.target_region, plan.object_goal[0])
    memory.last_version = graph.version
    memory.trace.append(
        {
            "target_region": plan.target_region,
            "path": list(path),
            "waypoint": plan.waypoint,
            "object_goal": plan.object_goal[0],
            "reasoning": reasoning,
            "graph_version": graph.version,
        }
    )


def export_plan_trace(memory: PlannerMemory) -> str:
    return "\n".join(json.dumps(rec) for rec in memory.trace) + ("\n" if memory.trace else "")
