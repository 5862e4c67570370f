import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenenav.graph import (
    ConnectorNode,
    ObjectNode,
    PlaceNode,
    RegionNode,
    SceneGraph,
    hop_order,
)
from scenenav.oracle.rules import RuleOracle
from scenenav.planner import (
    ExhaustedError,
    PlannerMemory,
    SubgoalPlan,
    find_path,
    propose_object,
    propose_region,
    reason_step,
)
from scenenav.oracle.base import Proposal
from scenenav.schema import ConceptKind, EdgeKind, builtin_schema, parse_schema


@pytest.fixture
def home():
    return builtin_schema("home")


@pytest.fixture
def oracle():
    return RuleOracle()


def _chain(graph, labels):
    places = [graph.add_node(PlaceNode(cls="Room", label=l)) for l in labels]
    for a, b in zip(places, places[1:]):
        graph.add_edge(a, b, EdgeKind.CONNECTS_TO)
    return places


class TestFindPath:
    def test_same_node_empty_path(self, home):
        graph = SceneGraph(home)
        (a,) = _chain(graph, ["kitchen"])
        assert find_path(graph, a, a) == []

    def test_three_chain(self, home):
        graph = SceneGraph(home)
        a, b, c = _chain(graph, ["kitchen", "hall", "bedroom"])
        assert find_path(graph, a, c) == [b, c]

    def test_unreachable_returns_none(self, home):
        graph = SceneGraph(home)
        a, b = _chain(graph, ["kitchen", "hall"])
        lonely = graph.add_node(PlaceNode(cls="Room", label="attic"))
        assert find_path(graph, a, lonely) is None

    def test_matches_brute_force_on_random_graphs(self, home):
        import random

        rnd = random.Random(1234)
        for trial in range(100):
            graph = SceneGraph(home)
            n = rnd.randint(2, 12)
            places = [graph.add_node(PlaceNode(cls="Room", label=f"r{i}")) for i in range(n)]
            # random spanning tree keeps it connected, then extra edges
            for i in range(1, n):
                graph.add_edge(places[i], places[rnd.randrange(i)], EdgeKind.CONNECTS_TO)
            for _ in range(rnd.randint(0, n)):
                a, b = rnd.sample(places, 2)
                graph.add_edge(a, b, EdgeKind.CONNECTS_TO)
            src, dst = rnd.sample(places, 2)
            got = find_path(graph, src, dst)
            assert got is not None
            assert got[-1] == dst
            # path is walkable
            adj = graph.connectivity_subgraph()
            walk = [src] + got
            for x, y in zip(walk, walk[1:]):
                assert y in adj[x]
            assert len(got) == _bfs_distance(adj, src, dst)


def _bfs_distance(adj, src, dst):
    from collections import deque

    dist = {src: 0}
    q = deque([src])
    while q:
        node = q.popleft()
        if node == dst:
            return dist[node]
        for nb in adj[node]:
            if nb not in dist:
                dist[nb] = dist[node] + 1
                q.append(nb)
    return None


def _furnish(graph, place, labels):
    ids = []
    for label in labels:
        obj = graph.add_node(ObjectNode(label=label))
        graph.add_edge(place, obj, EdgeKind.HAS)
        ids.append(obj)
    return ids


_node_id = st.sampled_from([f"n{i}" for i in range(12)])


# few hop counts so that ties are common; ids missing from the map are unreachable
@settings(max_examples=200, deadline=None)
@given(ids=st.lists(_node_id, unique=True), hops=st.dictionaries(_node_id, st.integers(0, 3)))
def test_order_matches_a_distance_then_input_index_key(ids, hops):
    index = {node_id: i for i, node_id in enumerate(ids)}
    want = sorted(ids, key=lambda n: (hops.get(n, float("inf")), index[n]))
    got = hop_order(ids, hops)
    assert got == want
    reachable = [n for n in got if n in hops]
    assert got[len(reachable):] == [n for n in ids if n not in hops]
    for d in set(hops.values()):
        assert [n for n in got if hops.get(n) == d] == [n for n in ids if hops.get(n) == d]


class TestProposeRegion:
    def test_single_place(self, home, oracle):
        graph = SceneGraph(home)
        (only,) = _chain(graph, ["kitchen"])
        _furnish(graph, only, ["sink"])
        assert propose_region(home, graph, "sink", oracle) == only

    def test_cooccurrence_prefers_kitchen(self, home, oracle):
        graph = SceneGraph(home)
        kitchen, living = _chain(graph, ["kitchen", "livingroom"])
        _furnish(graph, kitchen, ["oven"])
        _furnish(graph, living, ["sofa"])
        floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
        graph.add_edge(floor, kitchen, EdgeKind.CONTAINS)
        graph.add_edge(floor, living, EdgeKind.CONTAINS)
        assert propose_region(home, graph, "sink", oracle) == kitchen

    def test_descent_stays_inside_chosen_region(self, home, oracle):
        graph = SceneGraph(home)
        bedroom1, bath = _chain(graph, ["bedroom", "bathroom"])
        bedroom2 = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
        graph.add_edge(bath, bedroom2, EdgeKind.CONNECTS_TO)
        _furnish(graph, bedroom1, ["bed"])
        _furnish(graph, bath, ["mirror", "toilet"])
        _furnish(graph, bedroom2, ["bed", "lamp"])
        f1 = graph.add_node(RegionNode(cls="Floor", label="floor"))
        f2 = graph.add_node(RegionNode(cls="Floor", label="floor"))
        graph.add_edge(f1, bedroom1, EdgeKind.CONTAINS)
        graph.add_edge(f1, bath, EdgeKind.CONTAINS)
        graph.add_edge(f2, bedroom2, EdgeKind.CONTAINS)
        # goal sink: floor_1 summary mentions bathroom contents via its children
        chosen = propose_region(home, graph, "toilet", oracle)
        assert chosen in {bedroom1, bath}  # child of f1, never bedroom2

    def test_frontier_connector_offered(self, home, oracle):
        graph = SceneGraph(home)
        (living,) = _chain(graph, ["livingroom"])
        _furnish(graph, living, ["sofa"])
        door = graph.add_node(ConnectorNode(cls="Entrance", label="door"))
        graph.add_edge(living, door, EdgeKind.CONNECTS_TO)
        floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
        graph.add_edge(floor, living, EdgeKind.CONTAINS)
        # a sink is nowhere in the map; the frontier door outranks the sofa room
        chosen = propose_region(home, graph, "sink", oracle, exhausted={living})
        assert chosen == door

    def test_exhausted_places_fall_back_to_nearest_frontier(self, home, oracle):
        # the floor holds only p0, so the descent finds nothing once every place
        # is exhausted; the target is then the frontier door fewest hops away,
        # the first mapped one among equals
        graph = SceneGraph(home)
        places = _chain(graph, ["hallway", "bedroom", "kitchen", "bathroom", "office"])
        island = graph.add_node(PlaceNode(cls="Room", label="attic"))
        floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
        graph.add_edge(floor, places[0], EdgeKind.CONTAINS)
        doors = []
        for host in (island, places[4], places[2], places[1], places[3], places[1]):
            door = graph.add_node(ConnectorNode(cls="Entrance", label="door"))
            graph.add_edge(host, door, EdgeKind.CONNECTS_TO)
            doors.append(door)
        exhausted = set(places) | {island}
        for current in places:
            costs = []
            for door in doors:
                path = find_path(graph, current, door)
                costs.append(len(path) if path is not None else float("inf"))
            nearest = doors[costs.index(min(costs))]
            got = propose_region(home, graph, "sink", oracle, current=current,
                                 exhausted=exhausted)
            assert got == nearest
        # with those doors exhausted too, nothing is left
        with pytest.raises(ExhaustedError):
            propose_region(home, graph, "sink", oracle, current=places[0],
                           exhausted=exhausted | set(doors))

    def test_exhaustion_raises(self, home, oracle):
        graph = SceneGraph(home)
        with pytest.raises(ExhaustedError):
            propose_region(home, graph, "sink", oracle)


def _towers():
    """Two floors of a building, two rooms each, on a schema with two region layers."""
    schema = parse_schema(json.dumps({
        "Building": {"layer_type": "Region", "layer_id": 4, "contains": ["Floor"]},
        "Floor": {"layer_type": "Region", "layer_id": 3, "contains": ["Room"]},
        "Room": {"layer_type": "Place", "layer_id": 2, "has": ["Object"],
                 "connects_to": ["Room"]},
        "Object": {"layer_id": 1},
    }))
    graph = SceneGraph(schema)
    kitchen, living, bedroom, bath = _chain(graph, ["kitchen", "livingroom", "bedroom", "bathroom"])
    _furnish(graph, kitchen, ["oven"])
    _furnish(graph, living, ["sofa"])
    _furnish(graph, bedroom, ["bed"])
    _furnish(graph, bath, ["mirror"])
    building = graph.add_node(RegionNode(cls="Building", label="building"))
    for rooms in ((kitchen, living), (bedroom, bath)):
        floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
        graph.add_edge(building, floor, EdgeKind.CONTAINS)
        for room in rooms:
            graph.add_edge(floor, room, EdgeKind.CONTAINS)
    return schema, graph


class _Recorded(RuleOracle):
    """The rule oracle, recording the candidate ids of each region choice."""

    def __init__(self, answer=None):
        super().__init__()
        self.asked = []
        self.answer = answer

    def select_region(self, candidates, goal):
        self.asked.append([c[0] for c in candidates])
        if self.answer is not None:
            return Proposal(chosen=self.answer, reasoning="answered as asked")
        return super().select_region(candidates, goal)


class TestDescentThroughRegionLayers:
    def test_a_level_of_regions_is_descended_to_its_rooms(self):
        schema, graph = _towers()
        oracle = _Recorded()
        # the toilet is typical of the bathroom, which only the second floor holds
        assert propose_region(schema, graph, "toilet", oracle) == "bathroom_1"
        assert oracle.asked == [
            ["building_1"], ["floor_1", "floor_2"], ["bedroom_1", "bathroom_1"]
        ]

    def test_a_pick_that_is_no_region_is_the_target(self):
        schema, graph = _towers()
        # an oracle may answer a place straight away; the descent stops there
        oracle = _Recorded(answer="livingroom_1")
        assert propose_region(schema, graph, "toilet", oracle) == "livingroom_1"
        assert oracle.asked == [["building_1"]]


class TestProposeObject:
    def test_connector_passes_through(self, home, oracle):
        graph = SceneGraph(home)
        door = graph.add_node(ConnectorNode(cls="Entrance", label="door", image_ref="img:d"))
        assert propose_object(graph, door, "sink", oracle)[:2] == (door, "img:d")

    def test_single_leaf(self, home, oracle):
        graph = SceneGraph(home)
        (room,) = _chain(graph, ["bathroom"])
        (mirror,) = _furnish(graph, room, ["mirror"])
        assert propose_object(graph, room, "sink", oracle)[0] == mirror

    def test_nearness_choice(self, home, oracle):
        graph = SceneGraph(home)
        (room,) = _chain(graph, ["bathroom"])
        ids = _furnish(graph, room, ["picture", "mirror", "sofa"])
        assert propose_object(graph, room, "sink", oracle)[0] == ids[1]

    def test_toward_connector_preferred(self, home, oracle):
        graph = SceneGraph(home)
        a, b = _chain(graph, ["livingroom", "kitchen"])
        _furnish(graph, a, ["sofa", "tv"])
        door = graph.add_node(ConnectorNode(cls="Entrance", label="door", image_ref="img:d"))
        graph.add_edge(a, door, EdgeKind.CONNECTS_TO)
        graph.add_edge(door, b, EdgeKind.CONNECTS_TO)
        assert propose_object(graph, a, "sink", oracle, toward=door)[:2] == (door, "img:d")

    def test_empty_place_falls_back_to_entry_connector(self, home, oracle):
        graph = SceneGraph(home)
        (room,) = _chain(graph, ["pantry"])
        door = graph.add_node(ConnectorNode(cls="Entrance", label="door"))
        graph.add_edge(room, door, EdgeKind.CONNECTS_TO)
        assert propose_object(graph, room, "sink", oracle)[0] == door

    def test_no_leaves_at_all_raises(self, home, oracle):
        graph = SceneGraph(home)
        (room,) = _chain(graph, ["void"])
        with pytest.raises(ExhaustedError):
            propose_object(graph, room, "sink", oracle)


class TestReasonStep:
    def test_zero_hop_goal_in_current_place(self, home, oracle):
        graph = SceneGraph(home)
        (bath,) = _chain(graph, ["bathroom"])
        ids = _furnish(graph, bath, ["mirror", "sink"])
        plan = reason_step(home, graph, bath, SubgoalPlan(), "sink", oracle)
        assert plan.target_region is None  # cleared after reaching
        assert plan.object_goal[0] == ids[1]

    def test_two_hop_target_waypoint_first(self, home, oracle):
        graph = SceneGraph(home)
        living, hall, kitchen = _chain(graph, ["livingroom", "hallway", "kitchen"])
        _furnish(graph, living, ["sofa"])
        _furnish(graph, hall, ["plant"])
        _furnish(graph, kitchen, ["oven", "counter"])
        plan = reason_step(home, graph, living, SubgoalPlan(), "sink", oracle)
        assert plan.target_region == kitchen
        assert plan.waypoint == hall
        owner_edges = graph.out_neighbors(hall, EdgeKind.HAS)
        assert plan.object_goal[0] in owner_edges

    def test_reached_clears_target(self, home, oracle):
        graph = SceneGraph(home)
        (bath,) = _chain(graph, ["bathroom"])
        _furnish(graph, bath, ["mirror"])
        plan = reason_step(
            home, graph, bath, SubgoalPlan(target_region=bath), "sink", oracle
        )
        assert plan.target_region is None
        assert plan.object_goal is not None

    def test_no_immediate_repeat_without_graph_change(self, home, oracle):
        graph = SceneGraph(home)
        living, kitchen = _chain(graph, ["livingroom", "kitchen"])
        _furnish(graph, living, ["sofa"])
        _furnish(graph, kitchen, ["oven"])
        memory = PlannerMemory()
        first = reason_step(home, graph, living, SubgoalPlan(), "sink", oracle, memory)
        second = reason_step(home, graph, living, SubgoalPlan(), "sink", oracle, memory)
        pair_one = (first.target_region, first.object_goal[0])
        pair_two = (second.target_region, second.object_goal[0])
        assert pair_one != pair_two

    def test_a_target_with_no_route_is_written_off_and_proposed_again(self, home, oracle):
        graph = SceneGraph(home)
        living, kitchen = _chain(graph, ["livingroom", "kitchen"])
        island = graph.add_node(PlaceNode(cls="Room", label="bathroom"))
        (sofa,) = _furnish(graph, living, ["sofa"])
        _furnish(graph, kitchen, ["oven"])
        _furnish(graph, island, ["mirror", "toilet"])
        memory = PlannerMemory()
        # the island names the toilet, so it is proposed first; no route reaches it
        assert propose_region(home, graph, "toilet", oracle, current=living) == island
        plan = reason_step(home, graph, living, SubgoalPlan(), "toilet", oracle, memory)
        assert island in memory.exhausted
        assert plan == SubgoalPlan(target_region=None, waypoint=None, object_goal=(sofa, ""))
        assert [r["target_region"] for r in memory.trace] == [None]

    def test_unreachable_target_triggers_reproposal(self, home, oracle):
        graph = SceneGraph(home)
        living, kitchen = _chain(graph, ["livingroom", "kitchen"])
        island = graph.add_node(PlaceNode(cls="Room", label="bathroom"))
        _furnish(graph, living, ["sofa"])
        _furnish(graph, kitchen, ["oven"])
        _furnish(graph, island, ["mirror", "toilet"])
        # bathroom would win for "sink" but is unreachable; planner must settle
        plan = reason_step(home, graph, living, SubgoalPlan(), "sink", oracle)
        assert plan.object_goal is not None
        assert plan.target_region != island


# SHA-256 of planner outputs on the benchmark's sweep homes (bench/sweep.py).
# Each plan-trace record holds graph.version, so the digests move whenever the
# version counts mutations differently.  They were re-pinned when a proximity
# pair became one mutation, like a connectivity pair: with graph_version left
# out of the traces, all five digests were the same before and after.  They
# were re-pinned again when the mapper stopped writing object-object
# proximity.  Every export is then the previous one with its object-object
# IS_NEAR edges taken out, and the map-query plans are the same with
# graph_version left out.  The per-frame plans toward "piano" are the same
# at 10 rooms only.  At 40, 160 and 320 rooms they first differ at frames 36,
# 84 and 140, where the planner proposes the previous (target, object) pair
# again: before, an object-object edge had moved graph.version since that
# proposal; now nothing has, so _is_repeat fires and another target is taken.
MAP_QUERY_PLANS_SHA256 = "6be3b30d393b20b2105e798057fe57b5cab33cd5b1069d3fe277af18361c1019"
SWEEP_PLANS_SHA256 = "b04149eaa13e94ea6061eee92f4e4d25bc64fc44d12f3c1bbca03c2102e1a3c6"
# (per-frame plans with trace and export, export alone) on the seed-0 sweep
# homes
SWEEP_SHA256 = {
    10: ("181050c7b6af271f597f2a4da91a1d51d807da986d0c57f82fd89590292993b7",
         "4fea34435a5aef2ca4f83855aa1a9ef4b8b2e207c8d5f7cb408d14180fd7991a"),
    160: ("dbef573d4b38a4dc42d2428592084e1bba9a0e3eff8b9b6bf0672de8490807ee",
          "3ecdd05f107a3f5c4299ad1b68ca40c73e03e87d302c6819d4c7a89f03831ead"),
    320: ("bb4e2da4b09c618b2a18402f34ae7500c472babb513eceaac9d2b9226ace375e",
          "908d8986f2732b5a5df0a95966a44c048ffe7860d79267c53ff9090c2d851b50"),
}


def _plan_text(plan_once):
    try:
        return repr(plan_once())
    except ExhaustedError:
        return "exhausted"


class TestPlanGoldens:
    def test_every_map_query_plan_on_the_320_room_map(self, home, oracle, sweep):
        from scenenav.mapper import MapperConfig, MapperState, mapper_step
        from scenenav.planner import export_plan_trace
        from scenenav.sim.protocol import GOAL_CATEGORIES

        scene = sweep.sweep_home(320, 0)
        state = MapperState(graph=SceneGraph(home))
        for frame in sweep.sweep_frames(scene, 0):
            state = mapper_step(frame, home, state, oracle, MapperConfig()).state
        graph = state.graph
        digest = hashlib.sha256()
        for place in graph.places():
            for goal in GOAL_CATEGORIES:
                memory = PlannerMemory()
                digest.update(_plan_text(lambda: reason_step(
                    home, graph, place.id, SubgoalPlan(), goal, oracle, memory
                )).encode())
                digest.update(export_plan_trace(memory).encode())
        assert len(graph.places()) * len(GOAL_CATEGORIES) == 1050
        assert digest.hexdigest() == MAP_QUERY_PLANS_SHA256

    def test_per_frame_sweep_plans_on_the_40_room_map(self, home, oracle, sweep):
        from scenenav.graph import import_graph

        digest, export = _sweep_plans(home, oracle, sweep, 40)
        assert digest == SWEEP_PLANS_SHA256
        assert import_graph(export, home).export() == export

    @pytest.mark.parametrize("n", sorted(SWEEP_SHA256))
    def test_per_frame_sweep_plans_and_export(self, home, oracle, sweep, n):
        digest, export = _sweep_plans(home, oracle, sweep, n)
        assert (digest, hashlib.sha256(export.encode()).hexdigest()) == SWEEP_SHA256[n]


class _RecordingOracle(RuleOracle):
    def __init__(self):
        super().__init__()
        self.calls = []

    def select_region(self, candidates, goal):
        self.calls.append((list(candidates), goal))
        return super().select_region(candidates, goal)


def _full_scan_rows(graph, ids):
    """Candidate rows rebuilt from the edge lists, as the planner once built them per query."""
    rows = []
    for node_id in ids:
        node = graph.node(node_id)
        if node.kind is ConceptKind.PLACE:
            contents = graph.out_neighbors(node_id, EdgeKind.HAS)
        elif node.kind is ConceptKind.REGION:
            contents = graph.out_neighbors(node_id, EdgeKind.CONTAINS)
        else:
            contents = dict.fromkeys(graph.out_neighbors(node_id, EdgeKind.IS_NEAR)
                                     + graph.in_neighbors(node_id, EdgeKind.IS_NEAR))
        rows.append((node_id, node.label, tuple(graph.node(c).label for c in contents)))
    return rows


def _full_scan_descend(graph, goal, oracle, start_nodes, frontier, exhausted, distances):
    """``planner._descend`` with copied neighbour lists and a per-neighbour frontier test."""

    def region_key(region_id):
        children = graph.out_neighbors(region_id, EdgeKind.CONTAINS)
        reach = [distances[c] for c in children if c in distances]
        return (min(reach) if reach else float("inf"), region_id)

    level = sorted(start_nodes, key=region_key)
    while level:
        chosen = oracle.select_region(_full_scan_rows(graph, level), goal).chosen
        if graph.node(chosen).kind is not ConceptKind.REGION:
            return chosen
        children = graph.out_neighbors(chosen, EdgeKind.CONTAINS)
        if children and all(graph.node(c).kind is ConceptKind.REGION for c in children):
            level = sorted(children, key=region_key)
            continue
        places = hop_order([c for c in children if c not in exhausted], distances)
        nearby_frontier = [
            f for f in frontier
            if any(nb in children and graph.node(nb).kind is not ConceptKind.CONNECTOR
                   for nb in graph.out_neighbors(f, EdgeKind.CONNECTS_TO))
        ]
        candidates = places + nearby_frontier
        if not candidates:
            return None
        return oracle.select_region(_full_scan_rows(graph, candidates), goal).chosen
    return None


def test_select_region_sees_the_full_scan_candidate_lists(home, sweep, monkeypatch):
    from scenenav import planner
    from scenenav.mapper import MapperConfig, MapperState, mapper_step
    from scenenav.sim.protocol import GOAL_CATEGORIES

    state = MapperState(graph=SceneGraph(home))
    for frame in sweep.sweep_frames(sweep.sweep_home(40, 0), 0):
        state = mapper_step(frame, home, state, RuleOracle(), MapperConfig()).state
    graph = state.graph

    def plan_all(oracle):
        for place in graph.places():
            for goal in GOAL_CATEGORIES:
                _plan_text(lambda: reason_step(
                    home, graph, place.id, SubgoalPlan(), goal, oracle, PlannerMemory()
                ))
        return oracle.calls

    kept = plan_all(_RecordingOracle())
    monkeypatch.setattr(planner, "_descend", _full_scan_descend)
    monkeypatch.setattr(SceneGraph, "candidate_rows", _full_scan_rows)
    reference = plan_all(_RecordingOracle())
    assert kept == reference
    # the lists cover regions, places and frontier connectors
    kinds = {graph.node(row[0]).kind for rows, _ in kept for row in rows}
    assert kinds == {ConceptKind.REGION, ConceptKind.PLACE, ConceptKind.CONNECTOR}


def _sweep_plans(home, oracle, sweep, n):
    """SHA-256 of every frame's plan toward "piano", the plan trace and the
    export on the seed-0 N-room sweep home; and the export."""
    from scenenav.mapper import MapperConfig, MapperState, mapper_step
    from scenenav.planner import export_plan_trace

    state = MapperState(graph=SceneGraph(home))
    plan, memory = SubgoalPlan(), PlannerMemory()
    digest = hashlib.sha256()
    for frame in sweep.sweep_frames(sweep.sweep_home(n, 0), 0):
        state = mapper_step(frame, home, state, oracle, MapperConfig(goal="piano")).state
        try:
            plan = reason_step(
                home, state.graph, state.current_place, plan, "piano", oracle, memory
            )
        except ExhaustedError:
            plan = SubgoalPlan()
        digest.update(repr(plan).encode())
    export = state.graph.export()
    digest.update(export_plan_trace(memory).encode())
    digest.update(export.encode())
    return digest.hexdigest(), export
