import pickle

import numpy as np
import pytest

from scenenav import mapper, planner
from scenenav.graph import ConnectorNode, PlaceNode, SceneGraph, validate_graph
from scenenav.mapper import MapperConfig, MapperState, mapper_step
from scenenav.oracle import base
from scenenav.oracle.rules import RuleOracle
from scenenav.oracle.tables import DEFAULT_SYNONYM_GROUPS, OracleTables, default_tables
from scenenav.schema import EdgeKind, builtin_schema
from scenenav.sim import (
    EpisodeResult,
    EpisodeSpec,
    GroundTruthScene,
    LayerQuality,
    SceneConnector,
    SceneObject,
    ScenePlace,
    act,
    baseline_greedy_frontier,
    baseline_random,
    cover_walk,
    default_noise,
    generate_home_scene,
    generate_market_scene,
    layer2_quality,
    metrics,
    noiseless,
    observe,
    run_episode,
    scene_from_json,
    scene_to_json,
    validate_scene,
    walk_to_frames,
)
from scenenav.sim import episode
from scenenav.sim.protocol import GOAL_CATEGORIES, BenchmarkProtocol, build_episodes
from scenenav.sim.scene import AISLE_POOLS, COLORS, MATERIALS, ROOM_POOLS


@pytest.fixture
def home():
    return builtin_schema("home")


def small_scene() -> GroundTruthScene:
    scene = GroundTruthScene(env_label="home")
    scene.places["livingroom_1"] = ScenePlace(
        "livingroom_1", "Room", "livingroom",
        [SceneObject("sofa", "gray fabric"), SceneObject("tv", "black plastic")],
    )
    scene.places["hallway_2"] = ScenePlace(
        "hallway_2", "Corridor", "hallway",
        [SceneObject("plant", "green"), SceneObject("picture", "framed")],
    )
    scene.places["kitchen_3"] = ScenePlace(
        "kitchen_3", "Room", "kitchen",
        [SceneObject("sink", "steel"), SceneObject("oven", "black metal")],
    )
    scene.connectors["door_1"] = SceneConnector("door_1", "door", ("livingroom_1", "hallway_2"))
    scene.connectors["door_2"] = SceneConnector("door_2", "door", ("hallway_2", "kitchen_3"))
    scene.links = [
        ("livingroom_1", "hallway_2", "door_1"),
        ("hallway_2", "kitchen_3", "door_2"),
    ]
    return scene


class TestSceneGeneration:
    def test_home_scenes_satisfy_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scene = generate_home_scene(rng)
            assert validate_scene(scene) == []
            assert 4 <= len([p for p in scene.places.values()]) <= 10
            assert scene.regions
            # connected
            start = next(iter(scene.places))
            reachable = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nb, _ in scene.neighbors(node):
                    if nb not in reachable:
                        reachable.add(nb)
                        frontier.append(nb)
            assert reachable == set(scene.places)

    def test_market_scenes_satisfy_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scene = generate_market_scene(rng)
            assert validate_scene(scene) == []
            assert not scene.connectors

    def test_scene_json_roundtrip(self):
        rng = np.random.default_rng(2)
        scene = generate_home_scene(rng)
        again = scene_from_json(scene_to_json(scene))
        assert scene_to_json(again) == scene_to_json(scene)


class TestRoute:
    def test_start_that_qualifies_gives_empty_route(self):
        assert small_scene().route("kitchen_3", lambda p: p.startswith("kitchen")) == []

    def test_nothing_qualifies_gives_none(self):
        assert small_scene().route("kitchen_3", lambda p: p == "attic_9") is None

    def test_fewest_hops_start_excluded(self):
        scene = small_scene()
        assert scene.route("livingroom_1", lambda p: p == "kitchen_3") == ["hallway_2", "kitchen_3"]
        assert scene.shortest_hops("livingroom_1", ["kitchen_3", "hallway_2"]) == 1
        assert scene.shortest_hops("livingroom_1", []) == float("inf")

    def test_ties_go_to_the_place_found_first(self):
        # two branches from a: both leaves are two hops away; neighbors order decides
        scene = GroundTruthScene(env_label="home")
        for pid in ("a", "b", "c", "d", "e"):
            scene.places[pid] = ScenePlace(pid, "Room", "bedroom")
        scene.links = [("a", "c", None), ("a", "b", None), ("b", "e", None), ("c", "d", None)]
        assert scene.route("a", lambda p: p in {"d", "e"}) == ["c", "d"]


class TestObserve:
    def test_noiseless_lists_exact_objects(self):
        scene = small_scene()
        frame = observe(scene, "kitchen_3", noiseless(), np.random.default_rng(0))
        labels = sorted(d.label for d in frame.detections)
        assert labels == ["door", "oven", "sink"]
        assert frame.place_type_answer == "Room"
        assert frame.place_label_answer == "kitchen"

    def test_zero_recall_empty(self):
        scene = small_scene()
        noise = noiseless()
        noise.detect_recall = 0.0
        frame = observe(scene, "kitchen_3", noise, np.random.default_rng(0))
        assert frame.detections == ()

    def test_bernoulli_thinning_mean(self):
        scene = GroundTruthScene(env_label="home")
        scene.places["room_1"] = ScenePlace(
            "room_1", "Room", "bedroom", [SceneObject(f"thing{i}") for i in range(10)]
        )
        noise = noiseless()
        noise.detect_recall = 0.9
        rng = np.random.default_rng(123)
        total = sum(
            len(observe(scene, "room_1", noise, rng).detections) for _ in range(10_000)
        )
        assert total / 10_000 == pytest.approx(9.0, abs=0.1)

    def test_ring_layout_satisfies_nearness(self, home):
        scene = small_scene()
        frame = observe(scene, "livingroom_1", noiseless(), np.random.default_rng(0))
        from scenenav.mapper import parse_frame

        obs = parse_frame(frame, home, RuleOracle(), MapperConfig())
        n = len(obs.objects) + len(obs.connectors)
        assert len(obs.near_pairs) == n * (n - 1) // 2

    def test_ring_boxes_are_the_per_slot_formula(self):
        # each frame size reads its boxes from one table; the boxes are those
        # the per-detection formula gives (reference)
        import math

        def slot(index, total):
            angle = 2.0 * math.pi * index / max(total, 1)
            cx = 400.0 + 38.0 * math.cos(angle)
            cy = 400.0 + 38.0 * math.sin(angle)
            return (cx - 11.0, cy - 11.0, 22.0, 22.0)

        scene = GroundTruthScene(env_label="home")
        for n in range(1, 12):
            pid = f"room_{n}"
            scene.places[pid] = ScenePlace(pid, "Room", "den", [SceneObject(f"o{i}")
                                                                for i in range(n)])
            for _ in range(2):
                frame = observe(scene, pid, noiseless(), np.random.default_rng(0))
                assert [d.bbox for d in frame.detections] == [slot(i, n) for i in range(n)]

    def test_detection_anchors_are_stable(self):
        scene = small_scene()
        a = observe(scene, "kitchen_3", noiseless(), np.random.default_rng(0))
        b = observe(scene, "kitchen_3", noiseless(), np.random.default_rng(99))
        assert {d.image_ref for d in a.detections} == {d.image_ref for d in b.detections}


class TestAct:
    def test_object_in_current_place_costs_nothing(self):
        scene = small_scene()
        got = act(scene, "kitchen_3", "gt:obj:kitchen_3:0")
        assert got.place == "kitchen_3" and got.cost == 0 and got.ok

    def test_connector_crossing(self):
        scene = small_scene()
        got = act(scene, "livingroom_1", "gt:conn:door_1")
        assert got.place == "hallway_2" and got.cost == 1 and got.ok

    def test_object_two_rooms_away_fails(self):
        scene = small_scene()
        got = act(scene, "livingroom_1", "gt:obj:kitchen_3:0")
        assert got.place == "livingroom_1" and got.cost == 1 and not got.ok

    def test_adjacent_object_moves(self):
        scene = small_scene()
        got = act(scene, "livingroom_1", "gt:obj:hallway_2:1")
        assert got.place == "hallway_2" and got.cost == 1 and got.ok

    def test_unknown_target_raises(self):
        scene = small_scene()
        with pytest.raises(ValueError):
            act(scene, "kitchen_3", "gt:obj:nowhere:0")
        with pytest.raises(ValueError):
            act(scene, "kitchen_3", "whatever_1")
        with pytest.raises(ValueError, match="unknown connector anchor 'gt:conn:door_9'"):
            act(scene, "kitchen_3", "gt:conn:door_9")

    def test_connector_seen_from_a_place_that_is_no_endpoint(self):
        # from the kitchen, door_1 (living room - hallway) is reached through
        # its adjacent endpoint; from a place next to neither endpoint it fails
        scene = small_scene()
        scene.places["attic_9"] = ScenePlace("attic_9", "Room", "attic", [])
        assert act(scene, "hallway_2", "gt:conn:door_1") == ("livingroom_1", 1, True, True)
        assert act(scene, "kitchen_3", "gt:conn:door_1") == ("hallway_2", 1, True, True)
        assert act(scene, "attic_9", "gt:conn:door_1") == ("attic_9", 1, False, False)

    def test_place_id_targets(self):
        scene = small_scene()
        assert act(scene, "hallway_2", "hallway_2") == ("hallway_2", 0, False, True)
        assert act(scene, "livingroom_1", "hallway_2") == ("hallway_2", 1, True, True)
        assert act(scene, "livingroom_1", "kitchen_3") == ("livingroom_1", 1, False, False)


class TestCoverWalk:
    def test_visits_everything_and_crosses_every_link(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scene = generate_home_scene(rng)
            start = next(iter(scene.places))
            walk = cover_walk(scene, start)
            assert set(walk) == set(scene.places)
            crossed = {frozenset(p) for p in zip(walk, walk[1:])}
            for a, b, _ in scene.links:
                assert frozenset((a, b)) in crossed
            # consecutive entries are always adjacent
            for a, b in zip(walk, walk[1:]):
                assert b in {nb for nb, _ in scene.neighbors(a)}

    def test_a_long_corridor_needs_no_recursion(self):
        # one room per stack entry: a recursive walk would exceed Python's
        # default recursion limit of 1,000 frames here
        scene = GroundTruthScene(env_label="home")
        ids = [f"hallway_{i}" for i in range(1100)]
        for pid in ids:
            scene.places[pid] = ScenePlace(pid, "Corridor", "hallway", [SceneObject("plant")])
        scene.links = [(a, b, None) for a, b in zip(ids, ids[1:])]
        assert cover_walk(scene, ids[0]) == ids + ids[-2::-1]

    def test_walks_equal_the_recursive_walk(self, sweep):
        homes = [(sweep.sweep_home(n, seed), None) for seed in range(6) for n in sweep.SWEEP_SIZES]
        for seed in range(2500, 2520):
            homes.append((generate_home_scene(np.random.default_rng(seed)), "every"))
            # reversed, stairs come first in link order, so the walk must sort them last
            flipped = generate_home_scene(np.random.default_rng(seed))
            flipped.links.reverse()
            homes.append((flipped, "every"))
        for scene, starts in homes:
            for start in list(scene.places) if starts else [next(iter(scene.places))]:
                assert cover_walk(scene, start) == _recursive_cover_walk(scene, start)


def _recursive_cover_walk(scene, start):
    """``cover_walk`` as a recursive depth-first walk, kept as the reference."""
    walk = [start]
    visited = {start}

    def neighbors_sorted(pid):
        pairs = list(scene.neighbors(pid))
        return sorted(
            pairs,
            key=lambda item: (
                item[1] is not None and scene.connectors[item[1]].label == "stairs",
                pairs.index(item),
            ),
        )

    def dfs(pid):
        for nb, _ in neighbors_sorted(pid):
            if nb in visited:
                continue
            visited.add(nb)
            walk.append(nb)
            dfs(nb)
            walk.append(pid)

    dfs(start)
    crossed = {frozenset(pair) for pair in zip(walk, walk[1:])}
    for a, b, _ in scene.links:
        if frozenset((a, b)) in crossed:
            continue
        walk.extend(scene.route(walk[-1], lambda p: p == a))
        walk.append(b)
        crossed = {frozenset(pair) for pair in zip(walk, walk[1:])}
    return walk


def _scanned_neighbors(scene, place_id):
    """``neighbors`` as a scan of every link, kept as the reference for the table."""
    out = []
    for a, b, via in scene.links:
        if a == place_id:
            out.append((b, via))
        elif b == place_id:
            out.append((a, via))
    return out


class TestNeighborTable:
    @staticmethod
    def _assert_matches_scan(scene):
        for pid in [*scene.places, "nowhere"]:
            assert list(scene.neighbors(pid)) == _scanned_neighbors(scene, pid)

    @pytest.mark.parametrize("seed", range(6))
    def test_follows_every_change_to_links(self, seed):
        rng = np.random.default_rng(seed)
        scene = generate_home_scene(rng)
        ids = list(scene.places)
        self._assert_matches_scan(scene)
        # appended
        for _ in range(3):
            a, b = (ids[int(i)] for i in rng.choice(len(ids), size=2, replace=False))
            scene.links.append((a, b, None))
            self._assert_matches_scan(scene)
        # an item replaced, also by a self-loop
        scene.links[int(rng.integers(len(scene.links)))] = (ids[0], ids[-1], None)
        self._assert_matches_scan(scene)
        scene.links[0] = (ids[1], ids[1], None)
        self._assert_matches_scan(scene)
        # reassigned, to a shuffled copy and to an empty list
        scene.links = [scene.links[int(i)] for i in rng.permutation(len(scene.links))]
        self._assert_matches_scan(scene)
        scene.links = []
        self._assert_matches_scan(scene)
        # built up again on a scene whose table was read before any link
        scene.links.append((ids[0], ids[1], None))
        self._assert_matches_scan(scene)

    def test_sequence_is_read_only(self):
        scene = small_scene()
        assert isinstance(scene.neighbors("hallway_2"), tuple)
        assert scene.neighbors("nowhere") == ()


def _replay(scene, schema, noise, seed=0):
    rng = np.random.default_rng(seed)
    start = next(iter(scene.places))
    frames = walk_to_frames(scene, cover_walk(scene, start), noise, rng)
    oracle = RuleOracle()
    state = MapperState(graph=SceneGraph(schema))
    config = MapperConfig()
    for frame in frames:
        state = mapper_step(frame, schema, state, oracle, config).state
    return state.graph


class TestMappingFidelity:
    def test_noiseless_replay_is_exact_on_home_scene(self, home):
        rng = np.random.default_rng(7)
        scene = generate_home_scene(rng)
        graph = _replay(scene, home, noiseless())
        quality = layer2_quality(graph, scene)
        assert quality.all_perfect(), quality
        assert validate_graph(graph) == []

    def test_noiseless_replay_isomorphic(self, home):
        import networkx as nx

        rng = np.random.default_rng(11)
        scene = generate_home_scene(rng)
        graph = _replay(scene, home, noiseless())
        canon = default_tables().canonical

        gt = nx.Graph()
        for pid, place in scene.places.items():
            gt.add_node(pid, tag=("place", canon(place.label)))
        for cid, conn in scene.connectors.items():
            gt.add_node(cid, tag=("conn", canon(conn.label)))
        for a, b, via in scene.links:
            if via is None:
                gt.add_edge(a, b)
            else:
                gt.add_edge(a, via)
                gt.add_edge(via, b)

        built = nx.Graph()
        for node in graph.nodes():
            if isinstance(node, PlaceNode):
                built.add_node(node.id, tag=("place", canon(node.label)))
            elif isinstance(node, ConnectorNode):
                built.add_node(node.id, tag=("conn", canon(node.label)))
        for src, targets in graph.connectivity_subgraph().items():
            for dst in targets:
                built.add_edge(src, dst)

        assert nx.is_isomorphic(
            gt, built, node_match=lambda a, b: a["tag"] == b["tag"]
        )

    def test_second_replay_changes_nothing(self, home):
        rng = np.random.default_rng(13)
        scene = generate_home_scene(rng)
        start = next(iter(scene.places))
        frames = walk_to_frames(scene, cover_walk(scene, start), noiseless(), np.random.default_rng(0))
        oracle = RuleOracle()
        state = MapperState(graph=SceneGraph(home))
        config = MapperConfig()
        for frame in frames:
            state = mapper_step(frame, home, state, oracle, config).state
        once = state.graph.export("structured")
        for frame in frames:
            state = mapper_step(frame, home, state, oracle, config).state
        assert state.graph.export("structured") == once

    def test_market_replay_topology(self):
        schema = builtin_schema("supermarket")
        rng = np.random.default_rng(17)
        scene = generate_market_scene(rng)
        graph = _replay(scene, schema, noiseless())
        quality = layer2_quality(graph, scene)
        assert quality.all_perfect(), quality

    def test_an_instance_suffix_is_no_mislabel(self, home):
        # a detector's door_2 is the scene's door: the map is exact
        scene = GroundTruthScene(env_label="home")
        scene.places["kitchen_1"] = ScenePlace("kitchen_1", "Room", "kitchen", [])
        scene.places["bedroom_2"] = ScenePlace("bedroom_2", "Room", "bedroom", [])
        scene.connectors["door_1"] = SceneConnector("door_1", "door", ("kitchen_1", "bedroom_2"))
        scene.links = [("kitchen_1", "bedroom_2", "door_1")]
        graph = SceneGraph(home)
        kitchen, bedroom = (
            graph.add_node(PlaceNode(cls="Room", label=l)) for l in ("kitchen", "bedroom")
        )
        door = graph.add_node(ConnectorNode(cls="Entrance", label="door_2"))
        graph.add_edge(kitchen, door, EdgeKind.CONNECTS_TO)
        graph.add_edge(door, bedroom, EdgeKind.CONNECTS_TO)
        assert layer2_quality(graph, scene) == LayerQuality(1.0, 1.0, 1.0, 1.0)


class TestRunEpisode:
    def test_goal_in_start_place(self, home):
        scene = small_scene()
        spec = EpisodeSpec(scene=scene, start="kitchen_3", goal="sink", horizon=10, seed=0)
        result = run_episode(spec, home)
        assert result.success
        assert result.hops_traversed == 0
        assert metrics([result]).spl == 1.0

    def test_three_room_chain_reaches_goal_optimally(self, home):
        scene = small_scene()
        spec = EpisodeSpec(scene=scene, start="livingroom_1", goal="sink", horizon=20, seed=1)
        result = run_episode(spec, home)
        assert result.success
        assert result.shortest_hops == 2
        assert result.hops_traversed == 2
        assert result.final_goal_distance == 0.0

    def test_unreachable_goal_fails_at_horizon(self, home):
        scene = small_scene()
        scene.places["attic_9"] = ScenePlace("attic_9", "Room", "bedroom", [SceneObject("bed")])
        spec = EpisodeSpec(scene=scene, start="livingroom_1", goal="bed", horizon=6, seed=2)
        result = run_episode(spec, home)
        assert not result.success
        assert result.failure is not None

    def test_determinism(self, home):
        rng = np.random.default_rng(23)
        scene = generate_home_scene(rng)
        goal = scene.object_labels()[0]
        spec = EpisodeSpec(
            scene=scene, start=next(iter(scene.places)), goal=goal, horizon=40, seed=9
        )
        from scenenav.sim import RunnerConfig

        config = RunnerConfig(noise=default_noise())
        a = run_episode(spec, home, RuleOracle(), config)
        b = run_episode(spec, home, RuleOracle(), config)
        assert a == b

    def test_topology_filter_runs_alongside(self, home):
        from scenenav.sim import RunnerConfig
        from scenenav.topofilter import FilterConfig

        scene = generate_home_scene(np.random.default_rng(29))
        goal = scene.object_labels()[0]
        spec = EpisodeSpec(
            scene=scene, start=next(iter(scene.places)), goal=goal, horizon=12, seed=4
        )
        config = RunnerConfig(noise=default_noise(), filter=FilterConfig(num_particles=30))
        plain = RunnerConfig(noise=default_noise())
        with_filter = run_episode(spec, home, RuleOracle(), config)
        without = run_episode(spec, home, RuleOracle(), plain)
        # the filter is diagnostics-only: outcomes stay identical
        assert with_filter == without

    def test_streams_are_the_seeds_spawned_children(self, home, monkeypatch):
        # observation draws come from SeedSequence(seed).spawn(2)[0], the
        # filter's from [1]
        from scenenav.sim import RunnerConfig, episode
        from scenenav.topofilter import FilterConfig, FilterState

        seen = {}
        create = FilterState.create

        def spy_create(config, seed):
            seen["filter"] = seed.bit_generator.state
            return create(config, seed=seed)

        observe_ = episode.observe

        def spy_observe(scene, place_id, noise, rng, *args):
            seen.setdefault("observe", rng.bit_generator.state)
            return observe_(scene, place_id, noise, rng, *args)

        monkeypatch.setattr(FilterState, "create", spy_create)
        monkeypatch.setattr(episode, "observe", spy_observe)
        scene = generate_home_scene(np.random.default_rng(29))
        spec = EpisodeSpec(scene=scene, start=next(iter(scene.places)),
                           goal=scene.object_labels()[0], horizon=12, seed=4)
        run_episode(spec, home, RuleOracle(), RunnerConfig(filter=FilterConfig(num_particles=5)))
        children = np.random.SeedSequence(4).spawn(2)
        assert seen["observe"] == np.random.default_rng(children[0]).bit_generator.state
        assert seen["filter"] == np.random.default_rng(children[1]).bit_generator.state

    def test_a_move_the_scene_cannot_make_ends_the_episode(self, home, monkeypatch):
        # a plan naming an anchor the scene does not hold is a bad action: the
        # episode stops there, with no hop taken
        def plan_nowhere(*args):
            return planner.SubgoalPlan(object_goal=("door_9", "gt:conn:door_9"))

        monkeypatch.setattr(episode, "reason_step", plan_nowhere)
        spec = EpisodeSpec(scene=small_scene(), start="livingroom_1", goal="sink", horizon=10)
        result = run_episode(spec, home)
        assert result == EpisodeResult(
            success=False, hops_traversed=0, shortest_hops=2, final_goal_distance=2,
            steps=(), failure="bad action: unknown connector anchor 'gt:conn:door_9'",
        )

    def test_a_likely_place_gets_one_rescan(self, home):
        # a kitchenette (canonically a kitchen) is where a sink is typical, but
        # this one holds none: the runner looks once more, a zero-hop action,
        # before writing it off; with no co-occurrence table it looks no more
        scene = GroundTruthScene(env_label="home")
        scene.places["kitchen_1"] = ScenePlace(
            "kitchen_1", "Room", "kitchenette",
            [SceneObject("fridge", "white"), SceneObject("oven", "black metal")],
        )
        scene.places["hallway_2"] = ScenePlace(
            "hallway_2", "Corridor", "hallway",
            [SceneObject("plant", "green"), SceneObject("picture", "framed")],
        )
        scene.places["bathroom_3"] = ScenePlace(
            "bathroom_3", "Room", "bathroom",
            [SceneObject("sink", "steel"), SceneObject("toilet", "white")],
        )
        scene.connectors["door_1"] = SceneConnector("door_1", "door", ("kitchen_1", "hallway_2"))
        scene.connectors["door_2"] = SceneConnector("door_2", "door", ("hallway_2", "bathroom_3"))
        scene.links = [
            ("kitchen_1", "hallway_2", "door_1"),
            ("hallway_2", "bathroom_3", "door_2"),
        ]
        spec = EpisodeSpec(scene=scene, start="kitchen_1", goal="sink", horizon=10, seed=0)

        def rescans(oracle):
            result = run_episode(spec, home, oracle)
            assert result.success and result.hops_traversed == 2
            return [s for s in result.steps if s.get("cost") == 0 and s["place"] == "kitchen_1"]

        assert len(rescans(RuleOracle())) == 1
        assert rescans(RuleOracle(OracleTables.from_dict({"cooccurrence": {}}))) == []

    @pytest.mark.parametrize("label", ["bedroom", "bedroom_1"])
    def test_an_instance_suffix_keeps_a_place_likely(self, home, label):
        # a bed is typical for a bedroom, whether or not its label carries an
        # instance suffix: either start place gets the one zero-hop rescan
        scene = GroundTruthScene(env_label="home")
        scene.places["bedroom_1"] = ScenePlace(
            "bedroom_1", "Room", label,
            [SceneObject("lamp", "white"), SceneObject("dresser", "oak")],
        )
        scene.places["guestroom_2"] = ScenePlace(
            "guestroom_2", "Room", "guestroom",
            [SceneObject("bed", "blue"), SceneObject("chair", "wooden")],
        )
        scene.connectors["door_1"] = SceneConnector("door_1", "door", ("bedroom_1", "guestroom_2"))
        scene.links = [("bedroom_1", "guestroom_2", "door_1")]
        spec = EpisodeSpec(scene=scene, start="bedroom_1", goal="bed", horizon=10, seed=0)
        result = run_episode(spec, home)
        assert result.success
        assert [s["place"] for s in result.steps if s.get("cost") == 0] == ["bedroom_1"]


class TestMetrics:
    def r(self, success, p, l, d=0.0):
        return EpisodeResult(
            success=success, hops_traversed=p, shortest_hops=l, final_goal_distance=d
        )

    def test_perfect_episode(self):
        assert metrics([self.r(True, 5, 5)]).spl == 1.0

    def test_half_efficiency(self):
        got = metrics([self.r(True, 10, 5)])
        assert got.spl == pytest.approx(0.5, abs=1e-9)

    def test_failure_contributes_zero_spl_but_counts_dtg(self):
        got = metrics([self.r(True, 5, 5), self.r(False, 9, 4, d=3.0)])
        assert got.sr == 0.5
        assert got.spl == pytest.approx(0.5)
        assert got.dtg == pytest.approx(1.5)

    def test_zero_hop_success_scores_one(self):
        assert metrics([self.r(True, 0, 0)]).spl == 1.0

    def test_spl_never_exceeds_sr(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            results = [
                self.r(bool(rng.integers(2)), int(rng.integers(0, 20)), int(rng.integers(1, 10)))
                for _ in range(rng.integers(1, 8))
            ]
            got = metrics(results)
            assert 0.0 <= got.spl <= got.sr <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([])


class TestBaselines:
    def test_single_place_scene_both_succeed(self):
        scene = GroundTruthScene(env_label="home")
        scene.places["kitchen_1"] = ScenePlace(
            "kitchen_1", "Room", "kitchen", [SceneObject("sink")]
        )
        spec = EpisodeSpec(scene=scene, start="kitchen_1", goal="sink", horizon=5, seed=0)
        for result in (baseline_random(spec), baseline_greedy_frontier(spec)):
            assert result.success and result.hops_traversed == 0

    def test_frontier_sweeps_chain_in_order(self):
        scene = small_scene()
        spec = EpisodeSpec(scene=scene, start="livingroom_1", goal="sink", horizon=10, seed=0)
        result = baseline_greedy_frontier(spec)
        assert result.success
        assert result.hops_traversed == 2

    def test_random_wanders_more_than_frontier_on_average(self):
        # six-place chain, goal at the far end: a systematic sweep beats a
        # random walk by a wide margin
        scene = GroundTruthScene(env_label="home")
        ids = []
        for i in range(6):
            pid = f"room_{i}"
            scene.places[pid] = ScenePlace(pid, "Room", "bedroom", [SceneObject(f"o{i}")])
            ids.append(pid)
        for a, b in zip(ids, ids[1:]):
            scene.links.append((a, b, None))
        scene.places[ids[-1]].objects.append(SceneObject("trophy"))
        total_random = 0.0
        frontier = baseline_greedy_frontier(
            EpisodeSpec(scene=scene, start=ids[0], goal="trophy", horizon=100, seed=0)
        )
        n = 300
        for seed in range(n):
            spec = EpisodeSpec(scene=scene, start=ids[0], goal="trophy", horizon=100, seed=seed)
            total_random += baseline_random(spec).hops_traversed
        assert total_random / n > frontier.hops_traversed


def test_every_agent_reads_the_goal_hosts_the_spec_computed_once(home, monkeypatch):
    scene = small_scene()
    spec = EpisodeSpec(scene=scene, start="livingroom_1", goal="sink", horizon=10, seed=3)
    calls = []
    hosts = GroundTruthScene.hosts
    monkeypatch.setattr(GroundTruthScene, "hosts",
                        lambda self, goal: calls.append(goal) or hosts(self, goal))
    results = [
        run_episode(spec, home, RuleOracle()),
        baseline_random(spec),
        baseline_greedy_frontier(spec),
    ]
    assert calls == ["sink"]
    assert spec.goal_hosts == ("kitchen_3",) and spec.shortest_hops == 2
    assert all(r.shortest_hops == 2 for r in results)

    # the draw scans each (home, goal) it draws once and hands the answers to
    # its specs: no agent scans again
    scanned = []
    monkeypatch.setattr(GroundTruthScene, "hosts",
                        lambda self, goal: scanned.append((id(self), goal)) or hosts(self, goal))
    specs = build_episodes(BenchmarkProtocol(num_scenes=2, episodes_per_scene=6))
    assert sorted(scanned) == sorted({(id(s.scene), s.goal) for s in specs})
    assert len(scanned) < len(specs)  # some home draws a goal twice
    scanned.clear()
    for spec in specs:
        run_episode(spec, home, RuleOracle())
        baseline_random(spec)
        baseline_greedy_frontier(spec)
    assert scanned == []


def test_every_fixed_protocol_spec_holds_fresh_answers():
    specs = build_episodes(BenchmarkProtocol())
    assert len(specs) == 200
    homes = {id(spec.scene): spec.scene for spec in specs}
    for spec in specs:
        # handed over by the draw, not computed on this read
        assert {"goal_hosts", "shortest_hops"} <= vars(spec).keys()
        hosts = spec.scene.hosts(spec.goal)
        assert spec.goal_hosts == tuple(hosts)
        assert spec.shortest_hops == spec.scene.shortest_hops(spec.start, hosts)
    # a home draws exactly the protocol goals it hosts
    for scene in homes.values():
        drawn = {spec.goal for spec in specs if spec.scene is scene}
        assert drawn <= {goal for goal in GOAL_CATEGORIES if scene.hosts(goal)}
    # a spec built elsewhere computes its answers on first read
    spec = EpisodeSpec(scene=specs[0].scene, start=specs[0].start, goal=specs[0].goal,
                       horizon=5)
    assert "goal_hosts" not in vars(spec)
    assert (spec.goal_hosts, spec.shortest_hops) == (specs[0].goal_hosts, specs[0].shortest_hops)


def test_oracle_and_simulator_agree_on_goals():
    # the agent's goal check and the simulator's goal hosts are one predicate:
    # an object is detected as the goal exactly where the scene hosts it
    pool = {label for labels in [*ROOM_POOLS.values(), *AISLE_POOLS.values()] for label in labels}
    labels = sorted(pool | {s for group in DEFAULT_SYNONYM_GROUPS if pool & set(group)
                            for s in group})
    descs = [f"{colour} {material}" for colour in COLORS for material in MATERIALS]
    goals = labels + [f"{desc} {label}" for label in labels for desc in descs[::18]]
    objects = []
    for label in labels:
        for desc in descs[::9]:
            scene = GroundTruthScene(env_label="probe")
            scene.places["room_1"] = ScenePlace("room_1", "Room", "room", [SceneObject(label, desc)])
            objects.append((label, desc, scene))
    oracle = RuleOracle()
    hits = 0
    for goal in goals:
        for label, desc, scene in objects:
            detected = oracle.goal_match([(label, desc)], goal) is not None
            assert detected == (scene.hosts(goal) == ["room_1"]), (label, desc, goal)
            hits += detected
    # synonyms and descriptors both fire: more hits than bare self-matches
    assert len(objects) < hits < len(objects) * len(goals) / 10


class TestBuildEpisodes:
    def test_fallback_names_each_generated_home(self, capsys):
        protocol = BenchmarkProtocol(num_scenes=2, episodes_per_scene=1, goals=("unicorn", "bed"))
        assert [spec.goal for spec in build_episodes(protocol)] == ["bed", "bed"]
        assert capsys.readouterr().err == ""
        protocol = BenchmarkProtocol(num_scenes=2, episodes_per_scene=1, goals=("unicorn",))
        assert all(spec.goal != "unicorn" for spec in build_episodes(protocol))
        assert capsys.readouterr().err.splitlines() == [
            f"generated home {seed}: no object satisfies the goals 'unicorn'; "
            "searching for every object label instead"
            for seed in (2500, 2501)
        ]

    def test_goal_hosts_include_synonyms(self):
        # the couch in livingroom_2 is a sofa to the agent and the baselines,
        # so no episode may start there and horizons count hops to either room
        scene = GroundTruthScene(env_label="home")
        rooms = [("kitchen_1", "kitchen", "sink"), ("livingroom_2", "livingroom", "couch"),
                 ("hallway_4", "hallway", "plant"), ("livingroom_3", "livingroom", "sofa"),
                 ("bedroom_5", "bedroom", "bed")]
        for pid, label, obj in rooms:
            scene.places[pid] = ScenePlace(pid, "Room", label, [SceneObject(obj, "gray")])
        for (a, *_), (b, *_) in zip(rooms, rooms[1:]):
            scene.links.append((a, b, None))
        exact = [pid for pid, place in scene.places.items()
                 if any(obj.label == "sofa" for obj in place.objects)]
        hosts = scene.hosts("sofa")
        assert exact == ["livingroom_3"] and hosts == ["livingroom_2", "livingroom_3"]
        protocol = BenchmarkProtocol(episodes_per_scene=12, goals=("sofa",))
        specs = build_episodes(protocol, scene)
        assert len(specs) == 12
        for spec in specs:
            assert spec.goal == "sofa" and spec.start not in hosts
            shortest = scene.shortest_hops(spec.start, hosts)
            assert spec.horizon == 2 * max(shortest, 1) + 4
        # the scene tells the predicates apart: some start is nearer a couch
        assert any(
            scene.shortest_hops(s.start, exact) != scene.shortest_hops(s.start, hosts)
            for s in specs
        )

    def test_synonym_goal_draws_its_own_episodes(self):
        # generated homes hold sofas, never couches; a couch goal still runs
        # couch episodes there, and falls back to every label elsewhere
        protocol = BenchmarkProtocol(num_scenes=6, episodes_per_scene=5, goals=("couch",))
        specs = build_episodes(protocol)
        drawn = set()
        for spec in specs:
            hosts = spec.scene.hosts("couch")
            assert hosts == spec.scene.hosts("sofa")
            assert (spec.goal == "couch") == bool(hosts)
            assert spec.start not in hosts
            drawn.add(spec.goal == "couch")
        assert drawn == {True, False}

    def test_descriptor_goal_draws_its_own_episodes(self):
        # the seed-12 home holds a white fabric sink in kitchen_1 and a black
        # wicker one in bathroom_4; only the first is a "white fabric sink"
        scene = generate_home_scene(np.random.default_rng(12))
        assert scene.hosts("sink") == ["kitchen_1", "bathroom_4"]
        protocol = BenchmarkProtocol(episodes_per_scene=5, goals=("white fabric sink",))
        specs = build_episodes(protocol, scene)
        assert len(specs) == 5
        for spec in specs:
            assert spec.goal == "white fabric sink" and spec.start != "kitchen_1"
            shortest = scene.shortest_hops(spec.start, ["kitchen_1"])
            assert spec.horizon == 2 * max(shortest, 1) + 4


# each record with the fields of the frozen dataclass it replaces, their
# defaults, and one value per field
_RECORDS = {
    "Detection": (("label", "desc", "bbox", "image_ref"),
                  {"desc": "", "bbox": (0.0, 0.0, 0.0, 0.0), "image_ref": ""},
                  ("sofa", "red", (1.0, 2.0, 3.0, 4.0), "gt:obj:kitchen_1:0")),
    "DetectionFrame": (("frame_id", "place_type_answer", "place_label_answer", "detections",
                        "previous_subgoal"),
                       {"detections": (), "previous_subgoal": None},
                       (3, "Room", "kitchen", (), "door_1")),
    "ParsedObservation": (("place", "objects", "connectors", "near_pairs", "goal_hit"),
                          {"objects": (), "connectors": (), "near_pairs": (), "goal_hit": None},
                          (("Room", "kitchen"), (("sofa", "", "r"),), (), ((0, 1),), None)),
    "StepResult": (("state", "goal_hit", "revisit", "obs"),
                   {"goal_hit": None, "revisit": False, "obs": None},
                   (MapperState(graph=None), None, True, None)),
    "ActResult": (("place", "cost", "moved", "ok"), {}, ("kitchen_1", 1, True, True)),
    "EpisodeResult": (("success", "hops_traversed", "shortest_hops", "final_goal_distance",
                       "steps", "failure"),
                      {"steps": (), "failure": None},
                      (False, 4, 2.0, 1.0, ({"frame": 0},), "horizon exhausted")),
    "SubgoalPlan": (("target_region", "waypoint", "object_goal"),
                    {"target_region": None, "waypoint": None, "object_goal": None},
                    ("kitchen_1", "door_1", ("door_1", "gt:conn:d0"))),
    "MatchDecision": (("matched", "confidence", "reasoning"), {"reasoning": ""},
                      (True, 0.75, "overlap")),
    "RegionChoice": (("is_new", "value"), {}, (False, "floor_1")),
    "Proposal": (("chosen", "reasoning"), {"reasoning": ""}, ("kitchen_1", "nearest")),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_a_record_keeps_its_dataclass_fields_and_stays_immutable(name):
    record_type = next(
        getattr(module, name) for module in (mapper, episode, planner, base) if hasattr(module, name)
    )
    fields, defaults, values = _RECORDS[name]
    assert record_type._fields == fields
    assert record_type._field_defaults == defaults
    record = record_type(*values)
    assert record == values
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, values[0])
    # --jobs hands results between processes
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is record_type and again == record
