import numpy as np
import pytest

from scenenav.graph import ConnectorNode, PlaceNode, SceneGraph, validate_graph
from scenenav.mapper import MapperConfig, MapperState, mapper_step
from scenenav.oracle.rules import RuleOracle
from scenenav.oracle.tables import DEFAULT_SYNONYM_GROUPS, default_tables
from scenenav.schema import builtin_schema
from scenenav.sim import (
    EpisodeResult,
    EpisodeSpec,
    GroundTruthScene,
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
from scenenav.sim.protocol import BenchmarkProtocol, build_episodes
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
