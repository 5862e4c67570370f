"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import math
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from scenenav.graph import PlaceNode, SceneGraph, validate_graph
from scenenav.mapper import MapperConfig, MapperState, mapper_step
from scenenav.oracle.rules import RuleOracle
from scenenav.oracle.tables import default_tables
from scenenav.planner import find_path
from scenenav.schema import EdgeKind, builtin_schema, parse_schema, verify_schema
from scenenav.schemagen import builtin_mock_backend, run_pipeline
from scenenav.sim import (
    EpisodeResult,
    RunnerConfig,
    baseline_greedy_frontier,
    baseline_random,
    cover_walk,
    default_noise,
    generate_home_scene,
    layer2_quality,
    metrics,
    noiseless,
    run_episode,
    walk_to_frames,
)
from scenenav.sim.protocol import BenchmarkProtocol, build_episodes
from scenenav.sim.scene import ROOM_POOLS
from scenenav.topofilter import (
    FilterConfig,
    FilterState,
    ObsRecord,
    TopologyParticle,
    likelihood,
    map_estimate,
    propose,
    proposal_distribution,
    step,
)

LISTINGS = [
    "home", "studio", "supermarket", "office", "mall",
    "apartment", "hospital", "airport",
]


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _home_doc() -> dict:
    from importlib import resources

    ref = resources.files("scenenav.assets.schemas").joinpath("home.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def test_criterion_1_schema_suite():
    started = time.monotonic()
    for name in LISTINGS:
        report = verify_schema(builtin_schema(name))
        assert report.valid, f"{name}: {report.messages}"

    mutations = {}
    doc = _home_doc(); doc["Item"] = {"layer_id": 1}; mutations["R1"] = doc
    doc = _home_doc(); doc["Entrance"]["layer_id"] = 3; mutations["R2"] = doc
    doc = _home_doc(); doc["Wing"] = {"layer_type": "Region", "layer_id": 2}; mutations["R3"] = doc
    doc = _home_doc(); doc["Floor"]["contains"] = ["Room", "Entrance"]; mutations["R4"] = doc
    doc = _home_doc(); doc["Room"]["has"] = ["Corridor"]; mutations["R5"] = doc
    doc = _home_doc(); doc["Entrance"]["is_near"] = ["Room"]; mutations["R6"] = doc
    doc = _home_doc(); doc["Room"]["connects_to"] += ["Object"]; mutations["R7"] = doc
    doc = _home_doc(); doc["Campus"] = {"layer_type": "Region", "layer_id": 5}; mutations["R8"] = doc
    mutations["R9"] = {"Object": _home_doc()["Object"]}

    for rule, mutated in mutations.items():
        report = verify_schema(parse_schema(json.dumps(mutated)))
        cited = {m.split(":", 1)[0] for m in report.messages}
        assert cited == {rule}, f"{rule} mutation cited {cited}"

    elapsed = time.monotonic() - started
    _report(1, elapsed < 1.0,
            f"8 listings valid, 9 mutations cite their rule ({elapsed:.2f}s < 1s)")


def test_criterion_2_graph_invariants_under_randomized_steps():
    started = time.monotonic()
    home = builtin_schema("home")
    oracle = RuleOracle()
    config = MapperConfig()
    noise = default_noise()
    steps_done = 0
    scene_rng = np.random.default_rng(8800)
    walk_rng = np.random.default_rng(8801)
    frame_rng = np.random.default_rng(8802)
    while steps_done < 10_000:
        scene = generate_home_scene(scene_rng)
        places = list(scene.places)
        walk = [places[int(walk_rng.integers(len(places)))]]
        for _ in range(int(walk_rng.integers(150, 260))):
            neighbors = [nb for nb, _ in scene.neighbors(walk[-1])]
            walk.append(neighbors[int(walk_rng.integers(len(neighbors)))])
        frames = walk_to_frames(scene, walk, noise, frame_rng)
        state = MapperState(graph=SceneGraph(home))
        node_count = 0
        for frame in frames:
            state = mapper_step(frame, home, state, oracle, config).state
            steps_done += 1
            problems = validate_graph(state.graph)
            assert problems == [], f"step {steps_done}: {problems[:3]}"
            assert len(state.graph.nodes()) >= node_count, "node count decreased"
            node_count = len(state.graph.nodes())
    elapsed = time.monotonic() - started
    _report(2, elapsed < 120.0,
            f"{steps_done} randomized mapper steps kept all invariants ({elapsed:.1f}s < 120s)")


def test_criterion_3_mapping_fidelity():
    home = builtin_schema("home")
    oracle = RuleOracle()
    config = MapperConfig()
    perfect = 0
    noisy_scores = []
    for i in range(20):
        scene = generate_home_scene(np.random.default_rng(2500 + i))
        walk = cover_walk(scene, next(iter(scene.places)))
        frames = walk_to_frames(scene, walk, noiseless(), np.random.default_rng(i))
        state = MapperState(graph=SceneGraph(home))
        for frame in frames:
            state = mapper_step(frame, home, state, oracle, config).state
        if layer2_quality(state.graph, scene).all_perfect():
            perfect += 1

        frames = walk_to_frames(scene, walk, default_noise(), np.random.default_rng(500 + i))
        state = MapperState(graph=SceneGraph(home))
        for frame in frames:
            state = mapper_step(frame, home, state, oracle, config).state
        q = layer2_quality(state.graph, scene)
        noisy_scores.append((q.node_precision, q.node_recall, q.edge_precision, q.edge_recall))

    means = [statistics.mean(col) for col in zip(*noisy_scores)]
    ok = perfect == 20 and all(m >= 0.8 for m in means)
    _report(3, ok,
            f"noiseless exact on {perfect}/20 scenes; noisy P/R means "
            f"node={means[0]:.3f}/{means[1]:.3f} edge={means[2]:.3f}/{means[3]:.3f} (>= 0.8)")


def _brute_force_shortest(adj: dict, src: str, dst: str) -> float:
    best = math.inf

    def walk(node, cost, seen):
        nonlocal best
        if cost >= best:
            return
        if node == dst:
            best = cost
            return
        for nb, w in adj[node].items():
            if nb not in seen:
                walk(nb, cost + w, seen | {nb})

    walk(src, 0.0, {src})
    return best


def test_criterion_4_pathfinder_exact():
    started = time.monotonic()
    import random

    rnd = random.Random(4242)
    home = builtin_schema("home")
    for _ in range(100):
        graph = SceneGraph(home)
        n = rnd.randint(2, 12)
        places = [graph.add_node(PlaceNode(cls="Room", label=f"r{i}")) for i in range(n)]
        for i in range(1, n):
            graph.add_edge(places[i], places[rnd.randrange(i)], EdgeKind.CONNECTS_TO)
        for _ in range(rnd.randint(0, n)):
            a, b = rnd.sample(places, 2)
            graph.add_edge(a, b, EdgeKind.CONNECTS_TO)
        src, dst = rnd.sample(places, 2)
        adj = graph.connectivity_subgraph()
        got = find_path(graph, src, dst)
        assert got is not None
        walkable = all(b in adj[a] for a, b in zip([src] + got, got))
        assert walkable and got[-1] == dst
        assert len(got) == _brute_force_shortest(adj, src, dst)
    elapsed = time.monotonic() - started
    _report(4, elapsed < 10.0,
            f"100 random graphs: path cost equals brute-force minimum ({elapsed:.2f}s < 10s)")


def test_criterion_5_metrics_hand_computed():
    def r(success, p, l, d=0.0):
        return EpisodeResult(success=success, hops_traversed=p, shortest_hops=l,
                             final_goal_distance=d)

    cases = [
        ([r(True, 5, 5)], (1.0, 1.0, 0.0)),
        ([r(True, 10, 5)], (1.0, 0.5, 0.0)),
        ([r(False, 9, 4, 3.0)], (0.0, 0.0, 3.0)),
        ([r(True, 0, 0)], (1.0, 1.0, 0.0)),
        ([r(True, 3, 6)], (1.0, 1.0, 0.0)),  # better than l: max(p, l) = l
        ([r(True, 5, 5), r(False, 9, 4, 3.0)], (0.5, 0.5, 1.5)),
        ([r(True, 8, 2), r(True, 2, 2)], (1.0, (0.25 + 1.0) / 2, 0.0)),
        ([r(False, 0, 1, 1.0), r(False, 4, 2, 2.0)], (0.0, 0.0, 1.5)),
        ([r(True, 7, 3), r(True, 12, 6), r(False, 5, 5, 4.0)],
         ((2.0 / 3.0), (3.0 / 7.0 + 0.5) / 3.0, 4.0 / 3.0)),
        ([r(True, 1, 1), r(True, 1, 1), r(True, 4, 1), r(False, 2, 1, 5.0)],
         (0.75, (1 + 1 + 0.25 + 0) / 4, 1.25)),
    ]
    for results, (sr, spl, dtg) in cases:
        got = metrics(results)
        assert abs(got.sr - sr) < 1e-9
        assert abs(got.spl - spl) < 1e-9
        assert abs(got.dtg - dtg) < 1e-9
    _report(5, True, "SR/SPL/DTG match hand-computed values on 10 result sets (1e-9)")


def test_criterion_6_topology_filter():
    started = time.monotonic()

    # (a) assignment-probability arithmetic plus Monte-Carlo frequencies
    particle = TopologyParticle(assignments=[0, 0, 1, 0])
    existing, p_new = proposal_distribution(particle, 0, alpha=1.0, radius=2)
    assert dict(existing) == {0: pytest.approx(0.6), 1: pytest.approx(0.2)}
    assert p_new == pytest.approx(0.2)
    rng = np.random.default_rng(64)
    counts = Counter()
    for _ in range(100_000):
        trial = TopologyParticle(assignments=[0, 0, 1, 0])
        counts[propose(trial, 0, rng, alpha=1.0, radius=2)] += 1
    freqs = {k: v / 100_000 for k, v in counts.items()}
    assert freqs[0] == pytest.approx(0.6, abs=0.01)
    assert freqs[1] == pytest.approx(0.2, abs=0.01)
    assert freqs[2] == pytest.approx(0.2, abs=0.01)

    # (b) posterior vs exhaustive enumeration on a 3-observation world
    corridor = ObsRecord("corridor", (("plant", ""), ("picture", ""), ("bench", "")))
    room = ObsRecord("bedroom", (("bed", ""), ("lamp", ""), ("dresser", "")))
    observations = [corridor, room, corridor]
    oracle = RuleOracle()

    exact: dict[tuple, float] = {}

    def recurse(assignments, prob):
        t = len(assignments)
        if t == len(observations):
            key = TopologyParticle(assignments=list(assignments)).canonical()
            exact[key] = exact.get(key, 0.0) + prob
            return
        trial = TopologyParticle(assignments=list(assignments))
        options, p_new = proposal_distribution(trial, trial.last_node, 1.0, 2)
        for node, p_assign in list(options) + [(trial.num_nodes, p_new)]:
            if p_assign == 0.0:
                continue
            nxt = assignments + [node]
            scored = TopologyParticle(assignments=list(nxt))
            like = likelihood(observations[t], scored, oracle, observations[: t + 1])
            recurse(nxt, prob * p_assign * like)

    recurse([], 1.0)
    total = sum(exact.values())
    exact = {k: v / total for k, v in exact.items()}

    state = FilterState.create(
        FilterConfig(num_particles=10_000, resample_threshold=0.0), seed=1234
    )
    for obs in observations:
        state = step(state, obs, oracle)
    empirical: dict[tuple, float] = {}
    for particle in state.particles:
        key = particle.canonical()
        empirical[key] = empirical.get(key, 0.0) + particle.weight
    tv = 0.5 * sum(
        abs(exact.get(k, 0.0) - empirical.get(k, 0.0)) for k in set(exact) | set(empirical)
    )
    assert tv <= 0.05, f"total variation {tv:.4f}"

    # (c) loop closure beats aliasing on the corridor loop
    hits = 0
    for seed in range(100):
        fs = FilterState.create(FilterConfig(num_particles=100), seed=seed)
        for obs in observations:
            fs = step(fs, obs, oracle)
        cells = tuple(tuple(sorted(c)) for c in map_estimate(fs))
        if cells == ((0, 2), (1,)):
            hits += 1
    assert hits >= 80, f"loop closure MAP correct in only {hits}/100 runs"

    elapsed = time.monotonic() - started
    _report(6, elapsed < 120.0,
            f"CRP arithmetic ok, posterior TV={tv:.3f} <= 0.05, "
            f"loop closure {hits}/100 >= 80 ({elapsed:.1f}s < 120s)")


def test_criterion_7_desk_scale_objectnav():
    started = time.monotonic()
    home = builtin_schema("home")
    protocol = BenchmarkProtocol()  # 20 scenes x 10 episodes, seed-fixed
    specs = build_episodes(protocol)
    assert len(specs) == 200
    noise = default_noise()
    full, random_walk, frontier = [], [], []
    for spec in specs:
        full.append(run_episode(spec, home, RuleOracle(), RunnerConfig(noise=noise)))
        random_walk.append(baseline_random(spec, noise))
        frontier.append(baseline_greedy_frontier(spec, noise))
    sr_full = metrics(full).sr
    sr_random = metrics(random_walk).sr
    p_full = statistics.mean(r.hops_traversed for r in full)
    p_frontier = statistics.mean(r.hops_traversed for r in frontier)
    elapsed = time.monotonic() - started
    ok = (sr_full - sr_random >= 0.2) and (p_full < p_frontier) and elapsed < 600.0
    _report(7, ok,
            f"SR full={sr_full:.3f} vs random={sr_random:.3f} (gap {sr_full - sr_random:+.3f} >= 0.2); "
            f"mean p full={p_full:.2f} < frontier={p_frontier:.2f} ({elapsed:.1f}s < 600s)")


def test_criterion_8_data_association_fixtures():
    oracle = RuleOracle()
    tables = default_tables()
    rng = np.random.default_rng(88)

    def view(labels, keep_rate):
        kept = [l for l in labels if rng.random() < keep_rate]
        if not kept:
            kept = [labels[0]]
        out = []
        for label in kept:
            group = sorted(tables.synonyms.group_of(label))
            if len(group) > 1 and rng.random() < 0.1:
                label = group[int(rng.integers(len(group)))]
            out.append((label, ""))
        return tuple(out)

    room_types = list(ROOM_POOLS)
    recognise_total = recognise_hits = 0
    for _ in range(10):
        for room in room_types:
            full = ROOM_POOLS[room][:6]
            a, b = view(full, 0.85), view(full, 0.85)
            recognise_total += 1
            if oracle.match_place(a, b).matched:
                recognise_hits += 1

    distinguish_total = distinguish_hits = 0
    for _ in range(5):
        for room_a, room_b in itertools.combinations(room_types, 2):
            a = view(ROOM_POOLS[room_a][:5], 0.9)
            b = view(ROOM_POOLS[room_b][:5], 0.9)
            distinguish_total += 1
            if not oracle.match_place(a, b).matched:
                distinguish_hits += 1

    recognise = recognise_hits / recognise_total
    distinguish = distinguish_hits / distinguish_total
    ok = recognise >= 0.8 and distinguish >= 0.9
    _report(8, ok,
            f"recognise {recognise:.3f} >= 0.8 ({recognise_total} fixtures); "
            f"distinguish {distinguish:.3f} >= 0.9 ({distinguish_total} fixtures)")


def test_criterion_9_schema_generation():
    for env in ("home", "hospital", "airport"):
        trace = run_pipeline(env, builtin_mock_backend(env), max_iterations=3)
        assert trace.succeeded, env
        assert len(trace.iterations) <= 3
        assert verify_schema(trace.final).valid
    _report(9, True, "home/hospital/airport pipelines valid within 3 iterations")


def test_criterion_10_cli_determinism(tmp_path):
    from importlib import resources

    from scenenav.cli import main

    schema_path = tmp_path / "home.json"
    schema_path.write_text(
        resources.files("scenenav.assets.schemas").joinpath("home.json").read_text()
    )
    outputs = []
    for name, jobs in (("one.csv", 1), ("two.csv", 1), ("par.csv", 3)):
        out = tmp_path / name
        code = main([
            "run", "--schema", str(schema_path), "--scenes", "3", "--episodes", "12",
            "--seed", "11", "--baseline", "--jobs", str(jobs), "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(10, ok, "metric CSVs byte-identical across reruns and under --jobs 3")
