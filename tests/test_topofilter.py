import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from scenenav.graph import SceneGraph
from scenenav.mapper import MapperConfig, MapperState, mapper_step
from scenenav.oracle.rules import RuleOracle
from scenenav.schema import builtin_schema
from scenenav.sim import cover_walk, default_noise, generate_home_scene, walk_to_frames
from scenenav.sim.protocol import BenchmarkProtocol
from scenenav.topofilter import (
    FilterConfig,
    FilterState,
    ObsRecord,
    TopologyParticle,
    export_trace,
    likelihood,
    map_estimate,
    propose,
    proposal_distribution,
    step,
    suggest_merges,
)


def rec(label, *feature_labels):
    return ObsRecord(
        place_label=label,
        features=tuple((l, "") for l in feature_labels),
    )


def labels(features):
    return [label for label, _ in features]


CORRIDOR = rec("corridor", "plant", "picture", "bench")
ROOM = rec("bedroom", "bed", "lamp", "dresser")


class FixedOracle(RuleOracle):
    """Rule oracle with a pinned confidence map, for exact arithmetic tests."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def match_place(self, a, b):
        key = (frozenset(labels(a)), frozenset(labels(b)))
        conf = self.table.get(key, self.table.get((key[1], key[0]), 0.5))
        from scenenav.oracle.base import MatchDecision

        return MatchDecision(matched=conf >= 0.5, confidence=conf)


class TestProposal:
    def test_empty_partition_opens_new_cell(self):
        particle = TopologyParticle()
        existing, p_new = proposal_distribution(particle, None, alpha=1.0, radius=2)
        assert existing == [] and p_new == 1.0

    def test_crp_arithmetic(self):
        # cells of size 3 and 1, both in range, alpha=1 -> 0.6 / 0.2 / 0.2
        particle = TopologyParticle(assignments=[0, 0, 1, 0])
        existing, p_new = proposal_distribution(particle, 0, alpha=1.0, radius=2)
        assert dict(existing) == {0: pytest.approx(0.6), 1: pytest.approx(0.2)}
        assert p_new == pytest.approx(0.2)
        assert sum(p for _, p in existing) + p_new == pytest.approx(1.0, abs=1e-12)

    def test_radius_zero_restricts_to_current_cell(self):
        particle = TopologyParticle(assignments=[0, 1, 0])
        existing, p_new = proposal_distribution(particle, 0, alpha=1.0, radius=0)
        assert [n for n, _ in existing] == [0]
        assert existing[0][1] == pytest.approx(2.0 / 3.0)
        assert p_new == pytest.approx(1.0 / 3.0)

    def test_monte_carlo_frequencies(self):
        rng = np.random.default_rng(7)
        counts = Counter()
        draws = 100_000
        for _ in range(draws):
            particle = TopologyParticle(assignments=[0, 0, 1, 0])
            counts[propose(particle, 0, rng, alpha=1.0, radius=2)] += 1
        assert counts[0] / draws == pytest.approx(0.6, abs=0.01)
        assert counts[1] / draws == pytest.approx(0.2, abs=0.01)
        assert counts[2] / draws == pytest.approx(0.2, abs=0.01)

    def test_probabilities_sum_to_one_exactly(self):
        particle = TopologyParticle(assignments=[0, 1, 1, 2, 0, 2, 2])
        for radius in (0, 1, 2, 3):
            existing, p_new = proposal_distribution(particle, 2, alpha=0.7, radius=radius)
            total = math.fsum([p for _, p in existing] + [p_new])
            assert total == pytest.approx(1.0, abs=1e-12)


class TestLikelihood:
    def test_singleton_similar_set(self):
        fa = frozenset(labels(ROOM.features))
        oracle = FixedOracle({(fa, fa): 0.9})
        particle = TopologyParticle(assignments=[0])
        value = likelihood(ROOM, particle, oracle, [ROOM])
        assert value == pytest.approx(0.9)

    def test_rival_product(self):
        # assigned cell scores 0.9; one same-label rival scores 0.5 -> 0.45
        obs = rec("bedroom", "bed", "lamp")
        rival = rec("bedroom", "bed", "mirror")
        table = {
            (frozenset(labels(obs.features)), frozenset(labels(obs.features))): 0.9,
            (frozenset(labels(rival.features)), frozenset(labels(obs.features))): 0.5,
        }
        oracle = FixedOracle(table)
        particle = TopologyParticle(assignments=[0, 1])
        value = likelihood(obs, particle, oracle, [rival, obs])
        assert value == pytest.approx(0.9 * 0.5)

    def test_dissimilar_labels_reduce_to_assigned_factor(self):
        obs = rec("kitchen", "sink", "oven")
        other = rec("bedroom", "bed", "lamp")
        table = {(frozenset(labels(obs.features)), frozenset(labels(obs.features))): 0.8}
        oracle = FixedOracle(table)
        particle = TopologyParticle(assignments=[0, 1])
        assert likelihood(obs, particle, oracle, [other, obs]) == pytest.approx(0.8)


class TestStep:
    def test_single_particle_normalises_to_one(self):
        state = FilterState.create(FilterConfig(num_particles=1), seed=0)
        state = step(state, CORRIDOR, RuleOracle())
        assert state.particles[0].weight == pytest.approx(1.0)

    def test_two_particle_weight_ratio(self):
        # two hypotheses, each sure of its next cell (radius 0, next to no
        # new-cell mass); the oracle answers per question, so each particle's
        # weight is multiplied by its own cell's match confidence
        kitchen, bedroom = rec("kitchen", "sink"), rec("bedroom", "bed")
        obs = rec("bedroom", "bed", "lamp")

        class SplitOracle(RuleOracle):
            def match_place(self, a, b):
                from scenenav.oracle.base import MatchDecision

                conf = 0.2 if "sink" in labels(a) else 0.8
                return MatchDecision(matched=conf >= 0.5, confidence=conf)

        config = FilterConfig(num_particles=2, alpha=1e-9, radius=0, resample_threshold=0.0)
        state = FilterState.create(config, seed=3)
        state.observations = [kitchen, bedroom]
        state.particles[0].assignments = [0, 1]  # the bedroom's own cell: 0.8
        state.particles[1].assignments = [0, 0]  # one cell with the sink: 0.2
        state = step(state, obs, SplitOracle())
        assert [p.assignments for p in state.particles] == [[0, 1, 1], [0, 0, 0]]
        weights = sorted(p.weight for p in state.particles)
        assert weights == [pytest.approx(0.2), pytest.approx(0.8)]

    def test_partition_validity_after_steps(self):
        state = FilterState.create(FilterConfig(num_particles=50), seed=11)
        oracle = RuleOracle()
        for obs in [CORRIDOR, ROOM, CORRIDOR, ROOM, CORRIDOR]:
            state = step(state, obs, oracle)
            for particle in state.particles:
                cells = particle.partition()
                union = set().union(*cells) if cells else set()
                assert union == set(range(len(state.observations)))
                assert sum(len(c) for c in cells) == len(state.observations)
            assert sum(p.weight for p in state.particles) == pytest.approx(1.0, abs=1e-9)

    def test_trace_records(self):
        state = FilterState.create(FilterConfig(num_particles=10), seed=2)
        state = step(state, CORRIDOR, RuleOracle())
        assert state.trace[0]["step"] == 0
        assert "ess" in state.trace[0]
        assert export_trace(state).strip()


class TestMapEstimate:
    def test_single_particle(self):
        state = FilterState.create(FilterConfig(num_particles=1), seed=0)
        state.particles[0].assignments = [0, 1, 0]
        assert map_estimate(state) == [{0, 2}, {1}]

    def test_argmax_and_tie_break(self):
        state = FilterState.create(FilterConfig(num_particles=2), seed=0)
        state.particles[0].assignments = [0, 0]
        state.particles[0].weight = 0.7
        state.particles[1].assignments = [0, 1]
        state.particles[1].weight = 0.3
        assert map_estimate(state) == [{0, 1}]
        state.particles[1].weight = 0.7
        assert map_estimate(state) == [{0, 1}]  # tie -> lowest index

    def test_empty_filter_is_rejected(self):
        state = FilterState.create(FilterConfig(num_particles=1), seed=0)
        state.particles = []
        with pytest.raises(ValueError, match="filter holds no particles"):
            map_estimate(state)


def _brute_force_posterior(observations, oracle, alpha, radius):
    """Enumerate every assignment sequence; exact posterior over partitions."""
    results: dict[tuple, float] = {}

    def recurse(assignments: list[int], prob: float):
        t = len(assignments)
        if t == len(observations):
            particle = TopologyParticle(assignments=list(assignments))
            results[particle.canonical()] = results.get(particle.canonical(), 0.0) + prob
            return
        particle = TopologyParticle(assignments=list(assignments))
        existing, p_new = proposal_distribution(particle, particle.last_node, alpha, radius)
        options = list(existing) + [(particle.num_nodes, p_new)]
        for node, p_assign in options:
            if p_assign == 0.0:
                continue
            nxt = assignments + [node]
            trial = TopologyParticle(assignments=list(nxt))
            like = likelihood(observations[t], trial, oracle, observations[: t + 1])
            recurse(nxt, prob * p_assign * like)

    recurse([], 1.0)
    total = sum(results.values())
    return {k: v / total for k, v in results.items()}


def test_posterior_matches_enumeration():
    observations = [CORRIDOR, ROOM, CORRIDOR]
    oracle = RuleOracle()
    config = FilterConfig(num_particles=10_000, alpha=1.0, radius=2, resample_threshold=0.0)
    state = FilterState.create(config, seed=42)
    for obs in observations:
        state = step(state, obs, oracle)

    empirical: dict[tuple, float] = {}
    for particle in state.particles:
        key = particle.canonical()
        empirical[key] = empirical.get(key, 0.0) + particle.weight

    exact = _brute_force_posterior(observations, oracle, alpha=1.0, radius=2)
    keys = set(exact) | set(empirical)
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - empirical.get(k, 0.0)) for k in keys)
    assert tv <= 0.05


def test_corridor_loop_closure_beats_aliasing():
    observations = [CORRIDOR, ROOM, CORRIDOR]
    truth = ((0, 2), (1,))
    oracle = RuleOracle()
    hits = 0
    for seed in range(100):
        state = FilterState.create(FilterConfig(num_particles=100), seed=seed)
        for obs in observations:
            state = step(state, obs, oracle)
        cells = tuple(tuple(sorted(c)) for c in map_estimate(state))
        if cells == truth:
            hits += 1
    assert hits >= 80, hits


def test_suggest_merges_reports_cross_place_cells():
    state = FilterState.create(FilterConfig(num_particles=1), seed=0)
    state.particles[0].assignments = [0, 1, 0]
    groups = suggest_merges(state, ["corridor_1", "bedroom_1", "corridor_2"])
    assert groups == [["corridor_1", "corridor_2"]]


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(num_particles=0)
    with pytest.raises(ValueError):
        FilterConfig(alpha=0.0)


@pytest.mark.parametrize(
    "field_name, value",
    [
        ("radius", -1),
        ("radius", -3),
        ("alpha", float("nan")),
        ("alpha", float("inf")),
        ("alpha", -1.0),
        ("resample_threshold", float("nan")),
        ("resample_threshold", -0.1),
        ("resample_threshold", 1.5),
        ("resample_threshold", float("inf")),
    ],
)
def test_config_rejects_out_of_range_fields(field_name, value):
    with pytest.raises(ValueError, match=field_name):
        FilterConfig(**{field_name: value})


@pytest.mark.parametrize(
    "field_name, value",
    [("radius", 0), ("resample_threshold", 0.0), ("resample_threshold", 1.0), ("alpha", 1e-9)],
)
def test_config_accepts_boundary_values(field_name, value):
    assert getattr(FilterConfig(**{field_name: value}), field_name) == value


# -- incremental cells -----------------------------------------------------------
#
# The brute-force helpers below rescan the whole assignment history, as the
# filter did before it kept per-cell summaries; they are the reference the
# cells must agree with.


def _brute_cell_label(assignments, node, observations):
    first = min(i for i, n in enumerate(assignments) if n == node)
    return observations[first].place_label


def _brute_cell_items(assignments, node, observations):
    items = []
    for i, n in enumerate(assignments):
        if n != node:
            continue
        for pair in observations[i].features:
            if pair not in items:
                items.append(pair)
    return tuple(items)


def _brute_adjacency(assignments):
    adj = {n: set() for n in range(max(assignments) + 1)}
    for prev, cur in zip(assignments, assignments[1:]):
        if prev != cur:
            adj[prev].add(cur)
            adj[cur].add(prev)
    return adj


def _cells(particle):
    """The cells stored with the particle, as the filter left them."""
    named, cells = particle._hypothesis
    assert named is particle.assignments
    return cells


def _assert_cells_match(particle, observations):
    assignments = particle.assignments
    cells = _cells(particle)
    # the cells were kept current by the filter itself, not rebuilt here
    assert cells.length == len(assignments)
    assert cells.observations is observations
    nodes = range(max(assignments) + 1)
    assert cells.sizes == tuple(assignments.count(n) for n in nodes)
    assert {n: set(nbrs) for n, nbrs in enumerate(cells.adjacency)} == _brute_adjacency(
        assignments
    )
    assert cells.items == tuple(_brute_cell_items(assignments, n, observations) for n in nodes)
    assert cells.labels == tuple(_brute_cell_label(assignments, n, observations) for n in nodes)


def _random_stream(seed, length):
    templates = [
        ("corridor", ["plant", "picture", "bench", "door"]),
        ("bedroom", ["bed", "lamp", "dresser", "mirror", "door"]),
        ("kitchen", ["sink", "oven", "fridge", "door"]),
        ("bedroom", ["bed", "wardrobe", "lamp", "rug"]),
    ]
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(length):
        label, pool = templates[int(rng.integers(len(templates)))]
        picks = rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)))
        # repeated picks give duplicate pairs within one observation
        items = tuple((pool[k], ["", "red", "old"][int(rng.integers(3))]) for k in picks)
        stream.append(ObsRecord(place_label=label, features=items))
    return stream


def test_cell_tables_match_brute_force_over_a_seeded_stream():
    state = FilterState.create(FilterConfig(num_particles=30, resample_threshold=0.5), seed=9)
    oracle = RuleOracle()
    for obs in _random_stream(seed=4, length=40):
        state = step(state, obs, oracle)
        for particle in state.particles:
            _assert_cells_match(particle, state.observations)
    assert sum(rec["resampled"] for rec in state.trace) >= 5


CELL_FIELDS = ("length", "observations", "sizes", "adjacency", "items", "labels")


def _snapshot(cells):
    return [getattr(cells, name) for name in CELL_FIELDS]


def test_extending_a_clone_leaves_its_source_untouched():
    oracle = RuleOracle()
    observations = [ROOM, CORRIDOR]
    source = TopologyParticle(assignments=[0, 1])
    likelihood(CORRIDOR, source, oracle, observations)
    snapshot = _snapshot(_cells(source))

    twin = source.clone()
    assert _cells(twin) is _cells(source)
    for node, obs in ((0, rec("bedroom", "bed", "wardrobe")), (2, rec("kitchen", "sink"))):
        observations.append(obs)
        twin.assignments.append(node)
        likelihood(obs, twin, oracle, observations)
    _assert_cells_match(twin, observations)
    assert _cells(twin).items[0] != _cells(source).items[0]
    # the fold shares the cell it did not replace
    assert _cells(twin).items[1] is _cells(source).items[1]

    assert source.assignments == [0, 1]
    assert _snapshot(_cells(source)) == snapshot
    _assert_cells_match(source, observations)


def test_replaced_assignments_behave_like_a_fresh_particle():
    oracle = RuleOracle()
    observations = [CORRIDOR, ROOM, CORRIDOR, ROOM]
    particle = TopologyParticle(assignments=[0, 1, 2, 1])
    likelihood(observations[3], particle, oracle, observations)
    for replacement in ([0, 1, 0, 1], [0, 1, 0], [0, 0, 0, 1], [0, 1, 2, 3]):
        particle.assignments = list(replacement)
        fresh = TopologyParticle(assignments=list(replacement))
        obs = observations[len(replacement) - 1]
        assert likelihood(obs, particle, oracle, observations) == likelihood(
            obs, fresh, oracle, observations
        )
        for prev in sorted(set(replacement)):
            for radius in (0, 1, 2):
                assert proposal_distribution(particle, prev, 1.0, radius) == (
                    proposal_distribution(fresh, prev, 1.0, radius)
                )
        assert particle.num_nodes == fresh.num_nodes
        assert particle.adjacency() == fresh.adjacency()

    # the same assignments scored against another observation stream
    other = [ROOM, CORRIDOR, ROOM, rec("bedroom", "bed")]
    fresh = TopologyParticle(assignments=list(particle.assignments))
    assert likelihood(other[3], particle, oracle, other) == likelihood(
        other[3], fresh, oracle, other
    )


# SHA-256 over export_trace and every particle's (assignments, weight) after
# each step, recorded with the filter that rescanned the history on every
# call; any change to proposals, weights, resampling or the trace moves it
FILTER_GOLDEN = "c6b5a88ecb1366ceadd87332a214ff117e9664d547e3d086116df10c34de3a4e"


def _protocol_scene_records():
    home = builtin_schema("home")
    oracle = RuleOracle()
    scene = generate_home_scene(np.random.default_rng(BenchmarkProtocol().scene_seed))
    walk = cover_walk(scene, next(iter(scene.places)))
    walk = walk + walk[-2::-1]  # out and back, so places are revisited
    frames = walk_to_frames(scene, walk, default_noise(), np.random.default_rng(0))
    state = MapperState(graph=SceneGraph(home))
    records = []
    for frame in frames:
        result = mapper_step(frame, home, state, oracle, MapperConfig())
        state = result.state
        if result.obs is not None:
            records.append(
                ObsRecord(place_label=result.obs.place[1], features=result.obs.leaf_features())
            )
    return records


def test_filter_output_is_pinned_on_a_protocol_scene():
    records = _protocol_scene_records()
    assert len(records) >= 30
    oracle = RuleOracle()
    state = FilterState.create(FilterConfig(num_particles=50), seed=0)
    digest = hashlib.sha256()
    for obs in records:
        state = step(state, obs, oracle)
        digest.update(export_trace(state).encode())
        digest.update(json.dumps([[p.assignments, p.weight] for p in state.particles]).encode())
    assert digest.hexdigest() == FILTER_GOLDEN


# -- hypothesis sharing -----------------------------------------------------------
#
# The reference below is the step loop from before particles holding one
# hypothesis shared their work: every particle proposes with its own draw and
# is scored on its own.  The filter must match it exactly.


def _reference_step(state, obs, oracle):
    config = state.config
    state.observations.append(obs)
    weights = np.empty(len(state.particles))
    for i, particle in enumerate(state.particles):
        propose(particle, particle.last_node, state.rng, config.alpha, config.radius)
        like = likelihood(obs, particle, oracle, state.observations)
        particle.weight *= like
        weights[i] = particle.weight

    total = weights.sum()
    if total <= 0.0 or not np.isfinite(total):
        weights[:] = 1.0 / len(weights)
    else:
        weights /= total
    for particle, w in zip(state.particles, weights):
        particle.weight = float(w)

    ess = 1.0 / float(np.sum(weights**2))
    resampled = ess < config.resample_threshold * len(state.particles)
    if resampled:
        n = len(state.particles)
        positions = (np.arange(n) + state.rng.random()) / n
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        fresh = []
        for idx in np.searchsorted(cumulative, positions):
            clone = state.particles[int(idx)].clone()
            clone.weight = 1.0 / n
            fresh.append(clone)
        state.particles = fresh

    best = max(state.particles, key=lambda p: p.weight)  # first of the heaviest
    top = sorted((p.weight for p in state.particles), reverse=True)[:5]
    state.trace.append(
        {
            "step": len(state.observations) - 1,
            "ess": ess,
            "resampled": resampled,
            "map_size": best.num_nodes,
            "top_weights": top,
        }
    )
    return state


def _replace_some_assignments(state, t):
    """Replace a few particles' assignment lists, as a caller outside ``step`` may."""
    particles = state.particles
    n = len(particles)
    if t % 5 == 2:  # a copy of another particle's list
        particles[t % n].assignments = list(particles[(3 * t + 1) % n].assignments)
    if t % 7 == 4:  # an equal list of its own: the same hypothesis, rebuilt
        particles[(t + 2) % n].assignments = list(particles[(t + 2) % n].assignments)
    if t % 11 == 6:  # one cell holding every observation so far
        particles[(5 * t) % n].assignments = [0] * len(state.observations)


@pytest.fixture(scope="module")
def equivalence_streams():
    return [
        _random_stream(seed=1, length=40),
        _random_stream(seed=8, length=40),
        _protocol_scene_records(),
    ]


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("num_particles", [1, 7, 50, 200])
def test_step_matches_the_per_particle_loop(equivalence_streams, num_particles, threshold):
    config = FilterConfig(num_particles=num_particles, resample_threshold=threshold)
    for seed, records in enumerate(equivalence_streams):
        shared = FilterState.create(config, seed=seed)
        reference = FilterState.create(config, seed=seed)
        shared_oracle, reference_oracle = RuleOracle(), RuleOracle()
        for t, obs in enumerate(records):
            if t:
                _replace_some_assignments(shared, t)
                _replace_some_assignments(reference, t)
            shared = step(shared, obs, shared_oracle)
            reference = _reference_step(reference, obs, reference_oracle)
            assert [p.assignments for p in shared.particles] == [
                p.assignments for p in reference.particles
            ]
            assert [p.weight for p in shared.particles] == [
                p.weight for p in reference.particles
            ]
            assert export_trace(shared) == export_trace(reference)
        for particle in shared.particles:
            _assert_cells_match(particle, shared.observations)


def _count_scored_hypotheses(monkeypatch):
    import scenenav.topofilter as topofilter

    scored = []
    real = topofilter.likelihood

    def counting(obs, particle, oracle, observations):
        scored.append(tuple(particle.assignments))
        return real(obs, particle, oracle, observations)

    monkeypatch.setattr(topofilter, "likelihood", counting)
    return scored


def test_each_distinct_hypothesis_is_scored_once_per_step(monkeypatch):
    scored = _count_scored_hypotheses(monkeypatch)
    oracle = RuleOracle()
    # without resampling, the particles after a step are exactly its children
    state = FilterState.create(FilterConfig(num_particles=50, resample_threshold=0.0), seed=4)
    for obs in _random_stream(seed=2, length=15):
        scored.clear()
        state = step(state, obs, oracle)
        distinct = {tuple(p.assignments) for p in state.particles}
        assert len(scored) <= len(distinct)
        assert set(scored) == distinct
    assert len(distinct) > 1


def test_resampled_particles_share_their_scoring(monkeypatch):
    scored = _count_scored_hypotheses(monkeypatch)
    oracle = RuleOracle()
    state = FilterState.create(FilterConfig(num_particles=50, resample_threshold=1.0), seed=6)
    calls = []
    for obs in _random_stream(seed=3, length=30):
        scored.clear()
        state = step(state, obs, oracle)
        # no hypothesis is scored twice, and every survivor was scored
        assert len(scored) == len(set(scored))
        assert {tuple(p.assignments) for p in state.particles} <= set(scored)
        calls.append(len(scored))
    assert calls[0] == 1  # every particle of a fresh filter opens cell 0
    assert sum(rec["resampled"] for rec in state.trace) >= 5
    assert sum(calls) < 50 * len(calls)


# -- cells shared between the particles of one hypothesis -------------------------


def _shared_siblings(seed):
    """A resampled filter state and two of its particles holding one cells object."""
    state = FilterState.create(FilterConfig(num_particles=30, resample_threshold=1.0), seed=seed)
    oracle = RuleOracle()
    for obs in _random_stream(seed=seed, length=12):
        state = step(state, obs, oracle)
    by_cells = {}
    for particle in state.particles:
        by_cells.setdefault(id(_cells(particle)), []).append(particle)
    siblings = max(by_cells.values(), key=len)
    assert len(siblings) >= 2
    return state, oracle, siblings


def test_appending_to_one_sibling_leaves_the_shared_tables_alone():
    state, oracle, siblings = _shared_siblings(seed=5)
    shared = _cells(siblings[0])
    snapshot = _snapshot(shared)
    obs = rec("kitchen", "sink", "oven")
    state.observations.append(obs)
    appended = siblings[0]
    appended.assignments.append(appended.num_nodes)  # a fresh cell
    likelihood(obs, appended, oracle, state.observations)

    folded = _cells(appended)
    assert folded is not shared
    _assert_cells_match(appended, state.observations)
    # one fold onto the shared cells, not a rebuild: every old cell is shared
    assert all(a is b for a, b in zip(folded.items, shared.items))
    assert len(folded.items) == len(shared.items) + 1
    assert _snapshot(shared) == snapshot
    for sibling in siblings[1:]:
        assert _cells(sibling) is shared
    for particle in state.particles:
        _assert_cells_match(particle, state.observations)


def test_rescoring_one_sibling_on_another_stream_leaves_the_shared_tables_alone():
    state, oracle, siblings = _shared_siblings(seed=7)
    shared = _cells(siblings[0])
    snapshot = _snapshot(shared)
    rescored = siblings[0]
    other = list(state.observations)
    other[0] = rec("garage", "car", "bike")
    other[-1] = rec("bedroom", "bed", "wardrobe", "rug")
    likelihood(other[-1], rescored, oracle, other)

    assert _cells(rescored) is not shared
    assert rescored.assignments == siblings[1].assignments
    _assert_cells_match(rescored, other)
    assert _snapshot(shared) == snapshot
    for sibling in siblings[1:]:
        assert _cells(sibling) is shared
        _assert_cells_match(sibling, state.observations)

    # the next step reads the filter's own stream again for every particle
    state = step(state, rec("corridor", "plant", "bench"), oracle)
    for particle in state.particles:
        _assert_cells_match(particle, state.observations)


def test_cells_are_built_once_per_distinct_child(monkeypatch):
    import scenenav.topofilter as topofilter

    folds = []
    real_child = topofilter._Cells.child

    def counting_child(cells, prev, node, observations):
        folds.append((cells, node))
        return real_child(cells, prev, node, observations)

    monkeypatch.setattr(topofilter._Cells, "child", counting_child)
    scored = _count_scored_hypotheses(monkeypatch)
    oracle = RuleOracle()
    state = FilterState.create(FilterConfig(num_particles=50, resample_threshold=1.0), seed=6)
    for obs in _random_stream(seed=3, length=30):
        folds.clear()
        scored.clear()
        state = step(state, obs, oracle)
        # one fold per scored child; adopters and resampled clones take a reference
        assert len(folds) == len(set(folds)) == len(scored) < 50
    assert sum(rec["resampled"] for rec in state.trace) >= 5

    folds.clear()
    twin = state.particles[0].clone()
    assert not folds and _cells(twin) is _cells(state.particles[0])
