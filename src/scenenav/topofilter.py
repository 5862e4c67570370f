"""Particle filter over layer-2 topologies.

Each particle hypothesises a partition of the observation stream into place
nodes; edges between hypothesised nodes are implicit in consecutive
observations landing in different partition cells.  The proposal favours
well-visited cells near the previous state (a Chinese-restaurant assignment
restricted to a hop radius), the weight update scores how well the newest
observation matches its cell while mismatching rival cells of similar label,
and systematic resampling keeps the ensemble focused.

Each hypothesis keeps per-cell tables: cell sizes, cell adjacency, each
cell's unique ``(label, desc)`` pairs in first-seen order and a tag naming
the cell by its first observation's place label.  A step folds only the
newest observation into them, so proposing and weighting one hypothesis
costs time in its number of cells, not in the length of the history: the
proposal walks the cells within its radius, and the rival search hands every
cell's tag to ``similar_labels``.

Resampling leaves many particles on one hypothesis, so a step shares work
between them.  Each particle carries a hypothesis id and the tables stored
with it: the particles of ``FilterState.create`` share one, a clone keeps its
source's, and a step gives every (parent id, chosen cell) pair a new one;
assignments replaced or extended outside ``step`` get a fresh id.  A step
computes the proposal (cumulative cell masses) once per distinct parent id
and the likelihood (one round of oracle questions) once per distinct child.
Each child's tables are one copy of its parent's, extended by one
assignment and one observation when the likelihood reads them; the copy
shares every cell's immutable value with the parent's until it replaces that
cell, so it costs O(cells).  Clones and the child's other particles hold a
reference to the same tables.  Tables are never changed once shared: a
particle extended or re-read against another stream copies them first.  Every particle still draws its own uniform
number in particle order, so the states match a particle-by-particle loop
exactly.

The filter runs beside the deterministic mapper as a robustness/diagnostics
layer; adopting its estimate is an explicit call (`suggest_merges`), never a
side effect.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .graph import ObjectFeatures
from .oracle.base import SemanticOracle

logger = logging.getLogger(__name__)

__all__ = [
    "ObsRecord",
    "TopologyParticle",
    "FilterConfig",
    "FilterState",
    "proposal_distribution",
    "propose",
    "likelihood",
    "step",
    "map_estimate",
    "suggest_merges",
    "export_trace",
]


@dataclass(frozen=True)
class ObsRecord:
    place_label: str
    features: ObjectFeatures


class _CellTables:
    """Per-cell summaries of one hypothesis's assignments.

    ``sizes`` and ``adjacency`` follow from the assignments alone; ``items``
    (the cell's unique ``(label, desc)`` pairs in first-seen order) and
    ``tags`` (``"<label of the cell's first observation>_<cell>"``) also need
    the observation stream they were read from.  Every list is indexed by cell
    and holds immutable values, so a copy of the lists shares each cell's
    value with its source until one side replaces it.  Tables are extended
    only between their creation (or copy) and the moment a particle stores
    them; after that they may be shared and are never changed.
    """

    __slots__ = ("length", "sizes", "adjacency", "observations", "item_length", "items", "tags")

    def __init__(self) -> None:
        self.length = 0  # assignments folded into sizes / adjacency
        self.sizes: list[int] = []
        self.adjacency: list[frozenset[int]] = []
        self.observations: list[ObsRecord] | None = None
        self.item_length = 0  # assignments folded into items / tags
        self.items: list[tuple[tuple[str, str], ...]] = []
        self.tags: list[str | None] = []

    def copy(self) -> "_CellTables":
        twin = _CellTables()
        twin.length = self.length
        twin.sizes = list(self.sizes)
        twin.adjacency = list(self.adjacency)
        twin.observations = self.observations
        twin.item_length = self.item_length
        twin.items = list(self.items)
        twin.tags = list(self.tags)
        return twin

    def extend(self, assignments: list[int]) -> None:
        """Fold the assignments appended since the last call."""
        sizes, adjacency = self.sizes, self.adjacency
        for idx in range(self.length, len(assignments)):
            node = assignments[idx]
            while len(sizes) <= node:
                sizes.append(0)
                adjacency.append(frozenset())
            sizes[node] += 1
            prev = assignments[idx - 1] if idx else node
            if prev != node and node not in adjacency[prev]:
                adjacency[prev] = adjacency[prev] | {node}
                adjacency[node] = adjacency[node] | {prev}
        self.length = len(assignments)

    def extend_items(self, assignments: list[int], observations: list[ObsRecord]) -> None:
        """Fold the observations of the assignments folded since the last call."""
        if observations is not self.observations:
            self.observations = observations
            self.item_length = 0
            self.items = []
            self.tags = []
        items, tags = self.items, self.tags
        for idx in range(self.item_length, self.length):
            node = assignments[idx]
            while len(items) <= node:
                items.append(())
                tags.append(None)
            if tags[node] is None:
                tags[node] = f"{observations[idx].place_label}_{node}"
            cell = items[node]
            seen = set(cell)
            extra = []
            for pair in observations[idx].features.items:
                if pair not in seen:
                    seen.add(pair)
                    extra.append(pair)
            if extra:
                items[node] = cell + tuple(extra)
        self.item_length = self.length


@dataclass
class TopologyParticle:
    """One topology hypothesis: cell assignment per observation index.

    The particle stores its hypothesis as ``(id, the assignments list it
    names, cell tables)``; particles holding one hypothesis share the id and
    the tables.  Appending to ``assignments`` or replacing the list outside
    ``step`` gives the particle a fresh id and tables of its own on next use.
    Editing an earlier entry in place does neither.
    """

    assignments: list[int] = field(default_factory=list)
    weight: float = 1.0
    # an id is a plain ``object()``, compared by identity
    _hypothesis: tuple[object, list[int], _CellTables] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _synced(self, observations: list[ObsRecord] | None = None) -> _CellTables:
        """The hypothesis's cell tables, current with ``assignments`` (and
        ``observations``); stored tables may be shared, so they are copied
        before any change."""
        hypothesis_id, named, tables = self._hypothesis or (None, None, None)
        assignments = self.assignments
        length = len(assignments)
        if named is not assignments or tables.length > length:
            hypothesis_id, tables = object(), _CellTables()
        elif tables.length < length:
            hypothesis_id, tables = object(), tables.copy()
        elif observations is None or (
            tables.item_length == length and tables.observations is observations
        ):
            return tables
        else:
            tables = tables.copy()
        tables.extend(assignments)
        if observations is not None:
            tables.extend_items(assignments, observations)
        self._hypothesis = (hypothesis_id, assignments, tables)
        return tables

    @property
    def num_nodes(self) -> int:
        return len(self._synced().sizes)

    @property
    def last_node(self) -> int | None:
        return self.assignments[-1] if self.assignments else None

    def partition(self) -> list[set[int]]:
        cells: list[set[int]] = [set() for _ in range(self.num_nodes)]
        for obs_idx, node in enumerate(self.assignments):
            cells[node].add(obs_idx)
        return cells

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(cell)) for cell in self.partition())

    def adjacency(self) -> dict[int, set[int]]:
        return {n: set(nbrs) for n, nbrs in enumerate(self._synced().adjacency)}

    def clone(self) -> "TopologyParticle":
        """Copy with its own assignments and the same hypothesis and tables."""
        twin = TopologyParticle(assignments=list(self.assignments), weight=self.weight)
        tables = self._synced()
        twin._hypothesis = (self._hypothesis[0], twin.assignments, tables)
        return twin


@dataclass(frozen=True)
class FilterConfig:
    num_particles: int = 100
    alpha: float = 1.0
    radius: int = 2
    resample_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.num_particles < 1:
            raise ValueError("num_particles must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.radius < 0:
            raise ValueError(f"radius must be at least 0, got {self.radius}")
        if not 0.0 <= self.resample_threshold <= 1.0:  # also rejects NaN
            raise ValueError(
                f"resample_threshold must lie in [0, 1], got {self.resample_threshold}"
            )


@dataclass
class FilterState:
    config: FilterConfig
    rng: np.random.Generator
    particles: list[TopologyParticle] = field(default_factory=list)
    observations: list[ObsRecord] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)

    @classmethod
    def create(cls, config: FilterConfig, seed: int | np.random.Generator = 0) -> "FilterState":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        particles = [
            TopologyParticle(weight=1.0 / config.num_particles)
            for _ in range(config.num_particles)
        ]
        root, tables = object(), _CellTables()
        for particle in particles:
            particle._hypothesis = (root, particle.assignments, tables)
        return cls(config=config, rng=rng, particles=particles)


def _nearby_nodes(adjacency: list[frozenset[int]], source: int, radius: int) -> set[int]:
    seen = {source}
    frontier = deque([(source, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth == radius:
            continue
        for nb in adjacency[node]:
            if nb not in seen:
                seen.add(nb)
                frontier.append((nb, depth + 1))
    return seen


def proposal_distribution(
    particle: TopologyParticle,
    prev_state_node: int | None,
    alpha: float,
    radius: int,
) -> tuple[list[tuple[int, float]], float]:
    """Assignment probabilities over nearby cells plus the new-cell mass.

    Cells within ``radius`` hops of the previous state receive mass
    proportional to their visit count; the concentration ``alpha`` reserves
    mass for opening a fresh cell.
    """
    if prev_state_node is None or not particle.assignments:
        return [], 1.0
    tables = particle._synced()
    sizes = tables.sizes
    reachable = sorted(_nearby_nodes(tables.adjacency, prev_state_node, radius))
    total = float(sum(sizes[n] for n in reachable))
    denom = total + alpha
    existing = [(n, sizes[n] / denom) for n in reachable]
    return existing, alpha / denom


def propose(
    particle: TopologyParticle,
    prev_state_node: int | None,
    rng: np.random.Generator,
    alpha: float = 1.0,
    radius: int = 2,
) -> int:
    """Sample the next observation's cell and append the assignment."""
    existing, _ = proposal_distribution(particle, prev_state_node, alpha, radius)
    chosen = _select(*_masses(existing), particle.num_nodes, rng.random())
    particle.assignments.append(chosen)
    return chosen


def _masses(existing: list[tuple[int, float]]) -> tuple[list[int], list[float]]:
    """The proposal's cells and their cumulative masses, summed in cell order."""
    return [node for node, _ in existing], list(accumulate(prob for _, prob in existing))


def _select(nodes: list[int], cumulative: list[float], fresh: int, draw: float) -> int:
    """The first cell whose cumulative mass exceeds ``draw``, else the fresh cell."""
    pick = bisect_right(cumulative, draw)
    return nodes[pick] if pick < len(nodes) else fresh


def likelihood(
    obs: ObsRecord,
    particle: TopologyParticle,
    oracle: SemanticOracle,
    observations: list[ObsRecord],
) -> float:
    """P(obs | topology): match the assigned cell, mismatch similar rivals."""
    assigned = particle.last_node
    if assigned is None:
        return 1.0
    tables = particle._synced(observations)
    p_assigned = oracle.match_place(
        ObjectFeatures(items=tables.items[assigned]), obs.features
    ).confidence
    similar = oracle.similar_labels(obs.place_label, list(tables.tags))
    value = p_assigned
    for tag in similar:
        node = int(tag.rsplit("_", 1)[1])
        if node == assigned:
            continue
        p_rival = oracle.match_place(
            ObjectFeatures(items=tables.items[node]), obs.features
        ).confidence
        value *= 1.0 - p_rival
    return value


def step(state: FilterState, obs: ObsRecord, oracle: SemanticOracle) -> FilterState:
    """Advance the filter by one observation: propose, weight, resample.

    Each particle draws its cell from its own uniform number, taken in particle
    order.  The proposal is computed once per distinct parent hypothesis and
    the likelihood once per distinct (parent, chosen cell); that child's tables
    are one copy of the parent's, and its other particles share them.
    """
    config = state.config
    observations = state.observations
    observations.append(obs)
    particles = state.particles
    draws = state.rng.random(len(particles)).tolist()
    proposals: dict[object, tuple[list[int], list[float], int]] = {}
    children: dict[tuple[object, int], tuple[object, _CellTables, float]] = {}
    unnormalised = []
    for i, particle in enumerate(particles):
        tables = particle._synced()
        parent = particle._hypothesis[0]
        proposal = proposals.get(parent)
        if proposal is None:
            existing, _ = proposal_distribution(
                particle, particle.last_node, config.alpha, config.radius
            )
            proposal = proposals[parent] = (*_masses(existing), len(tables.sizes))
        chosen = _select(*proposal, draws[i])
        assignments = particle.assignments
        assignments.append(chosen)
        child = children.get((parent, chosen))
        if child is None:
            # the append left the parent's tables behind, so the likelihood
            # reads one copy of them, extended, under a fresh id
            like = likelihood(obs, particle, oracle, observations)
            tables = particle._synced(observations)
            child = children[parent, chosen] = (particle._hypothesis[0], tables, like)
        particle._hypothesis = (child[0], assignments, child[1])
        particle.weight *= child[2]
        unnormalised.append(particle.weight)

    weights = np.array(unnormalised)
    total = weights.sum()
    if total <= 0.0 or not np.isfinite(total):
        logger.warning("all particle weights vanished; resetting to uniform")
        weights[:] = 1.0 / len(weights)
    else:
        weights /= total
    for particle, w in zip(particles, weights.tolist()):
        particle.weight = w

    ess = 1.0 / float(np.sum(weights**2))
    resampled = ess < config.resample_threshold * len(state.particles)
    if resampled:
        _systematic_resample(state, weights)

    best = _map_particle(state)
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


def _systematic_resample(state: FilterState, weights: np.ndarray) -> None:
    n = len(state.particles)
    positions = (np.arange(n) + state.rng.random()) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    indexes = np.searchsorted(cumulative, positions)
    fresh = []
    for idx in indexes:
        clone = state.particles[int(idx)].clone()
        clone.weight = 1.0 / n
        fresh.append(clone)
    state.particles = fresh


def _map_particle(state: FilterState) -> TopologyParticle:
    if not state.particles:
        raise ValueError("filter holds no particles")
    best_idx = 0
    best_weight = state.particles[0].weight
    for i, particle in enumerate(state.particles[1:], start=1):
        if particle.weight > best_weight:
            best_weight = particle.weight
            best_idx = i
    return state.particles[best_idx]


def map_estimate(state: FilterState) -> list[set[int]]:
    return _map_particle(state).partition()


def suggest_merges(state: FilterState, place_of_obs: list[str]) -> list[list[str]]:
    """Groups of mapper place ids the MAP topology considers one place.

    ``place_of_obs[i]`` names the place the deterministic mapper assigned to
    observation ``i``.  Only groups spanning more than one mapper place are
    reported; applying them is the caller's decision.
    """
    groups = []
    for cell in map_estimate(state):
        places: list[str] = []
        for idx in sorted(cell):
            if idx < len(place_of_obs) and place_of_obs[idx] not in places:
                places.append(place_of_obs[idx])
        if len(places) > 1:
            groups.append(places)
    return groups


def export_trace(state: FilterState) -> str:
    return "\n".join(json.dumps(rec) for rec in state.trace) + ("\n" if state.trace else "")
