"""Particle filter over layer-2 topologies.

Each particle hypothesises a partition of the observation stream into place
nodes; edges between hypothesised nodes are implicit in consecutive
observations landing in different partition cells.  The proposal favours
well-visited cells near the previous state (a Chinese-restaurant assignment
restricted to a hop radius), the weight update scores how well the newest
observation matches its cell while mismatching rival cells of similar label,
and systematic resampling keeps the ensemble focused.

Each hypothesis keeps one immutable cells object: cell sizes, cell adjacency,
each cell's unique ``(label, desc)`` pairs in first-seen order (a plain
features tuple, handed to ``match_place`` as it is) and the place label of
each cell's first observation.  ``_Cells.child`` folds one more observation
into new cells that share every unchanged cell's value, so proposing and
weighting one hypothesis costs time in its number of cells, not in the length
of the history: the proposal walks the cells within its radius, and the rival
search hands every cell's label to ``similar_labels``.

Resampling leaves many particles on one hypothesis, so they share its cells
object, and a step keys its work by it: the proposal (cumulative cell masses)
once per distinct parent cells, the child cells and the likelihood (one round
of oracle questions) once per distinct (parent cells, chosen cell).  Every
particle still draws its own uniform number in particle order, so the states
match a particle-by-particle loop exactly.

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

from .graph import Features
from .oracle.rules import RuleOracle

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
    features: Features


class _Cells:
    """Per-cell summaries of one hypothesis, never changed once built.

    ``sizes`` and ``adjacency`` follow from the first ``length`` assignments
    alone; ``items`` (each cell's unique ``(label, desc)`` pairs in first-seen
    order) and ``labels`` (the place label of each cell's first observation)
    are read from ``observations`` and stay empty when that is ``None``.
    Every field is a tuple indexed by cell.
    """

    __slots__ = ("length", "observations", "sizes", "adjacency", "items", "labels")

    def __init__(self, length=0, observations=None, sizes=(), adjacency=(), items=(), labels=()):
        self.length: int = length
        self.observations: list[ObsRecord] | None = observations
        self.sizes: tuple[int, ...] = sizes
        self.adjacency: tuple[frozenset[int], ...] = adjacency
        self.items: tuple[Features, ...] = items
        self.labels: tuple[str | None, ...] = labels

    def child(
        self, prev: int | None, node: int, observations: list[ObsRecord] | None
    ) -> "_Cells":
        """These cells with observation ``length`` assigned to ``node`` after
        ``prev``; every cell value not replaced is shared with these.

        ``observations`` is ``None`` or the stream these cells were read from
        (any stream while they hold no observation).
        """
        sizes, adjacency = list(self.sizes), self.adjacency
        opened = node + 1 - len(sizes)
        if opened > 0:
            sizes += [0] * opened
            adjacency += (frozenset(),) * opened
        sizes[node] += 1
        if prev is not None and prev != node and node not in adjacency[prev]:
            linked = list(adjacency)
            linked[prev] = linked[prev] | {node}
            linked[node] = linked[node] | {prev}
            adjacency = tuple(linked)
        if observations is None:
            return _Cells(self.length + 1, None, tuple(sizes), adjacency)
        obs = observations[self.length]
        items, labels = self.items, self.labels
        if opened > 0:
            items += ((),) * opened
            labels += (None,) * opened
        if labels[node] is None:
            labels = labels[:node] + (obs.place_label,) + labels[node + 1 :]
        cell = items[node]
        seen = set(cell)
        extra = []
        for pair in obs.features:
            if pair not in seen:
                seen.add(pair)
                extra.append(pair)
        if extra:
            items = items[:node] + (cell + tuple(extra),) + items[node + 1 :]
        return _Cells(self.length + 1, observations, tuple(sizes), adjacency, items, labels)


_EMPTY = _Cells()


@dataclass
class TopologyParticle:
    """One topology hypothesis: cell assignment per observation index.

    The particle stores ``(the assignments list, its cells)``; particles
    holding one hypothesis share the cells.  Appending to ``assignments``
    folds the new entries into new cells on next use; replacing the list
    starts over.  Editing an earlier entry in place does neither.
    """

    assignments: list[int] = field(default_factory=list)
    weight: float = 1.0
    _hypothesis: tuple[list[int], _Cells] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _cells(self, observations: list[ObsRecord] | None = None) -> _Cells:
        """The cells of ``assignments``, with items and labels read from
        ``observations`` unless that is ``None``."""
        named, cells = self._hypothesis or (None, _EMPTY)
        assignments = self.assignments
        if (
            named is not assignments
            or cells.length > len(assignments)
            or (observations is not None and cells.observations is not observations)
        ):
            cells = _EMPTY
        elif cells.length == len(assignments):
            return cells
        for idx in range(cells.length, len(assignments)):
            prev = assignments[idx - 1] if idx else None
            cells = cells.child(prev, assignments[idx], observations)
        self._hypothesis = (assignments, cells)
        return cells

    @property
    def num_nodes(self) -> int:
        return len(self._cells().sizes)

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
        return {n: set(nbrs) for n, nbrs in enumerate(self._cells().adjacency)}

    def clone(self) -> "TopologyParticle":
        """Copy with its own assignments and the same cells."""
        twin = TopologyParticle(assignments=list(self.assignments), weight=self.weight)
        twin._hypothesis = (twin.assignments, self._cells())
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
        return cls(config=config, rng=rng, particles=particles)


def _nearby_nodes(adjacency: tuple[frozenset[int], ...], source: int, radius: int) -> set[int]:
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
    cells = particle._cells()
    sizes = cells.sizes
    reachable = sorted(_nearby_nodes(cells.adjacency, prev_state_node, radius))
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
    oracle: RuleOracle,
    observations: list[ObsRecord],
) -> float:
    """P(obs | topology): match the assigned cell, mismatch similar rivals."""
    assigned = particle.last_node
    if assigned is None:
        return 1.0
    cells = particle._cells(observations)
    p_assigned = oracle.match_place(cells.items[assigned], obs.features).confidence
    value = p_assigned
    for node in oracle.similar_labels(obs.place_label, list(cells.labels)):
        if node == assigned:
            continue
        p_rival = oracle.match_place(cells.items[node], obs.features).confidence
        value *= 1.0 - p_rival
    return value


def step(state: FilterState, obs: ObsRecord, oracle: RuleOracle) -> FilterState:
    """Advance the filter by one observation: propose, weight, resample.

    Each particle draws its cell from its own uniform number, taken in particle
    order.  The proposal is computed once per distinct parent cells and the
    likelihood once per distinct (parent cells, chosen cell); that child's
    cells are built once and shared by all its particles.
    """
    config = state.config
    observations = state.observations
    observations.append(obs)
    particles = state.particles
    draws = state.rng.random(len(particles)).tolist()
    proposals: dict[_Cells, tuple[list[int], list[float], int]] = {}
    children: dict[tuple[_Cells, int], tuple[_Cells, float]] = {}
    unnormalised = []
    for particle, draw in zip(particles, draws):
        parent = particle._cells(observations)
        prev = particle.last_node
        proposal = proposals.get(parent)
        if proposal is None:
            existing, _ = proposal_distribution(particle, prev, config.alpha, config.radius)
            proposal = proposals[parent] = (*_masses(existing), len(parent.sizes))
        chosen = _select(*proposal, draw)
        assignments = particle.assignments
        assignments.append(chosen)
        child = children.get((parent, chosen))
        if child is None:
            cells = parent.child(prev, chosen, observations)
            particle._hypothesis = (assignments, cells)
            like = likelihood(obs, particle, oracle, observations)
            child = children[parent, chosen] = (cells, like)
        else:
            particle._hypothesis = (assignments, child[0])
        particle.weight *= child[1]
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
    """The first of the heaviest particles."""
    if not state.particles:
        raise ValueError("filter holds no particles")
    return max(state.particles, key=lambda particle: particle.weight)


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
