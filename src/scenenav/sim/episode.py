"""Discrete object-goal episodes: render frames, execute moves, score runs.

The action primitive mirrors a local image-goal controller: moving toward an
element succeeds only when its host place is the current place or one hop
away.  Success requires standing in a place that hosts the goal while its
detection fires; path lengths are hop counts.
The result records are NamedTuples: each equals a plain tuple of the same values.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..graph import SceneGraph
from ..mapper import Detection, DetectionFrame, MapperConfig, MapperState, mapper_step
from ..oracle.rules import RuleOracle
from ..planner import ExhaustedError, PlannerMemory, SubgoalPlan, reason_step
from ..schema import Schema
from ..topofilter import FilterConfig, FilterState, ObsRecord
from ..topofilter import step as filter_step
from .noise import NoiseModel, noiseless
from .scene import GroundTruthScene

logger = logging.getLogger(__name__)

__all__ = [
    "EpisodeSpec",
    "EpisodeResult",
    "RunnerConfig",
    "ActResult",
    "observe",
    "act",
    "run_episode",
    "metrics",
    "Metrics",
    "spl_term",
    "cover_walk",
    "walk_to_frames",
]

_BOX = 22.0
_RING_CENTER = 400.0
_RING_RADIUS = 38.0


@dataclass(frozen=True)
class EpisodeSpec:
    """One episode.  ``goal_hosts`` and ``shortest_hops`` are computed on
    first read and kept, so every agent that runs the spec shares them; the
    scene must not change once they are read.  ``build_episodes`` computes
    both while it draws the spec and hands them over as already read."""

    scene: GroundTruthScene
    start: str
    goal: str
    horizon: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.start not in self.scene.places:
            raise ValueError(f"start place {self.start!r} is not in the scene")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    @functools.cached_property
    def goal_hosts(self) -> tuple[str, ...]:
        """The places holding an object that satisfies the goal."""
        return tuple(self.scene.hosts(self.goal))

    @functools.cached_property
    def shortest_hops(self) -> float:
        """The fewest hops from the start to a goal host; infinite when none is reachable."""
        return self.scene.shortest_hops(self.start, self.goal_hosts)


class EpisodeResult(NamedTuple):
    success: bool
    hops_traversed: int
    shortest_hops: float
    final_goal_distance: float
    steps: tuple[dict, ...] = ()
    failure: str | None = None


@dataclass(frozen=True)
class RunnerConfig:
    noise: NoiseModel = field(default_factory=noiseless)
    filter: FilterConfig | None = None  # run the topology filter alongside when set


class ActResult(NamedTuple):
    place: str
    cost: int
    moved: bool
    ok: bool


@functools.lru_cache(maxsize=64)
def _ring(total: int) -> tuple[tuple[float, float, float, float], ...]:
    """The boxes of a frame's ``total`` detections, evenly spaced on the ring."""
    boxes = []
    for index in range(total):
        angle = 2.0 * math.pi * index / total
        cx = _RING_CENTER + _RING_RADIUS * math.cos(angle)
        cy = _RING_CENTER + _RING_RADIUS * math.sin(angle)
        boxes.append((cx - _BOX / 2.0, cy - _BOX / 2.0, _BOX, _BOX))
    return tuple(boxes)


def observe(
    scene: GroundTruthScene,
    place_id: str,
    noise: NoiseModel,
    rng: np.random.Generator,
    frame_id: int = 0,
    previous_subgoal: str | None = None,
) -> DetectionFrame:
    """Render one frame: the place's objects plus the portals leading out.

    Detections sit on a tight pixel ring so co-located elements always pass
    the nearness heuristic; each carries a stable ground-truth anchor in its
    image handle.
    """
    place = scene.places[place_id]
    detected, observe_label = noise.detected, noise.observe_label
    # each kept element draws its detection, then its label, in this order
    raw = [
        (observe_label(obj.label, rng), obj.desc, f"gt:obj:{place_id}:{k}")
        for k, obj in enumerate(place.objects)
        if detected(rng)
    ]
    connectors = scene.connectors
    for _, via in scene.neighbors(place_id):
        if via is not None and detected(rng):
            conn = connectors[via]
            raw.append((observe_label(conn.label, rng), "", f"gt:conn:{conn.id}"))
    # Detection(label, desc, bbox, image_ref) by position, the cheapest call
    detections = tuple([
        Detection(label, desc, bbox, ref) for (label, desc, ref), bbox in zip(raw, _ring(len(raw)))
    ])
    return DetectionFrame(
        frame_id=frame_id,
        place_type_answer=place.cls,
        place_label_answer=noise.confuse_place(place.label, rng),
        detections=detections,
        previous_subgoal=previous_subgoal,
    )


def act(scene: GroundTruthScene, place_id: str, target_ref: str) -> ActResult:
    """Execute one local move toward a ground-truth-anchored element.

    Anchors are parsed by prefix, so a scene id may contain ``:``: the host of
    ``gt:obj:<place>:<k>`` is everything up to the last ``:``, and the
    connector of ``gt:conn:<id>`` everything after the prefix.
    """
    adjacent = {nb for nb, _ in scene.neighbors(place_id)}
    if target_ref.startswith("gt:obj:"):
        host = target_ref[len("gt:obj:"):].rpartition(":")[0]
        if host not in scene.places:
            raise ValueError(f"unknown object anchor {target_ref!r}")
        if host == place_id:
            return ActResult(place=place_id, cost=0, moved=False, ok=True)
        if host in adjacent:
            return ActResult(place=host, cost=1, moved=True, ok=True)
        return ActResult(place=place_id, cost=1, moved=False, ok=False)
    if target_ref.startswith("gt:conn:"):
        conn = scene.connectors.get(target_ref[len("gt:conn:"):])
        if conn is None:
            raise ValueError(f"unknown connector anchor {target_ref!r}")
        a, b = conn.endpoints
        if place_id == a:
            return ActResult(place=b, cost=1, moved=True, ok=True)
        if place_id == b:
            return ActResult(place=a, cost=1, moved=True, ok=True)
        for endpoint in (a, b):
            if endpoint in adjacent:
                return ActResult(place=endpoint, cost=1, moved=True, ok=True)
        return ActResult(place=place_id, cost=1, moved=False, ok=False)
    if target_ref in scene.places:
        if target_ref == place_id:
            return ActResult(place=place_id, cost=0, moved=False, ok=True)
        if target_ref in adjacent:
            return ActResult(place=target_ref, cost=1, moved=True, ok=True)
        return ActResult(place=place_id, cost=1, moved=False, ok=False)
    raise ValueError(f"unknown move target {target_ref!r}")


def run_episode(
    spec: EpisodeSpec,
    schema: Schema,
    oracle: RuleOracle | None = None,
    config: RunnerConfig | None = None,
) -> EpisodeResult:
    """Observe -> map -> reason -> move until the goal fires or budget ends."""
    oracle = oracle if oracle is not None else RuleOracle()
    config = config if config is not None else RunnerConfig()
    # the observation and filter streams are the spawned children 0 and 1 of
    # SeedSequence(seed); each is built directly from its spawn key, without
    # the parent, and the filter's only when a filter runs
    obs_rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(0,)))
    tables = oracle.tables

    mapper_cfg = MapperConfig(goal=spec.goal)
    likely_places = tables.cooccurs(spec.goal)
    state = MapperState(graph=SceneGraph(schema))
    plan = SubgoalPlan()
    memory = PlannerMemory()
    scans: dict[str, int] = {}
    typical: dict[str, bool] = {}  # mapped place -> is the goal typical there?
    filter_state = (
        FilterState.create(
            config.filter,
            seed=np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(1,))),
        )
        if config.filter is not None
        else None
    )

    goal_hosts = spec.goal_hosts

    gt_place = spec.start
    hops = 0
    actions = 0
    frame_id = 0
    prev_subgoal: str | None = None
    success = False
    failure: str | None = None
    steps: list[dict] = []

    while True:
        frame = observe(spec.scene, gt_place, config.noise, obs_rng, frame_id, prev_subgoal)
        frame_id += 1
        result = mapper_step(frame, schema, state, oracle, mapper_cfg)
        state = result.state
        if filter_state is not None and result.obs is not None:
            record = ObsRecord(place_label=result.obs.place[1], features=result.obs.leaf_features())
            filter_state = filter_step(filter_state, record, oracle)
        if result.goal_hit is not None and gt_place in goal_hosts:
            success = True
            steps.append({"frame": frame.frame_id, "place": gt_place, "event": "goal"})
            break
        if state.current_place is not None:
            # this place was just scanned and the goal did not fire; places
            # where the goal is typical get one more look (a rescan is a
            # zero-hop action) before they are written off
            cur = state.current_place
            scans[cur] = scans.get(cur, 0) + 1
            likely = typical.get(cur)
            if likely is None:
                # a node's label never changes, so this is decided once per place
                label = tables.canonical_base(state.graph.node(cur).label)
                likely = typical[cur] = label in likely_places
            if not likely or scans[cur] >= 2:
                memory.exhausted.add(cur)
        if actions >= spec.horizon:
            failure = "horizon exhausted"
            break
        try:
            plan = reason_step(
                schema, state.graph, state.current_place, plan, spec.goal, oracle, memory
            )
        except ExhaustedError as exc:
            failure = f"exhausted: {exc}"
            break
        assert plan.object_goal is not None
        node_id, image_ref = plan.object_goal
        target_ref = image_ref or node_id
        try:
            moved = act(spec.scene, gt_place, target_ref)
        except ValueError as exc:
            failure = f"bad action: {exc}"
            break
        actions += 1
        hops += moved.cost
        steps.append(
            {
                "frame": frame.frame_id,
                "place": gt_place,
                "target": node_id,
                "moved_to": moved.place,
                "cost": moved.cost,
                "ok": moved.ok,
            }
        )
        prev_subgoal = node_id if moved.moved else None
        gt_place = moved.place

    return EpisodeResult(
        success=success,
        hops_traversed=hops,
        shortest_hops=spec.shortest_hops,
        final_goal_distance=0.0 if success else spec.scene.shortest_hops(gt_place, goal_hosts),
        steps=tuple(steps),
        failure=failure,
    )


@dataclass(frozen=True)
class Metrics:
    sr: float
    spl: float
    dtg: float


def spl_term(result: EpisodeResult) -> float:
    """One episode's success-weighted path length; ``metrics`` averages it."""
    if not result.success:
        return 0.0
    if result.hops_traversed == 0:
        return 1.0
    return result.shortest_hops / max(result.hops_traversed, result.shortest_hops)


def metrics(results: list[EpisodeResult]) -> Metrics:
    if not results:
        raise ValueError("metrics need at least one episode")
    n = len(results)
    sr = sum(1.0 for r in results if r.success) / n
    spl = sum(spl_term(r) for r in results) / n
    dtg = sum(r.final_goal_distance for r in results) / n
    return Metrics(sr=sr, spl=spl, dtg=dtg)


def cover_walk(scene: GroundTruthScene, start: str) -> list[str]:
    """A place sequence that visits every place and crosses every link."""
    walk = [start]
    visited = {start}

    def by_stairs_last(pid: str) -> Iterator[tuple[str, str | None]]:
        # keep stairs for last so floors finish before the walk climbs; the
        # sort is stable, so link order breaks ties
        return iter(sorted(
            scene.neighbors(pid),
            key=lambda item: item[1] is not None and scene.connectors[item[1]].label == "stairs",
        ))

    # depth-first, returning to each place after each child: one stack entry
    # per place on the current path, so the walk's depth needs no recursion
    stack = [(start, by_stairs_last(start))]
    while stack:
        for nb, _ in stack[-1][1]:
            if nb not in visited:
                visited.add(nb)
                walk.append(nb)
                stack.append((nb, by_stairs_last(nb)))
                break
        else:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])

    crossed = {frozenset(pair) for pair in zip(walk, walk[1:])}
    for a, b, _ in scene.links:
        if frozenset((a, b)) in crossed:
            continue
        walk.extend(scene.route(walk[-1], lambda p: p == a))
        walk.append(b)
        crossed = {frozenset(pair) for pair in zip(walk, walk[1:])}
    return walk


def walk_to_frames(
    scene: GroundTruthScene,
    walk: list[str],
    noise: NoiseModel,
    rng: np.random.Generator,
) -> list[DetectionFrame]:
    """Render a place walk as a trajectory log with traversal anchors."""
    frames = []
    prev: str | None = None
    for i, place_id in enumerate(walk):
        subgoal = None
        if prev is not None and prev != place_id:
            via = next(
                (v for nb, v in scene.neighbors(place_id) if nb == prev),
                None,
            )
            if via is not None:
                subgoal = f"gt:conn:{via}"
        frames.append(observe(scene, place_id, noise, rng, i, subgoal))
        prev = place_id
    return frames
