"""Discrete object-goal episodes: render frames, execute moves, score runs.

The action primitive mirrors a local image-goal controller: moving toward an
element succeeds only when its host place is the current place or one hop
away.  Success requires standing in a place that hosts the goal while its
detection fires; path lengths are hop counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..graph import SceneGraph
from ..mapper import Detection, DetectionFrame, MapperConfig, MapperState, mapper_step
from ..oracle.base import SemanticOracle
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


@dataclass(frozen=True)
class EpisodeResult:
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


@dataclass(frozen=True)
class ActResult:
    place: str
    cost: int
    moved: bool
    ok: bool


def _ring_bbox(index: int, total: int) -> tuple[float, float, float, float]:
    angle = 2.0 * math.pi * index / max(total, 1)
    cx = _RING_CENTER + _RING_RADIUS * math.cos(angle)
    cy = _RING_CENTER + _RING_RADIUS * math.sin(angle)
    return (cx - _BOX / 2.0, cy - _BOX / 2.0, _BOX, _BOX)


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
    raw: list[tuple[str, str, str]] = []
    for k, obj in enumerate(place.objects):
        if not noise.detected(rng):
            continue
        label = noise.observe_label(obj.label, rng)
        raw.append((label, obj.desc, f"gt:obj:{place_id}:{k}"))
    for neighbor, via in scene.neighbors(place_id):
        if via is None:
            continue
        if not noise.detected(rng):
            continue
        conn = scene.connectors[via]
        label = noise.observe_label(conn.label, rng)
        raw.append((label, "", f"gt:conn:{conn.id}"))
    detections = tuple(
        Detection(label=label, desc=desc, bbox=_ring_bbox(i, len(raw)), image_ref=ref)
        for i, (label, desc, ref) in enumerate(raw)
    )
    return DetectionFrame(
        frame_id=frame_id,
        place_type_answer=place.cls,
        place_label_answer=noise.confuse_place(place.label, rng),
        detections=detections,
        previous_subgoal=previous_subgoal,
    )


def act(scene: GroundTruthScene, place_id: str, target_ref: str) -> ActResult:
    """Execute one local move toward a ground-truth-anchored element."""
    adjacent = {nb for nb, _ in scene.neighbors(place_id)}
    parts = target_ref.split(":")
    if len(parts) >= 3 and parts[0] == "gt" and parts[1] == "obj":
        host = parts[2]
        if host not in scene.places:
            raise ValueError(f"unknown object anchor {target_ref!r}")
        if host == place_id:
            return ActResult(place=place_id, cost=0, moved=False, ok=True)
        if host in adjacent:
            return ActResult(place=host, cost=1, moved=True, ok=True)
        return ActResult(place=place_id, cost=1, moved=False, ok=False)
    if len(parts) >= 3 and parts[0] == "gt" and parts[1] == "conn":
        conn = scene.connectors.get(parts[2])
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
    oracle: SemanticOracle | None = None,
    config: RunnerConfig | None = None,
) -> EpisodeResult:
    """Observe -> map -> reason -> move until the goal fires or budget ends."""
    oracle = oracle if oracle is not None else RuleOracle()
    config = config if config is not None else RunnerConfig()
    streams = np.random.SeedSequence(spec.seed).spawn(2)
    obs_rng = np.random.default_rng(streams[0])
    tables = getattr(oracle, "tables", None)
    canon_fn = tables.canonical if tables is not None else (lambda s: s)

    mapper_cfg = MapperConfig(goal=spec.goal)
    likely_places = tables.cooccurs(spec.goal) if tables is not None else frozenset()
    state = MapperState(graph=SceneGraph(schema))
    plan = SubgoalPlan()
    memory = PlannerMemory()
    scans: dict[str, int] = {}
    filter_state = (
        FilterState.create(config.filter, seed=np.random.default_rng(streams[1]))
        if config.filter is not None
        else None
    )

    goal_hosts = spec.scene.hosts(spec.goal)
    shortest = spec.scene.shortest_hops(spec.start, goal_hosts)

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
            label = canon_fn(state.graph.node(cur).label)
            if label not in likely_places or scans[cur] >= 2:
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

    dtg = spec.scene.shortest_hops(gt_place, goal_hosts)
    return EpisodeResult(
        success=success,
        hops_traversed=hops,
        shortest_hops=shortest,
        final_goal_distance=0.0 if success else dtg,
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

    def neighbors_sorted(pid: str) -> list[tuple[str, str | None]]:
        pairs = scene.neighbors(pid)
        # keep stairs for last so floors finish before the walk climbs
        return sorted(
            pairs,
            key=lambda item: (
                item[1] is not None and scene.connectors[item[1]].label == "stairs",
                pairs.index(item),
            ),
        )

    def dfs(pid: str) -> None:
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
