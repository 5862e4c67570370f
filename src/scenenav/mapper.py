"""Incremental topo-semantic mapping: one observation frame in, graph update out.

Each frame passes through three stages.  Parsing turns raw detections into a
structured observation (place guess, leaf elements, proximity pairs, goal
check).  State estimation decides whether the agent stands in an already
mapped place by matching the frame's ``(label, desc)`` pairs against the
features (``SceneGraph.object_features``, its leaves' pairs) of semantically
similar places, nearest first (``hop_order``: equal hops go to the earlier
place).  Integration either opens a new place (wiring connectivity back to
the previous one and updating the region hierarchy bottom-up) or folds the
observation into the recognised place through per-leaf data association:
a detection takes the known leaf that holds its image handle, and only the
rest are matched by label and context.  Proximity is stored only for pairs
with a connector at one end.
A frame's records are NamedTuples: each equals a plain tuple of the same values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import (
    ConnectorNode,
    EdgeRuleError,
    Features,
    ObjectNode,
    PlaceNode,
    RegionNode,
    SceneGraph,
    hop_distances,
    hop_order,
)
from .oracle.rules import RuleOracle
from .oracle.tables import strip_suffix
from .schema import (
    CONNECTOR,
    CONNECTS_TO,
    CONTAINS,
    HAS,
    IS_NEAR,
    OBJECT_ROLE,
    PLACE,
    REGION,
    Schema,
)

__all__ = [
    "Detection",
    "DetectionFrame",
    "ParsedObservation",
    "MapperConfig",
    "MapperState",
    "StepResult",
    "FrameError",
    "parse_frame",
    "estimate_state",
    "update_graph",
    "mapper_step",
    "frames_to_jsonl",
    "frames_from_jsonl",
]


# a detection smaller than MIN_OBJ_AREA square pixels is dropped; two kept
# ones are near when their centroids lie closer than BETA_PIX pixels or their
# boxes overlap by more than BETA_IOU
MIN_OBJ_AREA = 200.0
BETA_PIX = 100.0
BETA_IOU = 0.1


class FrameError(ValueError):
    """An observation frame violates its contract."""


class Detection(NamedTuple):
    label: str
    desc: str = ""
    bbox: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)  # x, y, w, h
    image_ref: str = ""

    @property
    def area(self) -> float:
        return self.bbox[2] * self.bbox[3]

    @property
    def centroid(self) -> tuple[float, float]:
        x, y, w, h = self.bbox
        return (x + w / 2.0, y + h / 2.0)


class DetectionFrame(NamedTuple):
    frame_id: int
    place_type_answer: str
    place_label_answer: str
    detections: tuple[Detection, ...] = ()
    previous_subgoal: str | None = None


class ParsedObservation(NamedTuple):
    place: tuple[str, str]  # (concept name, label)
    objects: tuple[tuple[str, str, str], ...] = ()  # (label, desc, image_ref)
    connectors: tuple[tuple[str, str, str], ...] = ()
    near_pairs: tuple[tuple[int, int], ...] = ()  # indices into objects + connectors
    goal_hit: Detection | None = None

    def leaf_features(self) -> Features:
        pairs = [(label, desc) for label, desc, _ in self.objects]
        pairs += [(label, desc) for label, desc, _ in self.connectors]
        return tuple(pairs)


@dataclass(frozen=True)
class MapperConfig:
    goal: str | None = None


@dataclass
class MapperState:
    graph: SceneGraph
    current_place: str | None = None
    place_history: list[str] = field(default_factory=list)


class StepResult(NamedTuple):
    state: MapperState
    goal_hit: Detection | None = None
    revisit: bool = False
    obs: ParsedObservation | None = None


def _iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def parse_frame(
    frame: DetectionFrame, schema: Schema, oracle: RuleOracle, config: MapperConfig
) -> ParsedObservation:
    """Structure one detection frame: classify leaves, wire proximity, spot the goal.

    One pass over the detections validates each, drops those smaller than
    ``MIN_OBJ_AREA`` and keeps the rest; their kinds are asked for in one
    call and split once into objects and then connectors, the order of the
    leaves, the near pairs and the goal check.  Areas and centroids are read
    straight off each bbox tuple.
    """
    place_concept = schema.concepts.get(frame.place_type_answer)
    if place_concept is None or place_concept.kind is not PLACE:
        raise FrameError(
            f"frame {frame.frame_id}: {frame.place_type_answer!r} is not a place "
            f"concept of the active schema"
        )
    if not frame.place_label_answer.strip():
        raise FrameError(
            f"frame {frame.frame_id}: blank place label {frame.place_label_answer!r}"
        )
    kept = []
    labels = []
    for det in frame.detections:
        label, _, bbox, _ = det
        if not label.strip():
            raise FrameError(f"frame {frame.frame_id}: blank detection label {label!r}")
        if min(bbox) < 0:
            raise FrameError(f"frame {frame.frame_id}: negative bbox coordinate")
        if bbox[2] * bbox[3] >= MIN_OBJ_AREA:
            kept.append(det)
            labels.append(label)

    objects: list[Detection] = []
    connectors: list[Detection] = []
    for det, kind in zip(kept, oracle.classify_elements(labels, schema)):
        if kind is OBJECT_ROLE:
            objects.append(det)
        elif kind is CONNECTOR:
            connectors.append(det)
    ordered = objects + connectors
    boxes = [d.bbox for d in ordered]
    centroids = [(x + w / 2.0, y + h / 2.0) for x, y, w, h in boxes]
    near_pairs = []
    for i, (ax, ay) in enumerate(centroids):
        box = boxes[i]
        for j in range(i + 1, len(ordered)):
            bx, by = centroids[j]
            if (((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5 < BETA_PIX
                    or _iou(box, boxes[j]) > BETA_IOU):
                near_pairs.append((i, j))

    goal_hit = None
    if config.goal:
        hit = oracle.goal_match([(d.label, d.desc) for d in ordered], config.goal)
        if hit is not None:
            goal_hit = ordered[hit]

    return ParsedObservation(
        place=(place_concept.name, frame.place_label_answer),
        objects=tuple([(d.label, d.desc, d.image_ref) for d in objects]),
        connectors=tuple([(d.label, d.desc, d.image_ref) for d in connectors]),
        near_pairs=tuple(near_pairs),
        goal_hit=goal_hit,
    )


def estimate_state(
    schema: Schema,
    graph: SceneGraph,
    prev_state: str | None,
    obs: ParsedObservation,
    oracle: RuleOracle,
) -> str | None:
    """Recognise the currently occupied place, or none if it looks unvisited."""
    places = graph.places()
    if not places:
        return None
    similar = oracle.similar_labels(obs.place[1], [p.label for p in places])
    if not similar:
        return None
    # similar_labels keeps place order, so equal hops go to the earlier place
    candidates = [places[i].id for i in similar]
    observed = obs.leaf_features()
    for pid in hop_order(candidates, hop_distances(graph, prev_state)):
        if oracle.match_place(graph.object_features(pid), observed).matched:
            return pid
    return None


def _connector_concept_for(schema: Schema, label: str) -> str | None:
    connectors = schema.by_kind(CONNECTOR)
    if not connectors:
        return None
    base = strip_suffix(label).lower()
    singular = base[:-1] if base.endswith("s") else base
    for concept in connectors:
        name = concept.name.lower()
        if name in (base, singular) or name + "s" == base:
            return concept.name
    return connectors[0].name


def _resolve_subgoal(graph: SceneGraph, ref: str | None) -> str | None:
    if not ref:
        return None
    if ref in graph:
        return ref
    return graph.find_by_image_ref(ref)


def _add_leaves(
    graph: SceneGraph,
    place_id: str,
    obs: ParsedObservation,
    assoc: dict[int, str],
) -> None:
    """Create nodes for unassociated leaf detections and attach them to the place."""
    n_objects = len(obs.objects)
    for idx, (label, desc, image_ref) in enumerate(obs.objects):
        if idx in assoc:
            continue
        node_id = graph.add_node(ObjectNode(label=label, desc=desc, image_ref=image_ref))
        graph.add_edge(place_id, node_id, HAS)
        assoc[idx] = node_id
    for k, (label, desc, image_ref) in enumerate(obs.connectors):
        idx = n_objects + k
        if idx in assoc:
            continue
        node_id = None
        if image_ref:
            # a connector already mapped from its other side carries the same
            # opaque handle; reuse it instead of splitting the passage in two
            known = graph.find_by_image_ref(image_ref)
            if known is not None and graph.node(known).kind is CONNECTOR:
                node_id = known
                if desc:
                    graph.set_leaf(known, desc=desc)
        if node_id is None:
            cls = _connector_concept_for(graph.schema, label)
            if cls is None:
                node_id = graph.add_node(ObjectNode(label=label, desc=desc, image_ref=image_ref))
                graph.add_edge(place_id, node_id, HAS)
                assoc[idx] = node_id
                continue
            node_id = graph.add_node(
                ConnectorNode(cls=cls, label=label, desc=desc, image_ref=image_ref)
            )
        _connect(graph, place_id, node_id)
        assoc[idx] = node_id


def _associate_traversed_connector(
    graph: SceneGraph,
    obs: ParsedObservation,
    subgoal_node: str | None,
    assoc: dict[int, str],
) -> None:
    """Tie the just-traversed connector to its detection on the arrival side."""
    if subgoal_node is None or subgoal_node not in graph:
        return
    node = graph.node(subgoal_node)
    if node.kind is not CONNECTOR:
        return
    n_objects = len(obs.objects)
    by_ref = None
    by_label = None
    for k, (label, desc, image_ref) in enumerate(obs.connectors):
        idx = n_objects + k
        if idx in assoc:
            continue
        if image_ref and image_ref == node.image_ref and by_ref is None:
            by_ref = idx
        if strip_suffix(label).lower() == strip_suffix(node.label).lower() and by_label is None:
            by_label = idx
    chosen = by_ref if by_ref is not None else by_label
    if chosen is not None:
        assoc[chosen] = subgoal_node


def _merge_near_edges(graph: SceneGraph, obs: ParsedObservation, assoc: dict[int, str]) -> None:
    # every associated node is an object or a connector; a detection with no
    # node gets no proximity edge, and neither do two objects: only pairs with
    # a connector feed a decision (a connector's row, the door and stairs
    # tie-break of match_object)
    get, node = assoc.get, graph.node
    for i, j in obs.near_pairs:
        a, b = get(i), get(j)
        if (a is not None and b is not None and a != b
                and (node(a).kind is not OBJECT_ROLE or node(b).kind is not OBJECT_ROLE)):
            graph.add_edge(a, b, IS_NEAR)


def _wire_previous(
    graph: SceneGraph,
    prev_place: str | None,
    new_place: str,
    subgoal: str | None,
) -> None:
    """Record traversability between the previous place and the new one."""
    if prev_place is None or prev_place == new_place:
        return
    connector = _resolve_subgoal(graph, subgoal)
    if connector is not None and graph.node(connector).kind is CONNECTOR:
        _connect(graph, prev_place, connector)
        if _connect(graph, connector, new_place):
            return
    _connect(graph, prev_place, new_place)


def _connect(graph: SceneGraph, a: str, b: str) -> bool:
    """Store ``a CONNECTS_TO b`` if the schema permits it; say whether it does."""
    try:  # a and b always differ, so only the schema can refuse the edge
        graph.add_edge(a, b, CONNECTS_TO)
    except EdgeRuleError:
        return False
    return True


def _update_regions(
    graph: SceneGraph,
    schema: Schema,
    oracle: RuleOracle,
    new_place: str,
    prev_place: str | None,
    subgoal_label: str | None,
) -> None:
    """Climb the region layers, attaching the new place to abstractions."""
    v_t = new_place
    v_prev = prev_place
    for layer in schema.region_layers:
        region_cls = schema.region_for(layer, graph.node_cls(graph.node(v_t)))
        if region_cls is None:
            break
        existing = [
            (n.id, n.label)
            for n in graph.nodes(REGION)
            if n.cls == region_cls
        ]
        prev_parent = graph.parent_region(v_prev) if v_prev is not None else None
        current = (v_t, graph.node(v_t).label)
        previous = (v_prev, graph.node(v_prev).label) if v_prev is not None else None
        choice = oracle.infer_region(
            schema,
            region_cls,
            existing,
            current,
            previous,
            previous_region=prev_parent,
            via_label=subgoal_label,
        )
        if not choice.is_new and choice.value in graph:
            graph.add_edge(choice.value, v_t, CONTAINS)
            break
        region_id = graph.add_node(RegionNode(cls=region_cls, label=choice.value))
        graph.add_edge(region_id, v_t, CONTAINS)
        if (
            v_prev is not None
            and prev_parent is None
            and graph.schema.permits(
                region_cls, CONTAINS, graph.node_cls(graph.node(v_prev))
            )
        ):
            graph.add_edge(region_id, v_prev, CONTAINS)
        v_t = region_id
        v_prev = prev_parent


def update_graph(
    schema: Schema,
    state: MapperState,
    est: str | None,
    obs: ParsedObservation,
    oracle: RuleOracle,
    subgoal: str | None = None,
) -> MapperState:
    """Integrate one parsed observation, as a new place or a revisit."""
    graph = state.graph
    prev_place = state.current_place
    subgoal_node = _resolve_subgoal(graph, subgoal)
    subgoal_label = graph.node(subgoal_node).label if subgoal_node else None

    if est is None:
        place_id = graph.add_node(PlaceNode(cls=obs.place[0], label=obs.place[1]))
        assoc: dict[int, str] = {}
        _associate_traversed_connector(graph, obs, subgoal_node, assoc)
        for node_id in assoc.values():
            _connect(graph, place_id, node_id)
        _add_leaves(graph, place_id, obs, assoc)
        _merge_near_edges(graph, obs, assoc)
        _wire_previous(graph, prev_place, place_id, subgoal)
        _update_regions(graph, schema, oracle, place_id, prev_place, subgoal_label)
    else:
        place_id = est
        node = graph.node(place_id)
        if obs.place[1] != node.label and obs.place[1] not in node.aliases:
            node.aliases.append(obs.place[1])
        assoc = _associate_leaves(graph, place_id, obs, oracle)
        _add_leaves(graph, place_id, obs, assoc)
        _merge_near_edges(graph, obs, assoc)
        _wire_previous(graph, prev_place, place_id, subgoal)

    state.current_place = place_id
    state.place_history.append(place_id)
    return state


def _associate_leaves(
    graph: SceneGraph,
    place_id: str,
    obs: ParsedObservation,
    oracle: RuleOracle,
) -> dict[int, str]:
    """Match observed leaves against the place's known leaves; refresh matches.

    A detection with an image handle takes the first unclaimed leaf, in
    ``leaves_of`` order, that holds the same handle.  Only when a detection
    is left over are the candidate rows and the frame's near map built for
    ``match_object``; the rows are taken before the handle matches refresh
    any ``desc``, so the oracle sees the leaves as the frame found them.
    """
    leaves = graph.leaves_of(place_id)
    holders: dict[str, list[str]] = {}
    for leaf in leaves:
        image_ref = graph.node(leaf).image_ref
        if image_ref:
            holders.setdefault(image_ref, []).append(leaf)

    all_leaf_dets = obs.objects + obs.connectors
    assoc: dict[int, str] = {}
    refreshes = []
    rest = []
    for idx, (_, desc, image_ref) in enumerate(all_leaf_dets):
        held = holders.get(image_ref)
        if not held:
            rest.append(idx)
            continue
        leaf = assoc[idx] = held.pop(0)
        if desc:
            refreshes.append((leaf, desc))
    if rest:
        candidates = [
            (leaf, node.label, node.desc, graph.object_features(leaf))
            for leaf, node in zip(leaves, map(graph.node, leaves))
        ]
        near_map: dict[int, list[tuple[str, str]]] = {}
        for i, j in obs.near_pairs:
            near_map.setdefault(i, []).append(all_leaf_dets[j][:2])
            near_map.setdefault(j, []).append(all_leaf_dets[i][:2])
        claimed = set(assoc.values())
    for leaf, desc in refreshes:
        graph.set_leaf(leaf, desc=desc)

    for idx in rest:
        label, desc, image_ref = all_leaf_dets[idx]
        features = tuple(near_map.get(idx, ()))
        open_candidates = [c for c in candidates if c[0] not in claimed]
        match = oracle.match_object((label, desc, features), open_candidates)
        if match is None:
            continue
        assoc[idx] = match
        claimed.add(match)
        graph.set_leaf(match, desc=desc or None, image_ref=image_ref or None)
    return assoc


def mapper_step(
    frame: DetectionFrame,
    schema: Schema,
    state: MapperState,
    oracle: RuleOracle,
    config: MapperConfig,
) -> StepResult:
    """One full mapping cycle; short-circuits without mutating on a goal hit."""
    obs = parse_frame(frame, schema, oracle, config)
    if obs.goal_hit is not None:
        return StepResult(state=state, goal_hit=obs.goal_hit, obs=obs)
    est = estimate_state(schema, state.graph, state.current_place, obs, oracle)
    state = update_graph(schema, state, est, obs, oracle, subgoal=frame.previous_subgoal)
    return StepResult(state=state, goal_hit=None, revisit=est is not None, obs=obs)


# -- trajectory logs -----------------------------------------------------------


def frames_to_jsonl(frames: list[DetectionFrame]) -> str:
    lines = []
    for frame in frames:
        lines.append(
            json.dumps(
                {
                    "frame_id": frame.frame_id,
                    "place_type_answer": frame.place_type_answer,
                    "place_label_answer": frame.place_label_answer,
                    "previous_subgoal": frame.previous_subgoal,
                    "detections": [
                        {
                            "label": d.label,
                            "desc": d.desc,
                            "bbox": list(d.bbox),
                            "image_ref": d.image_ref,
                        }
                        for d in frame.detections
                    ],
                },
                ensure_ascii=False,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _finite_number(value: object) -> bool:
    """A number that is a finite float: no bool, NaN, infinity (JSON's 1e999) or huge int."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _bbox(raw: object, frame_id: object) -> tuple[float, float, float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4 or not all(map(_finite_number, raw)):
        raise ValueError(
            f"frame {frame_id}: bbox must be 4 finite numbers (x, y, w, h), got {raw!r}"
        )
    return tuple(raw)


def _typed(raw: dict, key: str, kind: type | tuple[type, ...], where: str, default=...):
    """``raw[key]`` (``KeyError`` when missing and no default), checked to be a ``kind``."""
    value = raw[key] if default is ... else raw.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where}: {key!r} has the wrong type: {value!r}")
    return value


def _known_keys(raw: dict, keys: tuple[str, ...], where: str) -> None:
    """Raise ``ValueError`` for the first key of ``raw`` not in ``keys``."""
    for key in raw:
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r}")


def frames_from_jsonl(text: str) -> list[DetectionFrame]:
    """Parse a trajectory log; a malformed line raises ``ValueError`` or ``KeyError``.

    A frame or detection holds no key but the fields of ``DetectionFrame`` or ``Detection``.
    """
    frames = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        if not isinstance(raw, dict):
            raise ValueError(f"line {number}: a frame must be a JSON object")
        frame_id = _typed(raw, "frame_id", int, f"line {number}")
        where = f"frame {frame_id}"
        _known_keys(raw, DetectionFrame._fields, where)
        detections = []
        for d in _typed(raw, "detections", list, where, default=[]):
            if not isinstance(d, dict):
                raise ValueError(f"{where}: a detection must be a JSON object, got {d!r}")
            _known_keys(d, Detection._fields, where)
            detections.append(
                Detection(
                    label=_typed(d, "label", str, where),
                    desc=_typed(d, "desc", str, where, default=""),
                    bbox=_bbox(d.get("bbox", (0, 0, 0, 0)), frame_id),
                    image_ref=_typed(d, "image_ref", str, where, default=""),
                )
            )
        frames.append(
            DetectionFrame(
                frame_id=frame_id,
                place_type_answer=_typed(raw, "place_type_answer", str, where),
                place_label_answer=_typed(raw, "place_label_answer", str, where),
                previous_subgoal=_typed(
                    raw, "previous_subgoal", (str, type(None)), where, default=None
                ),
                detections=tuple(detections),
            )
        )
    return frames
