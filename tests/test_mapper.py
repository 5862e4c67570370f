import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenenav.graph import ConnectorNode, ObjectNode, PlaceNode, SceneGraph, validate_graph
from scenenav.mapper import (
    BETA_IOU,
    BETA_PIX,
    Detection,
    DetectionFrame,
    FrameError,
    MapperConfig,
    MapperState,
    ParsedObservation,
    _associate_leaves,
    estimate_state,
    frames_from_jsonl,
    frames_to_jsonl,
    mapper_step,
    parse_frame,
    update_graph,
)
from scenenav.oracle.base import MatchDecision
from scenenav.oracle.rules import RuleOracle
from scenenav.schema import ConceptKind, EdgeKind, builtin_schema
from scenenav.sim import cover_walk, default_noise, generate_home_scene, walk_to_frames
from scenenav.sim.episode import _ring


@pytest.fixture
def home():
    return builtin_schema("home")


@pytest.fixture
def oracle():
    return RuleOracle()


@pytest.fixture
def config():
    return MapperConfig()


def det(label, x=0.0, y=0.0, w=20.0, h=20.0, desc="", image_ref=""):
    return Detection(label=label, desc=desc, bbox=(x, y, w, h), image_ref=image_ref)


def frame(fid, label="livingroom", cls="Room", dets=(), subgoal=None):
    return DetectionFrame(
        frame_id=fid,
        place_type_answer=cls,
        place_label_answer=label,
        detections=tuple(dets),
        previous_subgoal=subgoal,
    )


def _spread(dets, step=400.0):
    # lay detections far apart so no nearness pair fires by accident
    return [
        Detection(d.label, d.desc, (i * step, 0.0, d.bbox[2], d.bbox[3]), d.image_ref)
        for i, d in enumerate(dets)
    ]


class TestParseFrame:
    def test_small_detection_dropped(self, home, oracle, config):
        f = frame(0, dets=[det("tv", w=15, h=10), det("sofa", w=20, h=20)])
        obs = parse_frame(f, home, oracle, config)
        labels = [l for l, _, _ in obs.objects]
        assert labels == ["sofa"]  # 150 px^2 < 200 px^2 threshold

    def test_centroid_nearness(self, home, oracle, config):
        f = frame(0, dets=[det("sofa", x=0), det("lamp", x=80)])
        obs = parse_frame(f, home, oracle, config)
        assert obs.near_pairs == ((0, 1),)

    def test_iou_nearness_with_far_centroids(self, home, oracle, config):
        # huge overlapping boxes: IoU > 0.1 while centroids sit > 100 px apart
        a = Detection("sofa", "", (0.0, 0.0, 1000.0, 1000.0))
        b = Detection("rug", "", (300.0, 300.0, 1000.0, 1000.0))
        (ax, ay), (bx, by) = a.centroid, b.centroid
        assert ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5 > 100
        f = frame(0, dets=[a, b])
        obs = parse_frame(f, home, oracle, config)
        assert obs.near_pairs == ((0, 1),)

    def test_far_apart_no_pair(self, home, oracle, config):
        f = frame(0, dets=_spread([det("sofa"), det("lamp")]))
        obs = parse_frame(f, home, oracle, config)
        assert obs.near_pairs == ()

    def test_connectors_split_from_objects(self, home, oracle, config):
        f = frame(0, dets=_spread([det("sofa"), det("door"), det("wall")]))
        obs = parse_frame(f, home, oracle, config)
        assert [l for l, _, _ in obs.objects] == ["sofa"]
        assert [l for l, _, _ in obs.connectors] == ["door"]

    def test_goal_detection(self, home, oracle):
        cfg = MapperConfig(goal="bed")
        f = frame(0, dets=[det("bed", desc="red cotton")])
        obs = parse_frame(f, home, oracle, cfg)
        assert obs.goal_hit is not None and obs.goal_hit.label == "bed"

    def test_paper_frame_keeps_instance_labels(self, home, oracle, config):
        # the detector's own instance suffixes name a door, a wall, a place word
        labels = ["livingroom_0", "window_13", "door_2", "doorway_3", "table_4", "stairs_10",
                  "wall_8", "kitchen door_3"]
        obs = parse_frame(frame(0, dets=_spread([det(l) for l in labels])), home, oracle, config)
        assert [l for l, _, _ in obs.connectors] == [
            "door_2", "doorway_3", "stairs_10", "kitchen door_3"
        ]
        assert [l for l, _, _ in obs.objects] == ["window_13", "table_4"]

    def test_goal_hit_is_the_matching_detection(self, home, oracle):
        sofa = det("sofa_2", x=400.0, desc="red", image_ref="s2")
        dets = [det("lamp"), sofa, det("sofa_2", x=800.0, desc="red", image_ref="s3")]
        obs = parse_frame(frame(0, dets=dets), home, oracle, MapperConfig(goal="sofa"))
        assert obs.goal_hit is sofa

    def test_unknown_place_type_rejected(self, home, oracle, config):
        with pytest.raises(FrameError):
            parse_frame(frame(0, cls="Aisle"), home, oracle, config)

    @pytest.mark.parametrize("label", ["", "   ", "\t"])
    def test_blank_detection_label_rejected(self, home, oracle, config, label):
        with pytest.raises(FrameError, match=re.escape(f"frame 0: blank detection label {label!r}")):
            parse_frame(frame(0, dets=[det("bed"), det(label)]), home, oracle, config)

    @pytest.mark.parametrize("label", ["", "  "])
    def test_blank_place_label_rejected(self, home, oracle, config, label):
        with pytest.raises(FrameError, match=re.escape(f"frame 0: blank place label {label!r}")):
            parse_frame(frame(0, label=label, dets=[det("bed")]), home, oracle, config)


class TestEstimateState:
    def test_empty_graph(self, home, oracle, config):
        graph = SceneGraph(home)
        obs = parse_frame(frame(0), home, oracle, config)
        assert estimate_state(graph, None, obs, oracle) is None

    def test_identical_features_recognised(self, home, oracle, config):
        graph = SceneGraph(home)
        room = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
        for label in ("bed", "lamp", "dresser"):
            obj = graph.add_node(ObjectNode(label=label))
            graph.add_edge(room, obj, EdgeKind.HAS)
        f = frame(1, label="bedroom", dets=_spread([det("bed"), det("lamp"), det("dresser")]))
        obs = parse_frame(f, home, oracle, config)
        assert estimate_state(graph, None, obs, oracle) == room

    def test_unknown_label_gives_none(self, home, oracle, config):
        graph = SceneGraph(home)
        room = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
        obj = graph.add_node(ObjectNode(label="bed"))
        graph.add_edge(room, obj, EdgeKind.HAS)
        obs = parse_frame(frame(1, label="gym", dets=[det("bed")]), home, oracle, config)
        assert estimate_state(graph, None, obs, oracle) is None

    def test_nearest_similar_place_wins(self, home, oracle, config):
        graph = SceneGraph(home)
        near = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
        far = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
        start = graph.add_node(PlaceNode(cls="Room", label="kitchen"))
        for room in (near, far):
            for label in ("bed", "lamp"):
                obj = graph.add_node(ObjectNode(label=label))
                graph.add_edge(room, obj, EdgeKind.HAS)
        graph.add_edge(start, near, EdgeKind.CONNECTS_TO)
        graph.add_edge(near, far, EdgeKind.CONNECTS_TO)
        f = frame(2, label="bedroom", dets=_spread([det("bed"), det("lamp")]))
        obs = parse_frame(f, home, oracle, config)
        assert estimate_state(graph, start, obs, oracle) == near

    def test_candidates_go_nearest_first_then_in_place_order(self, home, oracle, config):
        # insertion order: unreachable, 2 hops, 1 hop, 1 hop; each bedroom's
        # bed names it in its desc, so the stored signature shows which is asked
        graph = SceneGraph(home)
        lost, far, near, tie = (
            graph.add_node(PlaceNode(cls="Room", label="bedroom")) for _ in range(4)
        )
        start = graph.add_node(PlaceNode(cls="Room", label="kitchen"))
        other = graph.add_node(PlaceNode(cls="Room", label="kitchen"))
        for room in (lost, far, near, tie):
            graph.add_edge(room, graph.add_node(ObjectNode(label="bed", desc=room)), EdgeKind.HAS)
        for a, b in ((start, near), (start, tie), (start, other), (near, far)):
            graph.add_edge(a, b, EdgeKind.CONNECTS_TO)

        class Refusing(RuleOracle):
            def __init__(self):
                super().__init__()
                self.asked = []

            def match_place(self, stored, observed):
                self.asked.append(stored[0][1])
                return MatchDecision(matched=False, confidence=0.1)

        obs = parse_frame(frame(2, label="bedroom", dets=[det("bed")]), home, oracle, config)
        refusing = Refusing()
        assert estimate_state(graph, start, obs, refusing) is None
        assert refusing.asked == [near, tie, far, lost]
        refusing.asked.clear()
        assert estimate_state(graph, None, obs, refusing) is None
        assert refusing.asked == [lost, far, near, tie]
        # every bedroom matches: the nearer one wins over the earlier one, and
        # of two at one hop the earlier one
        assert estimate_state(graph, start, obs, oracle) == near
        assert estimate_state(graph, far, obs, oracle) == far
        assert estimate_state(graph, other, obs, oracle) == near


class TestUpdateGraph:
    def _step(self, state, home, oracle, config, f):
        obs = parse_frame(f, home, oracle, config)
        est = estimate_state(state.graph, state.current_place, obs, oracle)
        return update_graph(state, est, obs, oracle, subgoal=f.previous_subgoal), est

    def test_first_frame_base_case(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        f = frame(0, dets=_spread([det("sofa"), det("tv")]))
        state, est = self._step(state, home, oracle, config, f)
        assert est is None
        graph = state.graph
        assert state.current_place == "livingroom_1"
        assert len(graph.places()) == 1
        assert len(graph.nodes(ConceptKind.OBJECT_ROLE)) == 2
        kinds = {k for _, _, k in graph.edges()}
        assert EdgeKind.CONNECTS_TO not in kinds
        # one region node appears for the floor layer
        assert len(graph.nodes(ConceptKind.REGION)) == 1

    def test_revisit_adds_only_novel_object(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        dets = _spread([det("sofa"), det("tv"), det("rug")])
        state, _ = self._step(state, home, oracle, config, frame(0, dets=dets))
        before = len(state.graph.nodes())
        dets2 = _spread([det("sofa"), det("tv"), det("rug"), det("vase")])
        state, est = self._step(state, home, oracle, config, frame(1, dets=dets2))
        assert est == "livingroom_1"
        assert len(state.graph.nodes()) == before + 1

    def test_new_place_wired_through_subgoal_connector(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        dets = _spread([det("sofa"), det("tv"), det("door", image_ref="img:door")])
        state, _ = self._step(state, home, oracle, config, frame(0, dets=dets))
        graph = state.graph
        door = graph.find_by_image_ref("img:door")
        assert door is not None
        dets2 = _spread([det("bed"), det("lamp")])
        f2 = frame(1, label="bedroom", dets=dets2, subgoal=door)
        state, est = self._step(state, home, oracle, config, f2)
        assert est is None
        new_place = state.current_place
        assert graph.has_edge("livingroom_1", door, EdgeKind.CONNECTS_TO)
        assert graph.has_edge(door, new_place, EdgeKind.CONNECTS_TO)
        assert graph.has_edge(new_place, door, EdgeKind.CONNECTS_TO)
        assert not graph.has_edge("livingroom_1", new_place, EdgeKind.CONNECTS_TO)

    def test_a_link_the_schema_forbids_is_left_out(self, oracle, config):
        # an apartment room connects to entrances only, and a mall escalator
        # to walkways only: the refused link is skipped, or falls back to the
        # place-to-place link when the schema permits that one
        apartment = builtin_schema("apartment")
        state = MapperState(graph=SceneGraph(apartment))
        for fid, label in enumerate(("livingroom", "bedroom")):
            f = frame(fid, label=label, dets=_spread([det(f"{label} lamp")]))
            state, est = self._step(state, apartment, oracle, config, f)
        assert est is None
        assert state.graph.connectivity_subgraph() == {"livingroom_1": {}, "bedroom_1": {}}
        assert validate_graph(state.graph) == []
        mall = builtin_schema("mall")
        state = MapperState(graph=SceneGraph(mall))
        dets = _spread([det("bench"), det("escalator", image_ref="img:esc")])
        f = frame(0, label="walkway", cls="Walkway", dets=dets)
        state, _ = self._step(state, mall, oracle, config, f)
        graph = state.graph
        escalator = graph.find_by_image_ref("img:esc")
        assert graph.node(escalator).cls == "Escalator"
        f = frame(1, label="store", cls="Store", dets=_spread([det("shelf")]), subgoal=escalator)
        state, est = self._step(state, mall, oracle, config, f)
        assert est is None
        assert graph.connectivity_subgraph() == {
            "walkway_1": {escalator: 1.0, "store_1": 1.0},
            escalator: {"walkway_1": 1.0},
            "store_1": {"walkway_1": 1.0},
        }
        assert validate_graph(graph) == []

    def test_same_floor_region_reused_then_new_floor(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        state, _ = self._step(
            state, home, oracle, config,
            frame(0, dets=_spread([det("sofa"), det("door", image_ref="img:d1")])),
        )
        graph = state.graph
        door = graph.find_by_image_ref("img:d1")
        state, _ = self._step(
            state, home, oracle, config,
            frame(1, label="kitchen", dets=_spread([det("sink"), det("oven")]), subgoal=door),
        )
        regions = graph.nodes(ConceptKind.REGION)
        assert len(regions) == 1
        floor = regions[0].id
        assert graph.parent_region("livingroom_1") == floor
        assert graph.parent_region(state.current_place) == floor
        # climb into the stairs place, then a room beyond it: a new floor opens
        state, _ = self._step(
            state, home, oracle, config,
            frame(2, label="stairs", cls="Stairs", dets=_spread([det("railing")])),
        )
        stairs_id = state.current_place
        assert graph.parent_region(stairs_id) is None
        state, _ = self._step(
            state, home, oracle, config,
            frame(3, label="bedroom", dets=_spread([det("bed"), det("wardrobe")])),
        )
        regions = graph.nodes(ConceptKind.REGION)
        assert len(regions) == 2
        assert graph.parent_region(state.current_place) == regions[1].id

    def test_revisit_label_disagreement_recorded_as_alias(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        dets = _spread([det("sofa"), det("tv"), det("rug")])
        state, _ = self._step(state, home, oracle, config, frame(0, dets=dets))
        state, est = self._step(
            state, home, oracle, config, frame(1, label="familyroom", dets=dets)
        )
        assert est == "livingroom_1"
        node = state.graph.node("livingroom_1")
        assert node.label == "livingroom"
        assert node.aliases == ["familyroom"]

    def test_validates_after_updates(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        state, _ = self._step(
            state, home, oracle, config,
            frame(0, dets=[det("sofa", x=0), det("tv", x=50), det("door", x=90)]),
        )
        state, _ = self._step(
            state, home, oracle, config,
            frame(1, label="bedroom", dets=[det("bed", x=0), det("lamp", x=60)]),
        )
        assert validate_graph(state.graph) == []


class TestMapperStep:
    def test_a_place_word_before_a_connector_label_keeps_its_class(self, oracle, config):
        # the class picker strips the place word as the classifier does, so
        # under the office schema (connectors Stair, Entrance) both are entrances
        office = builtin_schema("office")
        state = MapperState(graph=SceneGraph(office))
        dets = _spread([det("lobby entrance_1"), det("entrance_2")])
        graph = mapper_step(frame(0, "office", "Office", dets), office, state, oracle, config).state.graph
        connectors = [(n.label, n.cls) for n in graph.nodes(ConceptKind.CONNECTOR)]
        assert connectors == [("lobby entrance_1", "Entrance"), ("entrance_2", "Entrance")]
        assert graph.leaves_of("office_1") == [n.id for n in graph.nodes(ConceptKind.CONNECTOR)]
        assert validate_graph(graph) == []

    def test_goal_short_circuit_leaves_state_untouched(self, home, oracle):
        cfg = MapperConfig(goal="sofa")
        state = MapperState(graph=SceneGraph(home))
        result = mapper_step(frame(0, dets=[det("sofa")]), home, state, oracle, cfg)
        assert result.goal_hit is not None
        assert len(result.state.graph.nodes()) == 0
        assert result.state.place_history == []

    def test_identical_frames_second_is_revisit(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        dets = _spread([det("sofa"), det("tv"), det("rug")])
        r1 = mapper_step(frame(0, dets=dets), home, state, oracle, config)
        count = len(r1.state.graph.nodes())
        r2 = mapper_step(frame(1, dets=dets), home, r1.state, oracle, config)
        assert r2.revisit
        assert len(r2.state.graph.nodes()) == count
        assert r2.state.place_history == ["livingroom_1", "livingroom_1"]

    def test_two_detections_with_one_label_stay_two_leaves(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        dets = _spread([det("chair", image_ref="a"), det("chair", image_ref="b")])
        graph = mapper_step(frame(0, dets=dets), home, state, oracle, config).state.graph
        leaves = [graph.node(leaf) for leaf in graph.leaves_of("livingroom_1")]
        assert [(n.label, n.image_ref) for n in leaves] == [("chair", "a"), ("chair", "b")]

    def test_history_appended(self, home, oracle, config):
        state = MapperState(graph=SceneGraph(home))
        r = mapper_step(frame(0, dets=[det("sofa")]), home, state, oracle, config)
        assert r.state.place_history == ["livingroom_1"]


def test_frames_jsonl_roundtrip():
    frames = [
        DetectionFrame(
            frame_id=0,
            place_type_answer="Room",
            place_label_answer="kitchen",
            detections=(Detection("sink", "steel", (1.0, 2.0, 30.0, 40.0), "img:7"),),
            previous_subgoal="door_1",
        ),
        DetectionFrame(frame_id=1, place_type_answer="Room", place_label_answer="hall"),
    ]
    assert frames_from_jsonl(frames_to_jsonl(frames)) == frames
    assert frames_from_jsonl("") == []


def _scanned_features(graph, node_id):
    """A node's (label, desc) context read straight off its edges (reference)."""
    node = graph.node(node_id)
    if node.kind is ConceptKind.PLACE:
        near = graph.out_neighbors(node_id, EdgeKind.HAS) + [
            nb for nb in graph.out_neighbors(node_id, EdgeKind.CONNECTS_TO)
            if graph.node(nb).kind is ConceptKind.CONNECTOR
        ]
    else:
        near = graph.out_neighbors(node_id, EdgeKind.IS_NEAR)
        near += [nb for nb in graph.in_neighbors(node_id, EdgeKind.IS_NEAR) if nb not in near]
    return tuple((graph.node(nb).label, getattr(graph.node(nb), "desc", "")) for nb in near)


def test_leaf_refreshes_reach_the_kept_views(home, oracle, config):
    # a revisit that sees known leaves with a new desc or image handle must
    # show in the features the graph keeps for the place and the neighbours,
    # and in its image_ref index
    frames = [
        [det("sofa", 0, 0, desc="red"), det("tv", 30, 0, desc="red"),
         det("door", 60, 0, image_ref="img:door")],
        [det("sofa", 0, 0, desc="blue", image_ref="img:sofa"), det("tv", 30, 0, desc="red"),
         det("door", 60, 0, desc="oak", image_ref="img:door")],
        [det("sofa", 0, 0, desc="green", image_ref="img:sofa2"), det("tv", 30, 0),
         det("door", 60, 0, desc="pine", image_ref="img:door")],
    ]
    state = MapperState(graph=SceneGraph(home))
    for fid, dets in enumerate(frames):
        state = mapper_step(frame(fid, dets=dets), home, state, oracle, config).state
        graph = state.graph
        for node in graph.nodes():
            if node.kind is not ConceptKind.REGION:
                assert graph.object_features(node.id) == _scanned_features(graph, node.id)
        for ref in ("img:door", "img:sofa", "img:sofa2"):
            holders = [n.id for n in graph.nodes() if getattr(n, "image_ref", "") == ref]
            assert graph.find_by_image_ref(ref) == (holders[0] if holders else None)
    assert state.place_history == ["livingroom_1"] * 3
    sofa = graph.find_by_image_ref("img:sofa2")
    assert graph.node(sofa).desc == "green"
    assert graph.find_by_image_ref("img:sofa") is None
    assert ("sofa", "green") in graph.object_features("livingroom_1")


@pytest.mark.parametrize("line,needle", [
    ("[1]", "JSON object"),
    ('{"frame_id": "0", "place_type_answer": "Room", "place_label_answer": "hall"}',
     "'frame_id'"),
    ('{"frame_id": 0, "place_type_answer": 3, "place_label_answer": "hall"}',
     "'place_type_answer'"),
    ('{"frame_id": 0, "place_type_answer": "Room", "place_label_answer": "hall",'
     ' "detections": {"label": "tv"}}', "'detections'"),
    ('{"frame_id": 0, "place_type_answer": "Room", "place_label_answer": "hall",'
     ' "detections": [null]}', "detection"),
    ('{"frame_id": 0, "place_type_answer": "Room", "place_label_answer": "hall",'
     ' "detections": [{"label": "tv", "desc": 7}]}', "'desc'"),
    ('{"frame_id": 0, "place_type_answer": "Room", "place_label_answer": "hall",'
     ' "previous_subgoal": ["door_1"]}', "'previous_subgoal'"),
    # a misspelt optional key would otherwise read as a frame with no
    # traversal or a detection with no image handle
    ('{"frame_id": 1, "place_type_answer": "Room", "place_label_answer": "hall",'
     ' "previous_subgoals": "door_1"}', "^frame 1: unknown key 'previous_subgoals'$"),
    ('{"frame_id": 1, "place_type_answer": "Room", "place_label_answer": "hall",'
     ' "detections": [{"label": "tv", "imageref": "img:tv"}]}',
     "^frame 1: unknown key 'imageref'$"),
    *[
        ('{"frame_id": 3, "place_type_answer": "Room", "place_label_answer": "hall",'
         f' "detections": [{{"label": "tv", "bbox": [{number}, 10, 30, 30]}}]}}',
         "frame 3: bbox must be 4 finite numbers")
        for number in ("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400)
    ],
], ids=["not-an-object", "frame-id", "place-type", "detections", "detection",
        "desc", "subgoal", "unknown-frame-key", "unknown-detection-key", "bbox-nan",
        "bbox-infinity", "bbox--infinity", "bbox-1e999", "bbox-huge-int"])
def test_frames_jsonl_rejects_wrong_types(line, needle):
    with pytest.raises(ValueError, match=needle):
        frames_from_jsonl(line)


def _pairwise_near(boxes):
    """The pairwise nearness test written out, the reference for ``parse_frame``."""
    def iou(a, b):
        ax, ay, aw, ah = a
        bx, by, bw, bh = b
        ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
        iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
        inter = ix * iy
        union = aw * ah + bw * bh - inter
        return inter / union if union > 0 else 0.0

    pairs = []
    for i, (ax, ay, aw, ah) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            bx, by, bw, bh = boxes[j]
            dx, dy = (ax + aw / 2.0) - (bx + bw / 2.0), (ay + ah / 2.0) - (by + bh / 2.0)
            if (dx ** 2 + dy ** 2) ** 0.5 < BETA_PIX or iou(boxes[i], boxes[j]) > BETA_IOU:
                pairs.append((i, j))
    return tuple(pairs)


def _random_boxes(rng, count):
    boxes = []
    for _ in range(count):
        kind = rng.integers(5)
        if kind == 0 and boxes:  # a box seen already
            boxes.append(boxes[int(rng.integers(len(boxes)))])
        elif kind == 1:  # zero area
            x, y, w = (float(v) for v in rng.uniform(0, 800, size=3))
            boxes.append((x, y, w, 0.0) if rng.random() < 0.5 else (x, y, 0.0, w))
        elif kind == 2:  # large, so it overlaps others with far centroids
            x, y = (float(v) for v in rng.uniform(0, 400, size=2))
            w, h = (float(v) for v in rng.uniform(300, 900, size=2))
            boxes.append((x, y, w, h))
        else:
            x, y = (float(v) for v in rng.uniform(0, 800, size=2))
            w, h = (float(v) for v in rng.uniform(5, 120, size=2))
            boxes.append((x, y, w, h))
    return tuple(boxes)


def test_parse_frame_pairs_follow_object_then_connector_order(home, oracle, config):
    rng = np.random.default_rng(5)
    labels = ["sofa", "door", "lamp", "stairs", "rug", "tv", "doorway", "plant"]
    iou_only = 0
    for _ in range(200):
        count = int(rng.integers(1, len(labels) + 1))
        boxes = _random_boxes(rng, count)
        picked = [labels[int(i)] for i in rng.permutation(len(labels))[:count]]
        dets = [det(label, *box) for label, box in zip(picked, boxes)]
        obs = parse_frame(frame(0, dets=dets), home, oracle, config)
        by_ref = {d.label: d.bbox for d in dets if d.area >= 200}
        ordered = [by_ref[label] for label, _, _ in obs.objects + obs.connectors]
        assert obs.near_pairs == _pairwise_near(tuple(ordered))
        for i, j in obs.near_pairs:
            (ax, ay, aw, ah), (bx, by, bw, bh) = ordered[i], ordered[j]
            dx, dy = (ax + aw / 2.0) - (bx + bw / 2.0), (ay + ah / 2.0) - (by + bh / 2.0)
            iou_only += (dx ** 2 + dy ** 2) ** 0.5 >= BETA_PIX
    assert iou_only > 0


# SHA-256 of the concatenated exports of the 20 fixed-run homes (scene seeds
# 2500..2519), each cover-walked from its first place, rendered under
# default_noise() and mapped frame by frame; recorded before the scene kept a
# neighbour table, and re-pinned when the mapper stopped writing object-object
# proximity: each export is the previous one with its object-object IS_NEAR
# edges taken out
MULTI_FLOOR_EXPORTS_SHA256 = "b06bf508e4ed0f5500a1153f5ea040a7e844bf567ef937d3c547f7664a5703c3"


def test_mapper_writes_on_multi_floor_homes(home, oracle, config):
    digest = hashlib.sha256()
    frames_mapped = 0
    for seed in range(2500, 2520):
        scene = generate_home_scene(np.random.default_rng(seed))
        walk = cover_walk(scene, next(iter(scene.places)))
        frames = walk_to_frames(scene, walk, default_noise(), np.random.default_rng((seed, 1)))
        state = MapperState(graph=SceneGraph(home))
        for f in frames:
            state = mapper_step(f, home, state, oracle, config).state
        assert validate_graph(state.graph) == []
        digest.update(state.graph.export().encode())
        frames_mapped += len(frames)
    assert frames_mapped == 260
    assert digest.hexdigest() == MULTI_FLOOR_EXPORTS_SHA256


def test_a_ring_frame_stores_proximity_only_where_a_connector_is(home, oracle, config):
    # every detection sits on one pixel ring, as the simulator renders them, so
    # many pairs are near; two objects get no edge, and every pair with a
    # connector is kept both ways, on a first visit and on a revisit
    labels = ["sofa", "tv", "lamp", "rug", "door", "doorway"]
    dets = [det(label, *box, desc="oak", image_ref=f"img:{label}")
            for label, box in zip(labels, _ring(len(labels)))]
    state = MapperState(graph=SceneGraph(home))
    for fid in range(2):
        result = mapper_step(frame(fid, dets=dets), home, state, oracle, config)
        state, obs = result.state, result.obs
        graph = state.graph
        ids = [graph.find_by_image_ref(ref) for _, _, ref in obs.objects + obs.connectors]
        kinds = [graph.node(n).kind for n in ids]
        near = {(s, d) for s, d, kind in graph.edges() if kind is EdgeKind.IS_NEAR}
        assert any(kinds[i] is kinds[j] is ConceptKind.OBJECT_ROLE for i, j in obs.near_pairs)
        expected = set()
        for i, j in obs.near_pairs:
            if ConceptKind.CONNECTOR in (kinds[i], kinds[j]):
                expected |= {(ids[i], ids[j]), (ids[j], ids[i])}
        assert expected and near == expected
        assert validate_graph(graph) == []
    assert result.revisit


def _associate_leaves_full_scan(graph, place_id, obs, oracle):
    """Leaf association with every candidate row and the near map built up
    front, and every leaf scanned for each image handle (reference).  With no
    open candidate left, match_object is not asked: its answer is None."""
    leaves = graph.leaves_of(place_id)
    candidates = [
        (leaf, node.label, node.desc, graph.object_features(leaf))
        for leaf, node in zip(leaves, map(graph.node, leaves))
    ]
    all_leaf_dets = list(obs.objects) + list(obs.connectors)
    near_map = {}
    for i, j in obs.near_pairs:
        near_map.setdefault(i, []).append(all_leaf_dets[j][:2])
        near_map.setdefault(j, []).append(all_leaf_dets[i][:2])
    assoc = {}
    claimed = set()
    ref_of = {leaf: graph.node(leaf).image_ref for leaf in leaves}
    for idx, (label, desc, image_ref) in enumerate(all_leaf_dets):
        if not image_ref:
            continue
        for leaf in leaves:
            if leaf not in claimed and ref_of[leaf] and ref_of[leaf] == image_ref:
                assoc[idx] = leaf
                claimed.add(leaf)
                if desc:
                    graph.set_leaf(leaf, desc=desc)
                break
    for idx, (label, desc, image_ref) in enumerate(all_leaf_dets):
        if idx in assoc:
            continue
        features = tuple(near_map.get(idx, ()))
        open_candidates = [c for c in candidates if c[0] not in claimed]
        if not open_candidates:
            continue
        match = oracle.match_object((label, desc, features), open_candidates)
        if match is None:
            continue
        assoc[idx] = match
        claimed.add(match)
        graph.set_leaf(match, desc=desc or None, image_ref=image_ref or None)
    return assoc


class _MatchRecorder(RuleOracle):
    def __init__(self):
        super().__init__()
        self.asked = []

    def match_object(self, probe, candidates):
        self.asked.append((probe, list(candidates)))
        return super().match_object(probe, candidates)


# few labels, descs and handles, so that leaves share handles, a handle is
# held by no leaf or by several, and match_object weighs same-label rivals
_object_label = st.sampled_from(["chair", "sofa", "couch"])
_connector_label = st.sampled_from(["door", "doorway"])
_desc = st.sampled_from(["", "red", "oak"])
_ref = st.sampled_from(["", "a", "b", "c"])


@st.composite
def _revisit(draw):
    """A place's leaves, proximity among them, and an observation of it."""
    stored = draw(st.lists(st.tuples(st.booleans(), _desc, _ref), max_size=6))
    stored = [(draw(_connector_label if is_door else _object_label), desc, ref)
              for is_door, desc, ref in stored]
    pairs = [(i, j) for i in range(len(stored)) for j in range(i + 1, len(stored))]
    near = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    objects = draw(st.lists(st.tuples(_object_label, _desc, _ref), max_size=4))
    connectors = draw(st.lists(st.tuples(_connector_label, _desc, _ref), max_size=2))
    count = len(objects) + len(connectors)
    seen = [(i, j) for i in range(count) for j in range(i + 1, count)]
    near_pairs = draw(st.lists(st.sampled_from(seen), unique=True) if seen else st.just([]))
    obs = ParsedObservation(
        place=("Room", "livingroom"), objects=tuple(objects), connectors=tuple(connectors),
        near_pairs=tuple(sorted(near_pairs)),
    )
    return stored, near, obs


def _furnished(home, stored, near):
    graph = SceneGraph(home)
    place = graph.add_node(PlaceNode(cls="Room", label="livingroom"))
    ids = []
    for label, desc, ref in stored:
        if label in ("door", "doorway"):
            leaf = graph.add_node(
                ConnectorNode(cls="Entrance", label=label, desc=desc, image_ref=ref)
            )
            graph.add_edge(place, leaf, EdgeKind.CONNECTS_TO)
        else:
            leaf = graph.add_node(ObjectNode(label=label, desc=desc, image_ref=ref))
            graph.add_edge(place, leaf, EdgeKind.HAS)
        ids.append(leaf)
    for i, j in near:  # a library caller may still store object-object proximity
        graph.add_edge(ids[i], ids[j], EdgeKind.IS_NEAR)
    return graph, place


@settings(max_examples=300, deadline=None)
@given(case=_revisit())
def test_leaf_association_matches_a_full_scan(case):
    home = builtin_schema("home")
    stored, near, obs = case
    results = []
    for associate in (_associate_leaves, _associate_leaves_full_scan):
        graph, place = _furnished(home, stored, near)
        oracle = _MatchRecorder()
        assoc = associate(graph, place, obs, oracle)
        leaves = [(n.id, n.desc, n.image_ref) for n in graph.nodes()
                  if n.kind is not ConceptKind.PLACE]
        refs = {ref: graph.find_by_image_ref(ref) for ref in "abc"}
        results.append((assoc, leaves, refs, oracle.asked))
    assert results[0] == results[1]
