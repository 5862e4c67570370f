import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenenav.graph import ConnectorNode, ObjectNode, PlaceNode, SceneGraph
from scenenav.oracle import rules
from scenenav.oracle.base import Proposal
from scenenav.oracle.rules import RuleOracle, strip_suffix
from scenenav.oracle.tables import OracleTables, SynonymTable, default_tables
from scenenav.schema import CONNECTOR, OBJECT_ROLE, PLACE, EdgeKind, builtin_schema
from scenenav.sim import EpisodeSpec, RunnerConfig, default_noise, generate_home_scene, run_episode


@pytest.fixture
def oracle():
    return RuleOracle()


@pytest.fixture
def home():
    return builtin_schema("home")


def feats(*labels):
    return tuple((l, "") for l in labels)


def test_synonym_groups_must_be_disjoint():
    with pytest.raises(ValueError):
        SynonymTable(groups=[frozenset({"a", "b"}), frozenset({"b", "c"})])


def test_similar_labels_place_names(oracle):
    got = oracle.similar_labels(
        "livingroom",
        ["kitchen_1", "livingroom_1", "livingroom_2", "bedroom_1", "familyroom_2"],
    )
    assert got == [1, 2, 4]  # livingroom_1, livingroom_2, familyroom_2


def test_similar_labels_empty(oracle):
    assert oracle.similar_labels("livingroom", []) == []


def test_similar_labels_without_group_falls_back_to_exact(oracle):
    got = oracle.similar_labels("gym", ["gym_1", "kitchen_1", "gym_2"])
    assert got == [0, 2]


def test_match_place_reflexive(oracle):
    a = feats("bed", "lamp", "dresser")
    decision = oracle.match_place(a, a)
    assert decision.matched
    assert 0.0 < decision.confidence < 1.0


def test_match_place_disjoint(oracle):
    decision = oracle.match_place(feats("bed", "lamp"), feats("sink", "oven"))
    assert not decision.matched
    assert 0.0 < decision.confidence < 0.5


def test_match_place_frozen_overlap_point_six(oracle):
    # unweighted labels chosen so weighted Jaccard = 3/5 = 0.6
    a = feats("vase", "plant", "mirror", "window")
    b = feats("vase", "plant", "mirror", "curtain")
    decision = oracle.match_place(a, b)
    assert decision.matched
    expected = 1.0 / (1.0 + math.exp(-4.0 * (0.6 - 0.5)))
    assert decision.confidence == pytest.approx(expected, abs=1e-12)
    assert decision.confidence == pytest.approx(0.598687660112452, abs=1e-12)
    assert decision.reasoning == "weighted label overlap 0.600 vs threshold 0.5"


def test_match_place_symmetry_fuzz(oracle):
    labels = ["bed", "sofa", "lamp", "sink", "mirror", "vase"]
    for k in range(len(labels)):
        a = feats(*labels[: k + 1])
        b = feats(*labels[k:])
        assert oracle.match_place(a, b).matched == oracle.match_place(b, a).matched
        assert oracle.match_place(a, b).confidence == oracle.match_place(b, a).confidence


def test_match_place_both_empty_matches(oracle):
    assert oracle.match_place(feats(), feats()).matched


def test_classify_elements_paper_frame(oracle, home):
    labels = [
        "livingroom_0", "window_13", "door_2", "doorway_3",
        "table_4", "stairs_10", "wall_8",
    ]
    got = oracle.classify_elements(labels, home)
    assert got == [PLACE, OBJECT_ROLE, CONNECTOR, CONNECTOR, OBJECT_ROLE, CONNECTOR, None]


def test_classify_elements_empty(oracle, home):
    assert oracle.classify_elements([], home) == []


def test_classify_elements_lexicon(oracle, home):
    got = oracle.classify_elements(["fridge", "doorway"], home)
    assert got == [OBJECT_ROLE, CONNECTOR]


def test_classify_without_connector_concepts(oracle):
    market = builtin_schema("supermarket")
    got = oracle.classify_elements(["milk", "gate"], market)
    assert got == [OBJECT_ROLE, OBJECT_ROLE]


def test_classify_memo_leaves_the_connector_test_to_each_schema(oracle, home):
    # the memo keeps a label's kind, not the schema's answer: one oracle asked
    # under a schema with connector concepts, then under one without, classes
    # doors as objects the second time
    labels = ["door_0", "milk_1", "stairs_2"]
    first = oracle.classify_elements(labels, home)
    assert first == [CONNECTOR, OBJECT_ROLE, CONNECTOR]
    second = oracle.classify_elements(labels, builtin_schema("supermarket"))
    assert second == [OBJECT_ROLE, OBJECT_ROLE, OBJECT_ROLE]
    assert oracle.classify_elements(labels, home) == first


def test_classify_memo_answers_as_a_fresh_oracle(oracle, home):
    frames = [
        ["livingroom_0", "window_1", "door_2", "wall_3", "livingroom sofa_4"],
        ["bedroom_0", "door_1", "bed_2", "livingroom sofa_3", "sofa_4"],
        ["sofa_0", "kitchen fridge_1", "doorway_2", "ceiling_3"],
    ]
    for labels in frames * 2:
        for schema in (home, builtin_schema("supermarket")):
            assert oracle.classify_elements(labels, schema) == RuleOracle().classify_elements(
                labels, schema
            )


def test_classify_memo_stays_bounded(oracle, home):
    from scenenav.oracle.rules import _LABEL_MEMO_SIZE

    for i in range(3 * _LABEL_MEMO_SIZE):
        oracle.classify_elements([f"lamp_{i}", f"door_{i}"], home)
    assert 0 < len(oracle._elements) <= _LABEL_MEMO_SIZE


def test_classify_strips_place_prefix(oracle, home):
    # without the place word, "kitchen door_3" is a door and "livingroom wall_2" a wall;
    # the same holds however the detector spells the room, and a place term
    # alone keeps its words and stays a place
    labels = ["livingroom sofa_6", "bathroom mirror_1", "kitchen door_3", "livingroom wall_2",
              "living room door_2", "dining room wall", "guest room stairs_1", "living room"]
    got = oracle.classify_elements(labels, home)
    assert got == [OBJECT_ROLE, OBJECT_ROLE, CONNECTOR, None, CONNECTOR, None, CONNECTOR, PLACE]


@pytest.mark.parametrize("label, bare", [
    ("dining room table", "table"),
    ("guest room bed", "bed"),
    ("living room door_2", "door_2"),
    ("living  room door_2", "door_2"),
    ("kitchen\tdoor_2", "door_2"),
])
def test_a_two_word_place_prefix_is_stripped(oracle, label, bare):
    assert oracle.tables.strip_place_prefix(label) == bare


def test_match_object_paper_example(oracle):
    probe = ("doorframe", "", feats("tv", "chair", "stool"))
    candidates = [
        ("doorframe_2", "doorframe", "", feats("chair", "sofa")),
        ("doorframe_3", "doorframe", "", feats("tv", "chair")),
        ("door_2", "door", "", feats("table", "sink", "lamp")),
    ]
    assert oracle.match_object(probe, candidates) == "doorframe_3"


def test_match_object_empty_and_exact(oracle):
    assert oracle.match_object(("bed", "", feats()), []) is None
    probe = ("bed", "white", feats("lamp", "dresser"))
    candidates = [("bed_1", "bed", "white", feats("lamp", "dresser"))]
    assert oracle.match_object(probe, candidates) == "bed_1"


def test_match_object_label_mismatch_gives_none(oracle):
    probe = ("plant", "", feats("sofa"))
    candidates = [("bed_1", "bed", "", feats("sofa"))]
    assert oracle.match_object(probe, candidates) is None


def test_infer_region_empty_existing_is_new(oracle, home):
    choice = oracle.infer_region(
        home, "Floor", [], ("bedroom_1", "bedroom"), None
    )
    assert choice.is_new
    assert choice.value == "floor"


def test_infer_region_same_without_crossing(oracle, home):
    choice = oracle.infer_region(
        home,
        "Floor",
        [("floor_1", "floor")],
        ("kitchen_1", "kitchen"),
        ("bedroom_1", "bedroom"),
        previous_region="floor_1",
        via_label="door_2",
    )
    assert not choice.is_new
    assert choice.value == "floor_1"


def test_infer_region_new_after_region_connector(oracle, home):
    choice = oracle.infer_region(
        home,
        "Floor",
        [("floor_1", "floor")],
        ("bedroom_2", "bedroom"),
        ("kitchen_1", "kitchen"),
        previous_region="floor_1",
        via_label="stairs_1",
    )
    assert choice.is_new


def test_select_region_cooccurrence(oracle):
    got = oracle.select_region(
        [("kitchen_1", "kitchen", ("fridge", "oven")), ("livingroom_1", "livingroom", ("sofa",))],
        "sink",
    )
    assert got.chosen == "kitchen_1"


def test_select_region_single_candidate(oracle):
    got = oracle.select_region([("pantry_1", "pantry", ())], "sink")
    assert got.chosen == "pantry_1"


def test_select_region_rule_table(oracle):
    got = oracle.select_region(
        [("bedroom_1", "bedroom", ("bed",)), ("bathroom_2", "bathroom", ("mirror",))], "sink"
    )
    assert got.chosen == "bathroom_2"


def test_select_region_direct_evidence_wins(oracle):
    got = oracle.select_region(
        [("bedroom_1", "bedroom", ("bed", "sink")), ("bathroom_2", "bathroom", ("mirror",))],
        "sink",
    )
    assert got.chosen == "bedroom_1"


def test_select_region_first_goal_naming_candidate_wins(oracle):
    got = oracle.select_region(
        [
            ("bedroom_1", "bedroom", ("bed", "sink")),
            ("bathroom_2", "bathroom", ("sink", "towel")),
            ("kitchen_3", "kitchen", ("oven", "sink")),
        ],
        "sink",
    )
    assert got == Proposal(chosen="bedroom_1", reasoning="its contents mention the goal")
    # nothing after the first goal-naming candidate is read
    assert ("sink", "towel") not in oracle._summaries


def test_select_region_goal_naming_candidate_outranks_earlier_tiers(oracle):
    got = oracle.select_region(
        [
            ("floor_1", "floor", ("bedroom", "bathroom")),  # 2.5: holds a likely place
            ("bathroom_2", "bathroom", ("mirror",)),  # 2.0: a likely place
            ("bedroom_3", "bedroom", ("bed", "sink")),  # 3.0: names the goal
        ],
        "sink",
    )
    assert got == Proposal(chosen="bedroom_3", reasoning="its contents mention the goal")


def test_select_region_answers_as_a_fresh_oracle_under_goals_in_turn(oracle):
    candidates = [
        ("kitchen_1", "kitchen", ("oven", "kettle")),
        ("bathroom_2", "washroom", ("towel",)),
        ("bedroom_3", "bedroom", ("bed", "lamp")),
        ("door_4", "door", ()),
        ("floor_5", "floor", ("kitchen", "bedroom")),
    ]
    answers = set()
    for goal in ["sink", "bed", "sink", "toilet", "piano", "bed", "toilet"]:
        got = oracle.select_region(candidates, goal)
        assert got == RuleOracle().select_region(candidates, goal), goal
        answers.add(got.chosen)
    assert answers == {"floor_5", "bedroom_3", "bathroom_2", "door_4"}


@pytest.mark.parametrize("label, hit", [("tv, large", False), ("tv", True)])
def test_select_region_reads_an_object_label_as_goal_match_does(oracle, home, label, hit):
    # a comma inside a label is part of the label: the office's contents name
    # the goal exactly when goal_match takes its object for the goal
    graph = SceneGraph(home)
    places = [graph.add_node(PlaceNode(cls="Room", label=name)) for name in ("kitchen", "office")]
    for place, held in zip(places, ("sofa", label)):
        graph.add_edge(place, graph.add_node(ObjectNode(label=held)), EdgeKind.HAS)
    rows = graph.candidate_rows(places)
    assert (oracle.goal_match([(label, "")], "tv") == 0) is hit
    got = oracle.select_region(rows, "tv")
    assert (got == Proposal(chosen="office_1", reasoning="its contents mention the goal")) is hit
    if not hit:
        assert got == Proposal(
            chosen="kitchen_1", reasoning="no candidate stood out; taking the first"
        )
    assert rows == [("kitchen_1", "kitchen", ("sofa",)), ("office_1", "office", (label,))]


@pytest.mark.parametrize("label", ["door_2", "living room door_2", "livingroom door_2",
                                   "kitchen doorway_1"])
def test_a_place_prefixed_frontier_door_scores_as_a_passage(oracle, home, label):
    # the row of a connector the mapper stored under a place-prefixed label is
    # a passage, as the classifier said when the mapper stored it
    assert oracle.classify_elements([label], home) == [CONNECTOR]
    graph = SceneGraph(home)
    hall = graph.add_node(PlaceNode(cls="Room", label="hall"))
    door = graph.add_node(ConnectorNode(cls="Entrance", label=label))
    graph.add_edge(hall, door, EdgeKind.CONNECTS_TO)
    assert oracle.select_region(graph.candidate_rows([hall, door]), "sink") == Proposal(
        chosen=door, reasoning="an unexplored passage may lead to the goal"
    )


def test_a_connector_label_scores_as_a_passage_under_each_new_goal():
    # under "rope" a door is where the goal is typical; under "sink" the same
    # label is an unexplored passage again, whatever it scored before
    tables = OracleTables.from_dict({"cooccurrence": {"rope": ["door"], "sink": ["kitchen"]}})
    oracle = RuleOracle(tables)
    candidates = [
        ("hall_1", "hall", ("plant",)), ("door_2", "door", ()), ("door_3", "doorway_3", ())
    ]
    assert oracle.select_region(candidates, "rope") == Proposal(
        chosen="door_2", reasoning="the goal is typical for this kind of place"
    )
    for goal in ("sink", "rope", "sink"):
        assert oracle.select_region(candidates, goal) == RuleOracle(tables).select_region(
            candidates, goal
        )
    assert oracle.select_region(candidates[::-1], "sink") == Proposal(
        chosen="door_3", reasoning="an unexplored passage may lead to the goal"
    )


def test_select_object_nearness(oracle):
    objects = [
        ("mirror_2", "mirror", ""),
        ("lamp_1", "lamp", ""),
        ("picture_7", "picture", ""),
        ("toilet_8", "toilet", ""),
        ("sofa_11", "sofa", ""),
    ]
    assert oracle.select_object(objects, "sink").chosen == "mirror_2"


def test_select_object_single_and_table(oracle):
    assert oracle.select_object([("lamp_1", "lamp", "")], "sink").chosen == "lamp_1"
    got = oracle.select_object([("chair_4", "chair", ""), ("bed_9", "bed", "")], "table")
    assert got.chosen == "chair_4"


def test_select_object_goal_itself_preferred(oracle):
    objects = [("mirror_2", "mirror", ""), ("sink_3", "sink", "")]
    assert oracle.select_object(objects, "sink").chosen == "sink_3"


def test_goal_match_substring(oracle):
    assert oracle.goal_match([("bed", "red cotton floral")], "bed") == 0


def test_goal_match_descriptor_conjunction(oracle):
    assert oracle.goal_match([("bed", "blue plain")], "red floral bed") is None
    assert oracle.goal_match([("bed", "red cotton floral")], "red floral bed") == 0


def test_goal_match_synonyms(oracle):
    assert oracle.goal_match([("couch", "gray fabric")], "settee") == 0


def test_goal_match_no_detections(oracle):
    assert oracle.goal_match([], "bed") is None


def test_goal_match_alternating_goals_answers_as_a_fresh_test(oracle):
    objects = [("bed", "red cotton floral"), ("couch", "gray fabric"), ("sofa_2", "red leather"),
               ("bed", "blue plain"), ("sink", "white ceramic"), ("lamp", "")]
    goals = ["bed", "red floral bed", "settee", "red sofa", "bed", "white sink", "settee"]
    for goal in goals * 2:
        is_goal = default_tables().goal_test(goal)
        for obj in objects:
            expected = 0 if is_goal(*obj) else None
            assert oracle.goal_match([obj], goal) == expected
        assert oracle.goal_match(objects, goal) == next(
            (i for i, obj in enumerate(objects) if is_goal(*obj)), None
        )


def test_memoised_goal_match_answers_as_a_fresh_test_on_the_fixed_run_homes():
    from scenenav.oracle.rules import _LABEL_MEMO_SIZE, _MATCH_MEMO_SIZE
    from scenenav.sim.protocol import GOAL_CATEGORIES, BenchmarkProtocol

    protocol = BenchmarkProtocol()
    seeds = range(protocol.scene_seed, protocol.scene_seed + protocol.num_scenes)
    homes = [generate_home_scene(np.random.default_rng(seed)) for seed in seeds]
    objects = sorted({(obj.label, obj.desc) for home in homes
                      for place in home.places.values() for obj in place.objects})
    objects += [(f"{label}_3", desc) for label, desc in objects[::5]]
    synonyms = ["couch", "settee", "refrigerator", "television", "closet", "tub", "houseplant"]
    described = sorted({f"{desc} {label}" for label, desc in objects[::11]}
                       | {f"{desc.split()[0]} {label}" for label, desc in objects[::13]})
    goals = list(GOAL_CATEGORIES) + synonyms + described
    oracle = RuleOracle()
    hits = 0
    for _ in range(2):  # the second pass answers from the memos
        for goal in goals:
            is_goal = default_tables().goal_test(goal)
            for obj in objects:
                expected = is_goal(*obj)
                assert (oracle.goal_match([obj], goal) == 0) is expected, (goal, obj)
                hits += expected
        assert len(oracle._goal_hits) <= _LABEL_MEMO_SIZE
        assert len(oracle._goal_tests) <= _MATCH_MEMO_SIZE
    assert 0 < hits < len(goals) * len(objects)


def test_goal_nouns_name_every_object_the_goal_test_passes():
    from scenenav.sim.protocol import GOAL_CATEGORIES, BenchmarkProtocol

    protocol = BenchmarkProtocol()
    seeds = range(protocol.scene_seed, protocol.scene_seed + protocol.num_scenes)
    objects = sorted({(obj.label, obj.desc) for seed in seeds
                      for place in generate_home_scene(np.random.default_rng(seed)).places.values()
                      for obj in place.objects})
    objects += [(f"{label}_3", desc) for label, desc in objects[::5]]
    tables = default_tables()
    assert tables.goal_nouns("white fabric couch") == {
        "white fabric couch", "fabric couch", "couch", "sofa", "settee"
    }
    hits = 0
    for goal in [*GOAL_CATEGORIES, "settee", "television", "red floral bed", "white sink"]:
        test, nouns = tables.goal_test(goal), tables.goal_nouns(goal)
        for label, desc in objects:
            if test(label, desc):
                hits += 1
                assert strip_suffix(label).lower() in nouns, (goal, label)
    assert hits > len(GOAL_CATEGORIES)


@pytest.mark.parametrize("label", ["sofa_2", "sofa", " sofa ", "sofa_", "a_b", "bed_12 ",
                                   "_3", "x__4", "dining table_7", "", " _1"])
def test_strip_suffix_equals_the_regex_on_every_label(label):
    assert strip_suffix(label) == rules.strip_suffix(label) == re.sub(r"_\d+$", "", label).strip()


def _scanned_crossing(tables, schema, region_cls, via_label):
    """The rule oracle's region-boundary test as it once scanned every concept (reference)."""
    from scenenav.schema import ConceptKind, EdgeKind

    base = strip_suffix(via_label)
    region = schema.concepts.get(region_cls)
    if region is None:
        return False
    for concept in schema.concepts.values():
        if concept.kind not in (ConceptKind.PLACE, ConceptKind.CONNECTOR):
            continue
        name = concept.name.lower()
        if not (tables.canonical(name) == tables.canonical(base) or name == base.lower()):
            continue
        linked = any(
            (resolved := schema.resolve(t)) is not None and resolved.name == region_cls
            for t in concept.targets(EdgeKind.CONNECTS_TO)
        )
        linked_back = any(
            (resolved := schema.resolve(t)) is not None and resolved.name == concept.name
            for t in region.targets(EdgeKind.CONNECTS_TO)
        )
        if linked or linked_back:
            return True
    return False


@pytest.mark.parametrize("name", ["home", "studio", "supermarket", "office", "mall",
                                  "apartment", "hospital", "airport"])
def test_region_boundary_answers_as_the_full_concept_scan(name):
    schema = builtin_schema(name)
    oracle = RuleOracle()
    names = list(schema.concepts)
    labels = names + [f"{n.lower()}_2" for n in names] + [
        "doorway_4", "staircase", "Stairway_1", "hall_2", "elevator", "sofa_1", "", "  "]
    crossings = 0
    for region_cls in names + ["Nowhere"]:
        for label in labels:
            want = _scanned_crossing(oracle.tables, schema, region_cls, label)
            # a known previous region is kept unless the traversal crosses a boundary
            choice = oracle.infer_region(schema, region_cls, [("r_1", "r")], ("p_2", "p"),
                                         ("p_1", "p"), previous_region="r_1", via_label=label)
            assert choice.is_new is want, (region_cls, label)
            crossings += want
            if label.strip():  # a place word before the label changes nothing
                prefixed = oracle.infer_region(
                    schema, region_cls, [("r_1", "r")], ("p_2", "p"), ("p_1", "p"),
                    previous_region="r_1", via_label=f"living room {label}",
                )
                assert prefixed == choice, (region_cls, label)
    if name in ("home", "office", "mall"):  # a Floor linked to its stairs or escalators
        assert crossings > 0


_label = st.sampled_from(
    ["bed", "sofa", "lamp", "mirror", "door", "sink", "chair", "table", "vase", "plant"]
)


@settings(max_examples=80, deadline=None)
@given(
    goal=_label,
    candidates=st.lists(st.tuples(_label, _label), min_size=1, max_size=6),
)
def test_select_closure_fuzz(goal, candidates):
    oracle = RuleOracle()
    cands = [(f"{label}_{i}", label, desc) for i, (label, desc) in enumerate(candidates)]
    ids = {c[0] for c in cands}
    assert oracle.select_region([(i, l, (d,)) for i, l, d in cands], goal).chosen in ids
    assert oracle.select_object(cands, goal).chosen in ids
    probe = (goal, "", feats(*[l for _, l in candidates]))
    match_candidates = [(cid, label, desc, feats(desc)) for cid, label, desc in cands]
    got = oracle.match_object(probe, match_candidates)
    assert got is None or got in ids


def _select_region_full_scan(oracle, candidates, goal):
    """select_region as a loop that scores every candidate, the reference for its early stop.

    Every label is canonicalised afresh, with no memo, and a candidate is a
    passage when the classifier calls its label a connector.
    """
    tables = oracle.tables
    want_places = tables.cooccurs(goal)
    goal_canon = tables.canonical_base(goal)
    best = candidates[0]
    best_score = -1.0
    for cand in candidates:
        cand_id, label, labels = cand
        contents = {tables.canonical_base(l) for l in labels}
        score = 0.0
        if goal_canon in contents:
            score = 3.0
        elif not contents.isdisjoint(want_places):
            score = 2.5
        elif tables.canonical_base(label) in want_places:
            score = 2.0
        elif oracle._element_kind(label) is CONNECTOR:
            score = 1.0
        if score > best_score:
            best_score = score
            best = cand
    reasons = {
        3.0: "its contents mention the goal",
        2.5: "it holds a place where the goal is typical",
        2.0: "the goal is typical for this kind of place",
        1.0: "an unexplored passage may lead to the goal",
    }
    return Proposal(
        chosen=best[0],
        reasoning=reasons.get(best_score, "no candidate stood out; taking the first"),
    )


# labels and contents that reach every score tier for the goals below, with
# synonyms so that equal canonical labels are spelt differently, connectors
# behind a place word, and labels holding a comma, which stay one label
_region_label = st.sampled_from(
    ["kitchen", "bathroom", "washroom", "bedroom", "lounge", "office", "floor",
     "door", "doorway", "stairs", "sofa", "living room door_2", "kitchen stairs",
     "bathroom, small"]
)
_summary_entry = st.sampled_from(
    ["sink", "towel", "bed", "sofa", "couch", "lamp", "mirror", "oven",
     "kitchen", "bathroom", "restroom", "bedroom", "lounge", "hallway", "",
     "sink, large", "bed, lamp", "kitchen, bathroom"]
)


@st.composite
def _region_query(draw):
    goal = draw(st.sampled_from(["sink", "towel", "bed", "couch", "lamp", "plant"]))
    rows = draw(st.lists(
        st.tuples(_region_label, st.lists(_summary_entry, max_size=4)),
        min_size=1, max_size=12,
    ))
    # plant the goal in one candidate's contents at any position, or nowhere beyond the draws
    planted = draw(st.none() | st.integers(0, len(rows) - 1))
    candidates = []
    for i, (label, entries) in enumerate(rows):
        if i == planted:
            entries = entries + [goal]
        candidates.append((f"{label}_{i}", label, tuple(entries)))
    return candidates, goal


@settings(max_examples=300, deadline=None)
@given(query=_region_query())
def test_select_region_early_stop_matches_a_full_scan(query):
    candidates, goal = query
    assert RuleOracle().select_region(candidates, goal) == _select_region_full_scan(
        RuleOracle(), candidates, goal
    )


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(_label, max_size=6),
    b=st.lists(_label, max_size=6),
)
def test_confidence_always_in_open_interval(a, b):
    oracle = RuleOracle()
    decision = oracle.match_place(feats(*a), feats(*b))
    assert 0.0 < decision.confidence < 1.0


def test_rule_backend_is_deterministic():
    a, b = RuleOracle(), RuleOracle()
    fa = feats("bed", "lamp")
    fb = feats("bed", "mirror")
    assert a.match_place(fa, fb) == b.match_place(fa, fb)
    assert a.similar_labels("livingroom", ["lounge_1"]) == b.similar_labels(
        "livingroom", ["lounge_1"]
    )


def test_tables_from_dict_roundtrip():
    tables = OracleTables.from_dict(
        {"synonyms": [["couch", "sofa"]], "cooccurrence": {"sink": ["kitchen"]}}
    )
    assert tables.canonical("sofa") == "couch"
    assert tables.cooccurs("sink") == frozenset({"kitchen"})
    assert default_tables().is_large("sofa")


def test_tables_are_fixed_at_construction(oracle):
    a, b = feats("zorb"), feats("blip")
    assert not oracle.match_place(a, b).matched
    assert oracle.similar_labels("zorb", ["blip_1"]) == []
    custom = RuleOracle(OracleTables.from_dict({"synonyms": [["zorb", "blip"]]}))
    assert custom.match_place(a, b).matched
    assert custom.similar_labels("zorb", ["blip_1"]) == [0]
    with pytest.raises(AttributeError):
        custom.tables = default_tables()


def test_overriding_match_place_sees_every_call():
    from scenenav.topofilter import FilterConfig, FilterState, ObsRecord, step

    class Counting(RuleOracle):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def match_place(self, a, b):
            self.calls += 1
            return super().match_place(a, b)

    counting = Counting()
    obs = ObsRecord(place_label="bedroom", features=feats("bed", "lamp"))
    # every particle opens its first cell with this observation: they hold one
    # hypothesis, so the filter asks its question once; the override sees that
    # call and every direct one, though the base class memoises the answer
    step(FilterState.create(FilterConfig(num_particles=20), seed=0), obs, counting)
    assert counting.calls == 1
    counting.match_place(obs.features, obs.features)
    assert counting.calls == 2


def test_memos_stay_bounded(oracle):
    from scenenav.oracle.rules import _LABEL_MEMO_SIZE, _MATCH_MEMO_SIZE

    candidates = [f"room{i}_{i}" for i in range(5000)]
    oracle.similar_labels("room0", candidates)
    for i in range(1000):
        oracle.match_place(feats(f"thing{i}"), feats("thing0"))
    assert len(oracle._canon) <= _LABEL_MEMO_SIZE
    assert len(oracle._weights) <= _LABEL_MEMO_SIZE
    assert len(oracle._matches) <= _MATCH_MEMO_SIZE


def test_summary_memo_stays_bounded(oracle):
    from scenenav.oracle.rules import _LABEL_MEMO_SIZE

    for i in range(3 * _LABEL_MEMO_SIZE):
        oracle.select_region([(f"den_{i}", "den", ("lamp", f"rug_{i}"))], "sink")
    assert 0 < len(oracle._summaries) <= _LABEL_MEMO_SIZE


def test_default_tables_built_once_per_process():
    assert default_tables() is default_tables()
    assert RuleOracle().tables is RuleOracle().tables
    assert default_tables() == OracleTables.from_dict({})


def test_shared_default_tables_answer_like_fresh_ones(home):
    config = RunnerConfig(noise=default_noise())
    for seed in range(3):
        scene = generate_home_scene(np.random.default_rng(seed))
        goal = sorted(scene.object_labels())[0]
        spec = EpisodeSpec(scene=scene, start=next(iter(scene.places)), goal=goal,
                           horizon=20, seed=seed)
        shared = run_episode(spec, home, RuleOracle(), config)
        fresh = run_episode(spec, home, RuleOracle(OracleTables.from_dict({})), config)
        assert shared == fresh


def test_bag_memo_stays_bounded(oracle):
    from scenenav.oracle.rules import _LABEL_MEMO_SIZE

    stored = [("lamp_1", "lamp", "", feats("lamp", "rug"))]
    for i in range(3 * _LABEL_MEMO_SIZE):
        oracle.match_object(("lamp", "", feats("lamp", f"rug{i}")), stored)
    assert 0 < len(oracle._bags) <= _LABEL_MEMO_SIZE


def test_full_memo_clears_then_recomputes_an_equal_answer(oracle):
    from scenenav.oracle.rules import _LABEL_MEMO_SIZE, _Memo

    computed = []
    memo = _Memo(lambda key: computed.append(key) or [key], 2)
    first = memo["a"]
    assert memo["b"] == ["b"] and memo["a"] is first and computed == ["a", "b"]
    assert memo["c"] == ["c"] and dict(memo) == {"c": ["c"]}  # full: cleared, then stored
    again = memo["a"]
    assert again == first and again is not first and computed == ["a", "b", "c", "a"]

    couch = oracle._canon["couch_1"]
    for i in range(_LABEL_MEMO_SIZE):
        oracle._canon[f"rug_{i}"]
    assert "couch_1" not in oracle._canon
    assert oracle._canon["couch_1"] == couch == RuleOracle()._canon["couch_1"]


def test_oracles_on_different_tables_never_share_an_answer():
    custom = RuleOracle(OracleTables.from_dict({"synonyms": [["zorb", "blip"]]}))
    default = RuleOracle()
    for _ in range(2):
        assert default.similar_labels("zorb", ["blip_1", "zorb_2"]) == [1]
        assert custom.similar_labels("zorb", ["blip_1", "zorb_2"]) == [0, 1]
        assert default.goal_match([("blip_1", "")], "zorb") is None
        assert custom.goal_match([("blip_1", "")], "zorb") == 0
        assert default.match_place(feats("zorb"), feats("blip")).matched is False
        assert custom.match_place(feats("zorb"), feats("blip")).matched is True


def test_an_oracle_that_answered_every_decision_is_freed_by_reference_count(home):
    import gc
    import weakref

    oracle = RuleOracle()
    a, b = feats("bed", "lamp"), feats("bed", "rug")
    oracle.similar_labels("sofa", ["couch_1", "bed_2"])
    oracle.match_place(a, b)
    oracle.classify_elements(["bedroom_0", "door_1", "bed_2"], home)
    oracle.match_object(("bed", "", a), [("bed_1", "bed", "", b)])
    oracle.infer_region(home, "Floor", [("floor_0", "Floor")], ("bedroom_0", "bedroom"), None,
                        via_label="stairs_3")
    oracle.select_region([("bedroom_1", "bedroom", ("bed", "sink"))], "sink")
    oracle.select_region([("door_1", "door", ())], "sink")
    oracle.select_object([("bed_1", "bed", "")], "bed")
    oracle.goal_match([("bed_2", "")], "bed")
    # every memo the oracle holds, found rather than listed, so a new one is covered too
    memos = {name: memo for name, memo in vars(oracle).items() if isinstance(memo, rules._Memo)}
    assert len(memos) > 1 and [name for name, memo in memos.items() if not memo] == []
    ref = weakref.ref(oracle)
    gc.disable()  # only reference counting may free it
    try:
        del oracle
        assert ref() is None
    finally:
        gc.enable()


class _MemoFree(RuleOracle):
    """Bags and overlaps as they were computed before the bag memo (reference)."""

    def _bag(self, features):
        return Counter(self.tables.canonical(strip_suffix(l)) for l, _ in features)

    def _overlap(self, a, b):
        if not a and not b:
            return 1.0
        inter = union = 0.0
        for label in sorted(a.keys() | b.keys()):
            w = rules.LARGE_WEIGHT if self.tables.is_large(label) else 1.0
            inter += w * min(a[label], b[label])
            union += w * max(a[label], b[label])
        return inter / union if union else 0.0

    def match_place(self, a, b):
        return self._decide_match(a, b)


class _Recording(RuleOracle):
    def __init__(self):
        super().__init__()
        self.asked = []

    def match_object(self, probe, candidates):
        answer = super().match_object(probe, candidates)
        self.asked.append(("match_object", (probe, list(candidates)), answer))
        return answer

    def match_place(self, a, b):
        answer = super().match_place(a, b)
        self.asked.append(("match_place", (a, b), answer))
        return answer


def test_memoised_decisions_equal_memo_free_ones_on_a_sweep(home, sweep):
    from scenenav.graph import SceneGraph
    from scenenav.mapper import MapperConfig, MapperState, mapper_step

    recording = _Recording()
    state = MapperState(graph=SceneGraph(home))
    for frame in sweep.sweep_frames(sweep.sweep_home(160, 0), 0):
        state = mapper_step(frame, home, state, recording, MapperConfig()).state
    reference = _MemoFree()
    for method, args, answer in recording.asked:
        assert getattr(reference, method)(*args) == answer, (method, args)
    asked = Counter(method for method, _, _ in recording.asked)
    assert asked["match_object"] > 1000 and asked["match_place"] > 500
    assert recording._bags


def _counter_overlap(oracle, a, b):
    """Weighted Jaccard as computed before bags held weight x count: Counter
    bags, labels sorted, each weight read and multiplied per call."""
    if not a and not b:
        return 1.0
    inter = union = 0.0
    for label in sorted(a.keys() | b.keys()):
        w = rules.LARGE_WEIGHT if oracle.tables.is_large(label) else 1.0
        x, y = a.get(label, 0), b.get(label, 0)
        if x > y:
            x, y = y, x
        inter += w * x
        union += w * y
    return inter / union if union else 0.0


class _CounterBags(RuleOracle):
    """The rule oracle with Counter bags and the per-call weighted formula."""

    def _bag(self, features):
        return Counter(self.tables.canonical(strip_suffix(l)) for l, _ in features)

    def _overlap(self, a, b):
        return _counter_overlap(self, a, b)

    def match_place(self, a, b):
        return self._decide_match(a, b)


# large objects, their synonyms and suffixed ids, and ordinary labels
_BAG_POOL = ["sofa", "couch_3", "settee", "bed", "bed_2", "wardrobe", "closet", "fridge",
             "refrigerator_1", "table", "lamp", "vase", "plant", "rug", "mirror", "sink"]


def _random_features(rng):
    # up to 24 labels, so a label can recur often enough that adding its weight
    # count times would differ from multiplying by the count
    size = int(rng.integers(0, 25))
    labels = [_BAG_POOL[int(k)] for k in rng.integers(len(_BAG_POOL), size=size)]
    return tuple((l, str(int(rng.integers(3)))) for l in labels)


@pytest.mark.parametrize("large_weight", [3.0, 2.7, 0.1, 1e-3])
def test_weighted_bags_match_the_counter_formula_bit_for_bit(large_weight, monkeypatch):
    monkeypatch.setattr(rules, "LARGE_WEIGHT", large_weight)
    weighted, reference = RuleOracle(), _CounterBags()
    rng = np.random.default_rng(int(large_weight * 1000))
    partial = 0
    for _ in range(400):
        a, b = _random_features(rng), _random_features(rng)
        overlap = weighted._overlap(weighted._bag(a), weighted._bag(b))
        expected = reference._overlap(reference._bag(a), reference._bag(b))
        assert overlap.hex() == expected.hex(), (a, b)
        assert weighted.match_place(a, b) == reference.match_place(a, b)
        partial += 0.0 < overlap < 1.0
        candidates = [
            (f"obj_{i}", a[0][0] if a else "lamp", "", _random_features(rng))
            for i in range(int(rng.integers(1, 5)))
        ]
        probe = (a[0][0] if a else "lamp", "", a)
        assert weighted.match_object(probe, candidates) == reference.match_object(
            probe, candidates
        )
    assert partial > 100  # most pairs share some labels but not all
