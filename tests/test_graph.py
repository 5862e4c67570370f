import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenenav.graph import (
    ConnectorNode,
    EdgeRuleError,
    GraphError,
    GraphCorruptionError,
    ObjectNode,
    PlaceNode,
    RegionNode,
    SceneGraph,
    UnknownNodeError,
    hop_distances,
    import_graph,
    validate_graph,
)
from scenenav.schema import ConceptKind, EdgeKind, builtin_schema


@pytest.fixture
def home():
    return builtin_schema("home")


@pytest.fixture
def graph(home):
    return SceneGraph(home)


def test_add_node_counts_per_prefix(graph):
    assert graph.add_node(PlaceNode(cls="Room", label="livingroom")) == "livingroom_1"
    assert graph.add_node(PlaceNode(cls="Room", label="livingroom")) == "livingroom_2"
    assert graph.add_node(PlaceNode(cls="Room", label="kitchen")) == "kitchen_1"


def test_add_node_rejects_foreign_class(graph):
    with pytest.raises(EdgeRuleError):
        graph.add_node(PlaceNode(cls="Aisle", label="dairy"))


def test_a_class_the_schema_lacks_raises_on_every_add(graph):
    # the graph keeps what it resolves of a class only when the schema holds it
    # with the node's kind, so a bad class is refused each time it is offered
    bad = [
        lambda: PlaceNode(cls="Aisle", label="dairy"),
        lambda: ConnectorNode(cls="Room", label="door"),
        lambda: PlaceNode(cls="Entrance", label="door"),
        lambda: RegionNode(cls="Room", label="floor"),
    ]
    for make in bad:
        with pytest.raises(EdgeRuleError):
            graph.add_node(make())
    room = graph.add_node(PlaceNode(cls="Room", label="kitchen"))
    door = graph.add_node(ConnectorNode(cls="Entrance", label="door"))
    graph.add_node(RegionNode(cls="Floor", label="floor"))
    sink = graph.add_node(ObjectNode(label="sink"))
    graph.add_edge(room, door, EdgeKind.CONNECTS_TO)
    graph.add_edge(room, sink, EdgeKind.HAS)
    before = (graph.version, len(graph.nodes()))
    for _ in range(2):
        for make in bad:
            with pytest.raises(EdgeRuleError, match="concept of the active schema"):
                graph.add_node(make())
    assert (graph.version, len(graph.nodes())) == before
    assert [n for n in graph.nodes() if graph.node_layer(n.id) == 2] == [
        graph.node(room), graph.node(door)
    ]
    assert graph.add_node(PlaceNode(cls="Room", label="kitchen")) == "kitchen_2"
    assert validate_graph(graph) == []


def test_has_edge_direction_enforced(graph):
    room = graph.add_node(PlaceNode(cls="Room", label="livingroom"))
    sofa = graph.add_node(ObjectNode(label="sofa"))
    graph.add_edge(room, sofa, EdgeKind.HAS)
    assert graph.has_edge(room, sofa, EdgeKind.HAS)
    with pytest.raises(EdgeRuleError):
        graph.add_edge(sofa, room, EdgeKind.HAS)


def test_connects_to_stored_both_ways(graph):
    room = graph.add_node(PlaceNode(cls="Room", label="livingroom"))
    door = graph.add_node(ConnectorNode(cls="Entrance", label="door"))
    graph.add_edge(room, door, EdgeKind.CONNECTS_TO)
    assert graph.has_edge(room, door, EdgeKind.CONNECTS_TO)
    assert graph.has_edge(door, room, EdgeKind.CONNECTS_TO)


def test_duplicate_edge_is_noop(graph):
    room = graph.add_node(PlaceNode(cls="Room", label="livingroom"))
    sofa = graph.add_node(ObjectNode(label="sofa"))
    graph.add_edge(room, sofa, EdgeKind.HAS)
    graph.add_edge(room, sofa, EdgeKind.HAS)
    assert len(graph.edges()) == 1


def test_self_loop_rejected(graph):
    room = graph.add_node(PlaceNode(cls="Room", label="livingroom"))
    with pytest.raises(EdgeRuleError):
        graph.add_edge(room, room, EdgeKind.CONNECTS_TO)


def test_unknown_node_raises(graph):
    with pytest.raises(UnknownNodeError):
        graph.add_edge("ghost_1", "ghost_2", EdgeKind.HAS)
    with pytest.raises(UnknownNodeError):
        graph.object_features("ghost_1")


def test_object_features_isolated_object(graph):
    obj = graph.add_node(ObjectNode(label="lamp"))
    assert graph.object_features(obj) == ()


def test_object_features_of_place(graph):
    room = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
    bed = graph.add_node(ObjectNode(label="bed", desc="white wood"))
    lamp = graph.add_node(ObjectNode(label="lamp", desc="brown metal"))
    graph.add_edge(room, bed, EdgeKind.HAS)
    graph.add_edge(room, lamp, EdgeKind.HAS)
    feats = graph.object_features(room)
    assert feats == (("bed", "white wood"), ("lamp", "brown metal"))


def test_object_features_three_near_neighbors(graph):
    # hand-enumerated fixture: door is near tv, chair and stool
    room = graph.add_node(PlaceNode(cls="Room", label="livingroom"))
    door = graph.add_node(ConnectorNode(cls="Entrance", label="door"))
    ids = {}
    for label, desc in [("tv", "black"), ("chair", "wood"), ("stool", "metal")]:
        ids[label] = graph.add_node(ObjectNode(label=label, desc=desc))
        graph.add_edge(room, ids[label], EdgeKind.HAS)
        graph.add_edge(door, ids[label], EdgeKind.IS_NEAR)
    feats = graph.object_features(door)
    assert feats == (("tv", "black"), ("chair", "wood"), ("stool", "metal"))


def test_place_features_end_with_its_connectors_and_follow_their_desc(graph):
    room = graph.add_node(PlaceNode(cls="Room", label="livingroom"))
    sofa = graph.add_node(ObjectNode(label="sofa", desc="red"))
    graph.add_edge(room, sofa, EdgeKind.HAS)
    door = graph.add_node(ConnectorNode(cls="Entrance", label="door"))
    graph.add_edge(door, room, EdgeKind.CONNECTS_TO)
    assert graph.object_features(room) == (("sofa", "red"), ("door", ""))
    graph.set_leaf(door, desc="oak")
    assert graph.object_features(room) == (("sofa", "red"), ("door", "oak"))
    # a place it links to directly is no leaf, and no feature
    hall = graph.add_node(PlaceNode(cls="Room", label="hall"))
    graph.add_edge(room, hall, EdgeKind.CONNECTS_TO)
    assert graph.object_features(room) == (("sofa", "red"), ("door", "oak"))
    assert graph.object_features(hall) == ()


def test_object_features_of_a_region_raises(graph):
    floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
    room = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
    graph.add_edge(floor, room, EdgeKind.CONTAINS)
    with pytest.raises(GraphError, match="region"):
        graph.object_features(floor)


def _home_fixture(graph):
    rooms = [graph.add_node(PlaceNode(cls="Room", label=f"room{i}")) for i in range(3)]
    doors = [graph.add_node(ConnectorNode(cls="Entrance", label="door")) for _ in range(2)]
    graph.add_edge(rooms[0], doors[0], EdgeKind.CONNECTS_TO)
    graph.add_edge(doors[0], rooms[1], EdgeKind.CONNECTS_TO)
    graph.add_edge(rooms[1], doors[1], EdgeKind.CONNECTS_TO)
    graph.add_edge(doors[1], rooms[2], EdgeKind.CONNECTS_TO)
    return rooms, doors


def test_connectivity_subgraph_counts(graph):
    assert SceneGraph(graph.schema).connectivity_subgraph() == {}
    rooms, doors = _home_fixture(graph)
    floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
    graph.add_edge(floor, rooms[0], EdgeKind.CONTAINS)
    sub = graph.connectivity_subgraph()
    assert len(sub) == 5
    assert floor not in sub
    assert sub[rooms[0]] == {doors[0]: 1.0}
    assert set(sub[doors[0]]) == {rooms[0], rooms[1]}


def test_a_floor_stairs_link_stays_out_of_the_place_layer(graph):
    # the schema lets a Floor connect to Stairs, but a region is no part of
    # the place/connector layer: the link is stored both ways and no view of
    # that layer counts it
    rooms, doors = _home_fixture(graph)
    floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
    stairs = graph.add_node(PlaceNode(cls="Stairs", label="stairs"))
    graph.add_edge(stairs, rooms[2], EdgeKind.CONNECTS_TO)
    graph.add_edge(floor, stairs, EdgeKind.CONNECTS_TO)
    assert graph.has_edge(stairs, floor, EdgeKind.CONNECTS_TO)
    sub = graph.connectivity_subgraph()
    assert floor not in sub
    assert sub[stairs] == {rooms[2]: 1.0}
    assert graph.connector_place_counts() == {doors[0]: 2, doors[1]: 2}
    assert dict(hop_distances(graph, stairs)) == {
        stairs: 0, rooms[2]: 1, doors[1]: 2, rooms[1]: 3, doors[0]: 4, rooms[0]: 5,
    }
    assert hop_distances(graph, floor) == {}
    assert graph.candidate_rows([floor, stairs]) == [(floor, "floor", ()), (stairs, "stairs", ())]
    assert validate_graph(graph) == []


def test_parent_region(graph):
    floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
    room = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
    orphan = graph.add_node(PlaceNode(cls="Room", label="kitchen"))
    graph.add_edge(floor, room, EdgeKind.CONTAINS)
    assert graph.parent_region(room) == floor
    assert graph.parent_region(orphan) is None


def test_second_parent_rejected_then_corruption_detected(graph):
    f1 = graph.add_node(RegionNode(cls="Floor", label="floor"))
    f2 = graph.add_node(RegionNode(cls="Floor", label="floor"))
    room = graph.add_node(PlaceNode(cls="Room", label="bedroom"))
    graph.add_edge(f1, room, EdgeKind.CONTAINS)
    with pytest.raises(EdgeRuleError):
        graph.add_edge(f2, room, EdgeKind.CONTAINS)
    # bypass the guard to simulate corruption
    graph._insert(f2, room, EdgeKind.CONTAINS)
    with pytest.raises(GraphCorruptionError):
        graph.parent_region(room)


def test_export_roundtrip_fixed_point(graph, home):
    rooms, doors = _home_fixture(graph)
    sofa = graph.add_node(ObjectNode(label="sofa", desc="gray", image_ref="img:1"))
    graph.add_edge(rooms[0], sofa, EdgeKind.HAS)
    graph.add_edge(doors[0], sofa, EdgeKind.IS_NEAR)
    exported = graph.export("structured")
    again = import_graph(exported, home)
    assert again.export("structured") == exported


def test_export_empty_graph(graph, home):
    exported = graph.export("structured")
    assert import_graph(exported, home).export("structured") == exported


def test_dot_export_clusters_per_layer(graph):
    rooms, _ = _home_fixture(graph)
    floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
    graph.add_edge(floor, rooms[0], EdgeKind.CONTAINS)
    sofa = graph.add_node(ObjectNode(label="sofa"))
    graph.add_edge(rooms[0], sofa, EdgeKind.HAS)
    dot = graph.export("dot")
    for layer in (1, 2, 3):
        assert f"subgraph cluster_{layer}" in dot


def test_validate_graph_clean_fixture(graph):
    _home_fixture(graph)
    assert validate_graph(graph) == []


def _tampered_fixture(graph, what):
    rooms, doors = _home_fixture(graph)
    floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
    graph.add_edge(floor, rooms[0], EdgeKind.CONTAINS)
    sofa = graph.add_node(ObjectNode(label="sofa"))
    graph.add_edge(rooms[0], sofa, EdgeKind.HAS)
    graph.add_edge(doors[0], sofa, EdgeKind.IS_NEAR)
    assert validate_graph(graph) == []  # which also builds the door's row
    if what == "place row":
        graph._rows[rooms[0]] = (rooms[0], "room0", ("sofa", "tv"))
    elif what == "region row":
        graph._rows[floor] = (floor, "floor", ())
    elif what == "connector row":
        graph._rows[doors[0]] = (doors[0], "door", ())
    elif what == "place count":
        graph._place_counts[doors[1]] = 0
    elif what == "class":
        # an unlinked object, so no edge of it breaks a schema rule as well
        graph.node(graph.add_node(ObjectNode(label="lamp"))).cls = "Entrance"
    else:
        del graph._adj[rooms[2]][doors[1]]
    return validate_graph(graph)


@pytest.mark.parametrize("what,needle", [
    ("place row", "candidate row ('room0_1', 'room0', ('sofa', 'tv'))"),
    ("region row", "candidate row ('floor_1', 'floor', ())"),
    ("connector row", "candidate row ('door_1', 'door', ())"),
    ("place count", "the connector place counts"),
    ("class", "lamp_1 has class 'Entrance'"),
    ("adjacency", "the connectivity adjacency"),
])
def test_validate_graph_reports_a_tampered_view(graph, what, needle):
    problems = _tampered_fixture(graph, what)
    assert len(problems) == 1 and problems[0].startswith(needle)


def test_validate_graph_reports_every_edge_fault_in_edge_order(graph):
    rooms, doors = _home_fixture(graph)
    floors = [graph.add_node(RegionNode(cls="Floor", label="floor")) for _ in range(2)]
    graph.add_edge(floors[0], rooms[0], EdgeKind.CONTAINS)
    sofa = graph.add_node(ObjectNode(label="sofa"))
    graph.add_edge(rooms[0], sofa, EdgeKind.HAS)
    # bypass the guards to simulate corruption
    graph._out[rooms[0]][EdgeKind.CONNECTS_TO].append(doors[0])
    graph._insert(sofa, sofa, EdgeKind.IS_NEAR)
    graph._insert(sofa, rooms[1], EdgeKind.HAS)
    graph._insert(rooms[0], rooms[2], EdgeKind.CONNECTS_TO)
    graph._insert(floors[1], sofa, EdgeKind.CONTAINS)
    graph._insert(floors[1], rooms[0], EdgeKind.CONTAINS)
    assert validate_graph(graph) == [
        "duplicate edge ('room0_1', 'door_1', <EdgeKind.CONNECTS_TO: 'connects_to'>)",
        "connectivity edge room0_1 -> room2_1 lacks its reverse",
        "edge ('floor_2', 'sofa_1', <EdgeKind.CONTAINS: 'contains'>) violates schema"
        " (Floor -> Object)",
        "containment floor_2 -> sofa_1 skips a layer",
        "self-loop on sofa_1",
        "edge ('sofa_1', 'room1_1', <EdgeKind.HAS: 'has'>) violates schema (Object -> Room)",
        "room0_1 has multiple parents ['floor_1', 'floor_2']",
    ]
    graph._out[sofa][EdgeKind.HAS].append("ghost_1")
    with pytest.raises(UnknownNodeError):
        validate_graph(graph)


@st.composite
def _random_home_graph(draw):
    graph = SceneGraph(builtin_schema("home"))
    n_rooms = draw(st.integers(min_value=1, max_value=5))
    rooms = [graph.add_node(PlaceNode(cls="Room", label=f"r{i}")) for i in range(n_rooms)]
    n_objs = draw(st.integers(min_value=0, max_value=8))
    for i in range(n_objs):
        obj = graph.add_node(ObjectNode(label=f"o{i}"))
        owner = draw(st.sampled_from(rooms))
        graph.add_edge(owner, obj, EdgeKind.HAS)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        a, b = draw(st.sampled_from(rooms)), draw(st.sampled_from(rooms))
        if a != b:
            graph.add_edge(a, b, EdgeKind.CONNECTS_TO)
    return graph


@settings(max_examples=60, deadline=None)
@given(_random_home_graph())
def test_random_graphs_stay_valid(graph):
    assert validate_graph(graph) == []


@settings(max_examples=40, deadline=None)
@given(_random_home_graph())
def test_place_features_match_brute_force(graph):
    for place in graph.places():
        brute = tuple(
            (graph.node(leaf).label, graph.node(leaf).desc)
            for leaf in _full_scan_leaves(graph, place.id)
        )
        assert graph.object_features(place.id) == brute


# -- maintained views against from-scratch rebuilds ---------------------------


def _rebuilt_connectivity(graph):
    """The adjacency as it was once rebuilt on every call (reference)."""
    layer2 = [
        n.id for n in graph._nodes.values() if isinstance(n, (PlaceNode, ConnectorNode))
    ]
    members = set(layer2)
    adj = {nid: {} for nid in layer2}
    for nid in layer2:
        for nb in graph._out[nid].get(EdgeKind.CONNECTS_TO, ()):
            if nb in members:
                adj[nid][nb] = 1.0
    return adj


def _scanned_has_edge(graph, src, dst, kind):
    """``has_edge`` as it once scanned the target list (reference)."""
    return dst in graph._out.get(src, {}).get(kind, ())


def _assert_has_edge_matches_scan(graph, src, dst):
    for kind in EdgeKind:
        for a, b in ((src, dst), (dst, src), (src, "ghost_1")):
            assert graph.has_edge(a, b, kind) is _scanned_has_edge(graph, a, b, kind)


def _assert_views_match_rebuild(graph):
    adj, ref = graph.connectivity_subgraph(), _rebuilt_connectivity(graph)
    assert list(adj) == list(ref)
    for nid in ref:
        assert list(adj[nid]) == list(ref[nid])
    assert adj == ref
    everything = list(graph._nodes.values())
    assert graph.nodes() == everything
    assert graph.places() == [n for n in everything if isinstance(n, PlaceNode)]
    for kind in ConceptKind:
        assert graph.nodes(kind) == [n for n in everything if n.kind is kind]
    for n in everything:
        concept = graph.schema.concepts[n.cls]
        assert concept.kind is n.kind and graph.node_layer(n.id) == concept.layer_id


def _random_node(schema, rng, i):
    kind = rng.choice(list(ConceptKind))
    if kind is ConceptKind.OBJECT_ROLE:
        return ObjectNode(label=rng.choice(["sofa", "tv", "sink"]), desc=f"d{i % 3}")
    concepts = schema.by_kind(kind)
    if not concepts:
        return None
    cls = rng.choice(concepts).name
    label = rng.choice(["a", "b", "c"])
    if kind is ConceptKind.PLACE:
        return PlaceNode(cls=cls, label=label)
    if kind is ConceptKind.CONNECTOR:
        return ConnectorNode(cls=cls, label=label)
    return RegionNode(cls=cls, label=label)


@pytest.mark.parametrize("schema_name", ["home", "supermarket", "airport"])
@pytest.mark.parametrize("seed", range(4))
def test_maintained_views_equal_rebuild(schema_name, seed):
    import random

    rng = random.Random(seed)
    graph = SceneGraph(builtin_schema(schema_name))
    _assert_views_match_rebuild(graph)
    ids, added = [], []
    for step in range(700):
        if not ids or rng.random() < 0.15:
            node = _random_node(graph.schema, rng, step)
            if node is not None:
                ids.append(graph.add_node(node))
        elif added and rng.random() < 0.2:
            # repeat an edge, or ask for its reverse
            src, dst, kind = rng.choice(added)
            if rng.random() < 0.5:
                src, dst = dst, src
            rng.randrange(2)  # where a weight was once drawn: each seed keeps its walk
            try:
                graph.add_edge(src, dst, kind)
            except EdgeRuleError:
                pass
            _assert_has_edge_matches_scan(graph, src, dst)
        else:
            src, dst = rng.choice(ids), rng.choice(ids)
            kind = rng.choice(list(EdgeKind))
            rng.randrange(4)  # as above
            try:
                graph.add_edge(src, dst, kind)
            except EdgeRuleError:
                continue
            finally:
                _assert_has_edge_matches_scan(graph, src, dst)
            added.append((src, dst, kind))
        if step % 50 == 0:
            _assert_views_match_rebuild(graph)
            assert validate_graph(graph) == []
    _assert_views_match_rebuild(graph)
    assert validate_graph(graph) == []
    adj = graph.connectivity_subgraph()
    assert sum(map(len, adj.values())) > 10
    reloaded = import_graph(graph.export(), graph.schema)
    _assert_views_match_rebuild(reloaded)
    assert validate_graph(reloaded) == []


@st.composite
def _random_mixed_graph(draw):
    """A home graph with nodes of every kind and offered edges of every kind."""
    graph = SceneGraph(builtin_schema("home"))
    makers = [
        lambda i: PlaceNode(cls="Room", label=f"r{i % 3}"),
        lambda i: ConnectorNode(cls="Entrance", label="door"),
        lambda i: ObjectNode(label=f"o{i % 3}"),
        lambda i: RegionNode(cls="Floor", label="floor"),
    ]
    n_nodes = draw(st.integers(min_value=1, max_value=8))
    ids = [graph.add_node(draw(st.sampled_from(makers))(i)) for i in range(n_nodes)]
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        src, dst = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        try:
            graph.add_edge(src, dst, draw(st.sampled_from(list(EdgeKind))))
        except EdgeRuleError:
            pass
    return graph


def _assert_has_edge_is_membership(graph):
    """``has_edge`` over every pair of ids, both ways, an unknown id on either side."""
    stored = set(graph.edges())
    ids = [n.id for n in graph.nodes()] + ["ghost_1"]
    for src in ids:
        for dst in ids:
            for kind in EdgeKind:
                assert graph.has_edge(src, dst, kind) is ((src, dst, kind) in stored)
    return stored


@settings(max_examples=80, deadline=None)
@given(_random_mixed_graph())
def test_has_edge_answers_exactly_the_stored_edges(graph):
    _assert_has_edge_is_membership(graph)


def test_has_edge_answers_exactly_the_stored_edges_of_every_kind(graph):
    room, door, sofa, tv = _near_fixture(graph)
    floor = graph.add_node(RegionNode(cls="Floor", label="floor"))
    graph.add_edge(floor, room, EdgeKind.CONTAINS)
    stored = _assert_has_edge_is_membership(graph)
    assert {kind for _, _, kind in stored} == set(EdgeKind)
    # the symmetric kinds answer both ways, the others one way only
    assert graph.has_edge(sofa, door, EdgeKind.IS_NEAR)
    assert graph.has_edge(door, room, EdgeKind.CONNECTS_TO)
    assert not graph.has_edge(sofa, room, EdgeKind.HAS)
    assert not graph.has_edge(room, floor, EdgeKind.CONTAINS)


def test_a_blank_label_numbers_an_object_as_node_and_any_other_node_by_class(graph):
    assert graph.add_node(ObjectNode(label="")) == "node_1"
    assert graph.add_node(ObjectNode(label="  ")) == "node_2"
    assert graph.add_node(PlaceNode(cls="Room", label="")) == "Room_1"
    assert graph.add_node(RegionNode(cls="Floor", label=" ")) == "Floor_1"
    assert graph.add_node(ConnectorNode(cls="Entrance", label="")) == "Entrance_1"
    assert graph.node("node_1").cls == "Object"


def test_an_object_on_a_schema_without_an_object_concept_is_refused():
    import json

    from scenenav.schema import parse_schema

    schema = parse_schema(json.dumps({"Room": {"layer_type": "Place", "layer_id": 2}}))
    graph = SceneGraph(schema)
    with pytest.raises(EdgeRuleError, match="schema declares no object concept"):
        graph.add_node(ObjectNode(label="sofa"))
    assert (graph.version, graph.nodes()) == (0, [])


def test_node_views_are_copies(graph):
    rooms, _ = _home_fixture(graph)
    graph.places().clear()
    graph.nodes(ConceptKind.CONNECTOR).clear()
    assert [p.id for p in graph.places()] == rooms
    assert len(graph.nodes(ConceptKind.CONNECTOR)) == 2


def _full_scan_summary(graph, node_id):
    """A candidate's contents' labels, from copied neighbour lists (reference)."""
    node = graph.node(node_id)
    if node.kind is ConceptKind.REGION:
        contents = graph.out_neighbors(node_id, EdgeKind.CONTAINS)
    elif node.kind is ConceptKind.PLACE:
        contents = graph.out_neighbors(node_id, EdgeKind.HAS)
    else:
        contents = dict.fromkeys(graph.out_neighbors(node_id, EdgeKind.IS_NEAR)
                                 + graph.in_neighbors(node_id, EdgeKind.IS_NEAR))
    return tuple(graph.node(c).label for c in contents)


def _full_scan_frontier(graph):
    """Frontier connectors as the planner once found them per query (reference)."""
    adj = _rebuilt_connectivity(graph)
    out = []
    for node in graph.nodes(ConceptKind.CONNECTOR):
        place_sides = [
            nb for nb in adj[node.id] if graph.node(nb).kind is not ConceptKind.CONNECTOR
        ]
        if len(place_sides) <= 1:
            out.append(node.id)
    return out


def _assert_rows_match_full_scan(graph):
    """Every place's, region's and connector's row, in the order asked for."""
    ids = [
        n.id for n in graph.nodes()
        if n.kind in (ConceptKind.PLACE, ConceptKind.REGION, ConceptKind.CONNECTOR)
    ]
    expected = [(n, graph.node(n).label, _full_scan_summary(graph, n)) for n in ids]
    assert graph.candidate_rows(ids) == expected
    assert graph.candidate_rows(reversed(ids)) == expected[::-1]


def _assert_summaries_and_frontier_match_full_scan(graph):
    from scenenav.planner import _frontier_connectors

    _assert_rows_match_full_scan(graph)
    adj = _rebuilt_connectivity(graph)
    assert graph.connector_place_counts() == {
        c.id: sum(isinstance(graph.node(nb), PlaceNode) for nb in adj[c.id])
        for c in graph.nodes(ConceptKind.CONNECTOR)
    }
    assert list(graph.connector_place_counts()) == [
        c.id for c in graph.nodes(ConceptKind.CONNECTOR)
    ]
    assert _frontier_connectors(graph) == _full_scan_frontier(graph)


@pytest.mark.parametrize("schema_name", ["home", "supermarket", "airport"])
@pytest.mark.parametrize("seed", range(4))
def test_maintained_summaries_and_frontier_equal_full_scan(schema_name, seed, monkeypatch):
    # run the random add_node/add_edge walk of test_maintained_views_equal_rebuild,
    # checking the summaries and the frontier wherever it checks its views
    checked = []

    def check(graph):
        _assert_summaries_and_frontier_match_full_scan(graph)
        checked.append(graph)

    monkeypatch.setitem(globals(), "_assert_views_match_rebuild", check)
    test_maintained_views_equal_rebuild(schema_name, seed)
    original, reloaded = checked[-2], checked[-1]
    assert any(row[2] for row in original.candidate_rows(p.id for p in original.places()))
    assert reloaded.export() == original.export()
    assert reloaded.version == original.version
    adj, ref = reloaded.connectivity_subgraph(), original.connectivity_subgraph()
    assert [(k, list(v.items())) for k, v in adj.items()] == [
        (k, list(v.items())) for k, v in ref.items()
    ]
    # every place's, region's and connector's row is written on insert
    assert reloaded._rows == original._rows
    assert set(original._rows) == {
        n.id for n in original.nodes() if n.kind is not ConceptKind.OBJECT_ROLE
    }
    assert reloaded.connector_place_counts() == original.connector_place_counts()


def test_unit_weight_export_names_no_weight(graph):
    _home_fixture(graph)
    assert '"weight"' not in graph.export()


def _import_without(graph, src, dst, relation):
    """Import the graph's export with its ``src -> dst`` entry left out."""
    import json

    raw = json.loads(graph.export())
    raw["edges"] = [e for e in raw["edges"] if (e["src"], e["dst"]) != (src, dst)]
    with pytest.raises(GraphCorruptionError, match=f"{relation} edge .* lacks its reverse"):
        import_graph(json.dumps(raw), graph.schema)


def test_import_rejects_connectivity_without_reverse(graph):
    rooms, doors = _home_fixture(graph)
    _import_without(graph, doors[0], rooms[0], "connectivity")


def test_import_rejects_proximity_without_reverse(graph):
    room, door, sofa, tv = _near_fixture(graph)
    _import_without(graph, sofa, door, "proximity")


@pytest.mark.parametrize("case", ["renumbered-id", "unknown-id", "repeated-id"])
def test_import_binds_edges_by_document_id_only(home, case):
    import json

    kitchen = {"id": "a", "cls": "Room", "label": "kitchen"}
    oven = {"id": "b", "cls": "Object", "label": "oven"}
    sink = {"id": "a", "cls": "Object", "label": "sink"}
    # kitchen_1 and oven_1 are the ids the rebuilt graph gives the nodes, not
    # ids of the document
    renumbered = {"src": "kitchen_1", "dst": "oven_1", "kind": "has"}
    unknown = {"src": "a", "dst": "ghost", "kind": "has"}
    nodes, edge, bad = {
        "renumbered-id": ([kitchen, oven], renumbered, renumbered),
        "unknown-id": ([kitchen, oven], unknown, unknown),
        "repeated-id": ([kitchen, oven, sink], {"src": "a", "dst": "b", "kind": "has"}, sink),
    }[case]
    document = json.dumps({"nodes": nodes, "edges": [edge]})
    with pytest.raises(GraphCorruptionError) as info:
        import_graph(document, home)
    assert repr(bad) in str(info.value)


@pytest.mark.parametrize("weight", [10.0, 0.5, 0, "1", True])
def test_import_rejects_a_non_unit_weight(graph, weight):
    import json

    _home_fixture(graph)
    raw = json.loads(graph.export())
    edge = raw["edges"][0]
    edge["weight"] = weight
    with pytest.raises(GraphCorruptionError) as info:
        import_graph(json.dumps(raw), graph.schema)
    assert f"{edge['src']} -> {edge['dst']}" in str(info.value)
    assert repr(weight) in str(info.value)


@pytest.mark.parametrize("weight", [1, 1.0])
def test_import_accepts_an_explicit_unit_weight(graph, weight):
    import json

    _home_fixture(graph)
    raw = json.loads(graph.export())
    for edge in raw["edges"]:
        edge["weight"] = weight
    assert import_graph(json.dumps(raw), graph.schema).export() == graph.export()


def test_import_rejects_a_document_that_is_not_an_object(home):
    with pytest.raises(GraphCorruptionError, match="JSON object, not list"):
        import_graph("[]", home)


def test_import_rejects_a_node_without_cls(graph):
    import json

    _home_fixture(graph)
    raw = json.loads(graph.export())
    node = raw["nodes"][1]
    del node["cls"]
    with pytest.raises(GraphCorruptionError, match="has no 'cls'") as info:
        import_graph(json.dumps(raw), graph.schema)
    assert repr(node["id"]) in str(info.value)


def test_import_rejects_an_edge_without_dst(graph):
    import json

    _home_fixture(graph)
    raw = json.loads(graph.export())
    edge = raw["edges"][0]
    del edge["dst"]
    with pytest.raises(GraphCorruptionError, match="has no 'dst'") as info:
        import_graph(json.dumps(raw), graph.schema)
    assert repr(edge["src"]) in str(info.value)


def test_import_rejects_an_unknown_edge_kind(graph):
    import json

    _home_fixture(graph)
    raw = json.loads(graph.export())
    raw["edges"][0]["kind"] = "is_under"
    with pytest.raises(GraphCorruptionError, match="unknown kind") as info:
        import_graph(json.dumps(raw), graph.schema)
    assert "'is_under'" in str(info.value)


@pytest.mark.parametrize("section,index,key,value,needle", [
    ("nodes", 0, "id", ["room0"], "non-string 'id'"),
    ("nodes", 0, "cls", ["Room"], "non-string 'cls'"),
    ("nodes", 0, "label", 5, "non-string 'label'"),
    ("nodes", 0, "desc", 3, "non-string desc or image_ref"),
    ("nodes", 3, "image_ref", 3, "non-string desc or image_ref"),
    ("nodes", 0, "aliases", 5, "aliases that are not strings"),
    ("nodes", 0, "aliases", ["den", 5], "aliases that are not strings"),
    ("edges", 0, "src", ["room0"], "non-string 'src'"),
    ("edges", 0, "dst", 1, "non-string 'dst'"),
    ("edges", 0, "kind", ["connects_to"], "non-string 'kind'"),
    (None, None, "nodes", "abc", "'nodes' is a JSON list, not 'abc'"),
    (None, None, "edges", {"src": "a"}, "'edges' is a JSON list, not"),
    ("nodes", 0, "layer", 7, "puts a Room at layer 7, not at its schema layer 2"),
], ids=["node-id-list", "node-cls-list", "node-label-number", "node-desc-number",
        "node-image-ref-number", "node-aliases-number", "node-aliases-mixed", "edge-src-list",
        "edge-dst-number", "edge-kind-list", "nodes-string", "edges-object", "node-layer-other"])
def test_import_rejects_a_wrongly_typed_field(graph, section, index, key, value, needle):
    import json

    _home_fixture(graph)
    raw = json.loads(graph.export())
    entry = raw if section is None else raw[section][index]
    entry[key] = value
    with pytest.raises(GraphCorruptionError, match=re.escape(needle)) as info:
        import_graph(json.dumps(raw), graph.schema)
    assert repr(entry if section is not None else value) in str(info.value)


def test_import_rejects_a_boolean_layer(graph):
    import json

    rooms, _ = _home_fixture(graph)
    sofa = graph.add_node(ObjectNode(label="sofa"))
    graph.add_edge(rooms[0], sofa, EdgeKind.HAS)
    raw = json.loads(graph.export())
    entry = next(e for e in raw["nodes"] if e["id"] == sofa)
    assert entry["layer"] == 1
    entry["layer"] = True
    with pytest.raises(GraphCorruptionError, match="at layer True") as info:
        import_graph(json.dumps(raw), graph.schema)
    assert repr(entry) in str(info.value)


def test_connector_place_counts_ignore_connector_neighbours():
    import json

    from scenenav.planner import _frontier_connectors
    from scenenav.schema import parse_schema

    schema = parse_schema(json.dumps({
        "Room": {"layer_type": "Place", "layer_id": 2, "connects_to": ["Door", "Stair"]},
        "Door": {"layer_type": "Connector", "layer_id": 2, "connects_to": ["Room", "Stair"]},
        "Stair": {"layer_type": "Connector", "layer_id": 2, "connects_to": ["Room", "Door"]},
        "Object": {"layer_id": 1},
    }))
    graph = SceneGraph(schema)
    a, b = (graph.add_node(PlaceNode(cls="Room", label=l)) for l in ("hall", "den"))
    door = graph.add_node(ConnectorNode(cls="Door", label="door"))
    stair = graph.add_node(ConnectorNode(cls="Stair", label="stair"))
    graph.add_edge(a, door, EdgeKind.CONNECTS_TO)
    graph.add_edge(door, stair, EdgeKind.CONNECTS_TO)
    graph.add_edge(stair, a, EdgeKind.CONNECTS_TO)
    graph.add_edge(b, stair, EdgeKind.CONNECTS_TO)
    assert graph.connector_place_counts() == {door: 1, stair: 2}
    assert _frontier_connectors(graph) == [door] == _full_scan_frontier(graph)


# -- kept leaf views, the image_ref index and the hop tree against full scans --


def _full_scan_features(graph, node_id):
    """``object_features`` as it was once rebuilt on every call (reference)."""
    node = graph.node(node_id)

    def pair(nid):
        nb = graph.node(nid)
        return (nb.label, getattr(nb, "desc", ""))

    if isinstance(node, (ObjectNode, ConnectorNode)):
        seen = []
        for nb in graph.out_neighbors(node_id, EdgeKind.IS_NEAR):
            if nb not in seen:
                seen.append(nb)
        for nb in graph.in_neighbors(node_id, EdgeKind.IS_NEAR):
            if nb not in seen:
                seen.append(nb)
        return tuple(pair(nb) for nb in seen)
    return tuple(pair(leaf) for leaf in _full_scan_leaves(graph, node_id))


def _full_scan_find_by_image_ref(graph, image_ref):
    """``find_by_image_ref`` as it once scanned every node (reference)."""
    if not image_ref:
        return None
    for node in graph._nodes.values():
        if getattr(node, "image_ref", "") == image_ref:
            return node.id
    return None


_REFS = ["", "img:a", "img:b", "img:c", "img:d"]


def _full_scan_leaves(graph, place_id):
    """A place's leaves read off the full edge list: objects, then connectors (reference)."""
    out = [(dst, kind) for src, dst, kind in graph.edges() if src == place_id]
    objects = [dst for dst, kind in out if kind is EdgeKind.HAS]
    connectors = [
        dst for dst, kind in out
        if kind is EdgeKind.CONNECTS_TO and graph.node(dst).kind is ConceptKind.CONNECTOR
    ]
    return objects + connectors


def _assert_leaf_views_match_full_scan(graph):
    for node in graph.nodes():
        if node.kind is not ConceptKind.REGION:
            assert graph.object_features(node.id) == _full_scan_features(graph, node.id)
        if node.kind is ConceptKind.PLACE:
            assert graph.leaves_of(node.id) == _full_scan_leaves(graph, node.id)
        if node.kind is not ConceptKind.OBJECT_ROLE:
            row = (node.id, node.label, _full_scan_summary(graph, node.id))
            assert graph.candidate_rows([node.id]) == [row]
    for ref in _REFS:
        assert graph.find_by_image_ref(ref) == _full_scan_find_by_image_ref(graph, ref)


@pytest.mark.parametrize("schema_name", ["home", "supermarket", "airport"])
@pytest.mark.parametrize("seed", range(4))
def test_leaf_views_equal_full_scan_under_set_leaf(schema_name, seed):
    # the random add_node/add_edge walk of test_maintained_views_equal_rebuild,
    # with set_leaf writes mixed in and the views read often enough that a
    # memo survives from one write to the next
    import random

    rng = random.Random(seed)
    graph = SceneGraph(builtin_schema(schema_name))
    ids, added, leaves = [], [], []
    for step in range(500):
        roll = rng.random()
        if not ids or roll < 0.15:
            node = _random_node(graph.schema, rng, step)
            if node is None:
                continue
            if isinstance(node, (ObjectNode, ConnectorNode)):
                node.image_ref = rng.choice(_REFS)
            ids.append(graph.add_node(node))
            if isinstance(node, (ObjectNode, ConnectorNode)):
                leaves.append(node.id)
        elif leaves and roll < 0.35:
            graph.set_leaf(
                rng.choice(leaves),
                desc=rng.choice([None, "", "red", "blue", "d1"]),
                image_ref=rng.choice([None] + _REFS),
            )
        elif added and roll < 0.45:
            src, dst, kind = rng.choice(added)
            try:
                graph.add_edge(dst, src, kind)
            except EdgeRuleError:
                pass
            _assert_has_edge_matches_scan(graph, src, dst)
        else:
            src, dst = rng.choice(ids), rng.choice(ids)
            kind = rng.choice(list(EdgeKind))
            try:
                graph.add_edge(src, dst, kind)
            except EdgeRuleError:
                continue
            finally:
                _assert_has_edge_matches_scan(graph, src, dst)
            added.append((src, dst, kind))
        if step % 5 == 0:
            _assert_leaf_views_match_full_scan(graph)
    _assert_leaf_views_match_full_scan(graph)
    assert any(graph.object_features(leaf) for leaf in leaves)
    assert any(graph.find_by_image_ref(ref) for ref in _REFS)
    reloaded = import_graph(graph.export(), graph.schema)
    _assert_leaf_views_match_full_scan(reloaded)
    assert reloaded.export() == graph.export()


def test_leaves_of_skips_place_links_and_keeps_edge_order(home):
    from scenenav.mapper import Detection, DetectionFrame, MapperConfig, MapperState, mapper_step
    from scenenav.oracle.rules import RuleOracle

    def frame(fid, label, *dets, subgoal=None):
        spread = [Detection(l, d, (i * 400.0, 0.0, 20.0, 20.0), ref)
                  for i, (l, d, ref) in enumerate(dets)]
        return DetectionFrame(fid, "Room", label, tuple(spread), subgoal)

    # no subgoal names the passage walked, so the mapper links the rooms
    # directly (the market-style link); each room sees the one door by its
    # image handle, so the second room reuses the first room's connector
    frames = [
        frame(0, "livingroom", ("sofa", "", ""), ("door", "oak", "img:door")),
        frame(1, "kitchen", ("door", "", "img:door"), ("sink", "", ""), ("stairs", "", "")),
        frame(2, "bedroom", ("bed", "", ""), ("door", "", "img:door2")),
        frame(3, "livingroom", ("sofa", "", ""), ("door", "oak", "img:door"),
              ("door", "pine", "img:door3")),
    ]
    state, oracle = MapperState(graph=SceneGraph(home)), RuleOracle()
    for f in frames:
        state = mapper_step(f, home, state, oracle, MapperConfig()).state
    graph = state.graph
    assert state.place_history == ["livingroom_1", "kitchen_1", "bedroom_1", "livingroom_1"]
    assert graph.has_edge("livingroom_1", "kitchen_1", EdgeKind.CONNECTS_TO)
    assert graph.out_neighbors("livingroom_1", EdgeKind.CONNECTS_TO) == [
        "door_1", "kitchen_1", "door_3", "bedroom_1",
    ]
    assert graph.leaves_of("livingroom_1") == ["sofa_1", "door_1", "door_3"]
    assert graph.leaves_of("kitchen_1") == ["sink_1", "door_1", "stairs_1"]
    assert graph.leaves_of("bedroom_1") == ["bed_1", "door_2"]
    for place in graph.places():
        assert graph.leaves_of(place.id) == _full_scan_leaves(graph, place.id)
    assert graph.leaves_of("livingroom_1") is not graph.leaves_of("livingroom_1")
    with pytest.raises(UnknownNodeError):
        graph.leaves_of("ghost_1")


def test_set_leaf_shares_one_pair_and_keeps_version(graph):
    room = graph.add_node(PlaceNode(cls="Room", label="kitchen"))
    sink, stove = (graph.add_node(ObjectNode(label=l, desc="red")) for l in ("sink", "stove"))
    for obj in (sink, stove):
        graph.add_edge(room, obj, EdgeKind.HAS)
    graph.add_edge(sink, stove, EdgeKind.IS_NEAR)
    before = (graph.object_features(room), graph.object_features(stove), graph.version)
    graph.set_leaf(sink, desc="blue", image_ref="img:sink")
    assert graph.version == before[2]
    assert graph.object_features(room) == (("sink", "blue"), ("stove", "red"))
    assert graph.object_features(stove) == (("sink", "blue"),)
    assert before[0] == (("sink", "red"), ("stove", "red"))
    assert graph.object_features(room)[0] is graph.object_features(stove)[0]
    assert graph.node(sink).desc == "blue"
    assert graph.find_by_image_ref("img:sink") == sink
    graph.set_leaf(sink, image_ref="")
    assert graph.find_by_image_ref("img:sink") is None
    with pytest.raises(GraphError):
        graph.set_leaf(room, desc="x")
    with pytest.raises(UnknownNodeError):
        graph.set_leaf("ghost_1", desc="x")


def test_find_by_image_ref_returns_first_inserted_holder(graph):
    a, b, c = (graph.add_node(ObjectNode(label=l)) for l in ("a", "b", "c"))
    graph.set_leaf(c, image_ref="img:x")
    graph.set_leaf(a, image_ref="img:x")
    assert graph.find_by_image_ref("img:x") == a
    graph.set_leaf(a, image_ref="img:y")
    assert graph.find_by_image_ref("img:x") == c
    graph.set_leaf(b, image_ref="img:x")
    assert graph.find_by_image_ref("img:x") == b
    assert graph.find_by_image_ref("") is None


def _reference_dijkstra(graph, frm, to):
    """``find_path`` as a Dijkstra pass over the adjacency (reference)."""
    import heapq

    adj = graph.connectivity_subgraph()
    if frm not in adj or to not in adj:
        return None
    if frm == to:
        return []
    dist, prev, counter = {frm: 0.0}, {}, 0
    heap, visited = [(0.0, counter, frm)], set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == to:
            break
        for nb, weight in adj[node].items():
            if d + weight < dist.get(nb, float("inf")):
                dist[nb] = d + weight
                prev[nb] = node
                counter += 1
                heapq.heappush(heap, (d + weight, counter, nb))
    if to not in visited:
        return None
    path = [to]
    while path[-1] != frm:
        path.append(prev[path[-1]])
    return path[::-1][1:]


def _reference_hops(graph, source):
    adj = graph.connectivity_subgraph()
    if source not in adj:
        return {}
    dist, frontier = {source: 0}, [source]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def _random_layer2_graph(rng, n_nodes, n_edges):
    graph = SceneGraph(builtin_schema("home"))
    ids = []
    for i in range(n_nodes):
        if rng.random() < 0.3:
            ids.append(graph.add_node(ConnectorNode(cls="Entrance", label="door")))
        else:
            ids.append(graph.add_node(PlaceNode(cls="Room", label=f"r{i % 4}")))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    rng.shuffle(pairs)
    for a, b in pairs[:n_edges]:
        if rng.random() < 0.5:
            a, b = b, a
        try:
            graph.add_edge(a, b, EdgeKind.CONNECTS_TO)
        except EdgeRuleError:
            pass
    return graph, ids


@pytest.mark.parametrize("seed", range(6))
def test_find_path_equals_dijkstra_on_unit_weight_graphs(seed):
    import random

    from scenenav.graph import hop_distances
    from scenenav.planner import find_path

    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(2, 14)
        graph, ids = _random_layer2_graph(rng, n, rng.randint(0, 2 * n))
        sources = rng.sample(ids, min(len(ids), 4))
        for src in sources:
            assert dict(hop_distances(graph, src)) == _reference_hops(graph, src)
            for dst in ids:
                assert find_path(graph, src, dst) == _reference_dijkstra(graph, src, dst)


def test_a_write_between_two_reads_renews_the_tree(graph):
    from scenenav.graph import hop_distances
    from scenenav.planner import find_path

    rooms = [graph.add_node(PlaceNode(cls="Room", label=f"r{i}")) for i in range(4)]
    for a, b in zip(rooms, rooms[1:]):
        graph.add_edge(a, b, EdgeKind.CONNECTS_TO)
    first = hop_distances(graph, rooms[0])
    assert first[rooms[3]] == 3
    assert find_path(graph, rooms[0], rooms[3]) == rooms[1:]
    with pytest.raises(TypeError):
        first[rooms[3]] = 0
    graph.add_edge(rooms[0], rooms[3], EdgeKind.CONNECTS_TO)
    assert hop_distances(graph, rooms[0])[rooms[3]] == 1
    assert find_path(graph, rooms[0], rooms[3]) == [rooms[3]]
    late = graph.add_node(PlaceNode(cls="Room", label="late"))
    assert late not in hop_distances(graph, rooms[0])
    graph.add_edge(rooms[3], late, EdgeKind.CONNECTS_TO)
    assert find_path(graph, rooms[0], late) == [rooms[3], late]
    assert hop_distances(graph, rooms[2]) == _reference_hops(graph, rooms[2])
    assert find_path(graph, rooms[0], late) == [rooms[3], late]


# -- proximity is stored both ways, like connectivity --------------------------


def _near_fixture(graph):
    """A room holding a sofa and a tv, its door near the sofa; every feature
    read, so each is memoised."""
    room = graph.add_node(PlaceNode(cls="Room", label="livingroom"))
    door = graph.add_node(ConnectorNode(cls="Entrance", label="door"))
    graph.add_edge(room, door, EdgeKind.CONNECTS_TO)
    sofa, tv = (graph.add_node(ObjectNode(label=l, desc="red")) for l in ("sofa", "tv"))
    for obj in (sofa, tv):
        graph.add_edge(room, obj, EdgeKind.HAS)
    graph.add_edge(door, sofa, EdgeKind.IS_NEAR)
    for node in graph.nodes():
        graph.object_features(node.id)
    return room, door, sofa, tv


def _write_state(graph):
    """What a write may change: the edges, the version, which memos are kept and every kept view."""
    return (
        graph.export(), graph.version, list(graph._features), list(graph._rows.items()),
        [(k, list(v.items())) for k, v in graph._adj.items()],
        list(graph._place_counts.items()), graph.edges(),
        {n: {k: list(v) for k, v in by_kind.items()} for n, by_kind in graph._in.items()},
        [(n.id, n.cls) for n in graph.nodes()],
    )


def test_is_near_is_stored_both_ways_as_one_mutation(graph):
    room, door, sofa, tv = _near_fixture(graph)
    before = graph.version
    graph.add_edge(tv, door, EdgeKind.IS_NEAR)
    assert graph.version == before + 1
    assert graph.has_edge(tv, door, EdgeKind.IS_NEAR)
    assert graph.has_edge(door, tv, EdgeKind.IS_NEAR)
    assert graph.out_neighbors(door, EdgeKind.IS_NEAR) == [sofa, tv]
    assert graph.in_neighbors(door, EdgeKind.IS_NEAR) == [sofa, tv]
    assert graph.out_neighbors(tv, EdgeKind.IS_NEAR) == [door]
    assert graph.out_neighbors(sofa, EdgeKind.IS_NEAR) == [door]
    assert validate_graph(graph) == []


@pytest.mark.parametrize("reverse", [False, True], ids=["as-stored", "reversed"])
def test_offering_a_stored_near_pair_again_is_a_noop(graph, reverse):
    room, door, sofa, tv = _near_fixture(graph)
    state = _write_state(graph)
    graph.add_edge(*((sofa, door) if reverse else (door, sofa)), EdgeKind.IS_NEAR)
    assert _write_state(graph) == state


@pytest.mark.parametrize("reverse", [False, True], ids=["object-first", "door-first"])
def test_a_near_pair_drops_both_ends_features_and_writes_the_connector_row(graph, reverse):
    room, door, sofa, tv = _near_fixture(graph)

    def rebuilt_row():
        near = graph.out_neighbors(door, EdgeKind.IS_NEAR)
        return (door, "door", tuple(graph.node(n).label for n in near))

    assert graph._rows[door] == rebuilt_row() == (door, "door", ("sofa",))
    graph.add_edge(*((door, tv) if reverse else (tv, door)), EdgeKind.IS_NEAR)
    assert tv not in graph._features and door not in graph._features
    assert room in graph._features and sofa in graph._features and room in graph._rows
    assert graph._rows[door] == rebuilt_row() == (door, "door", ("sofa", "tv"))
    lamp = graph.add_node(ObjectNode(label="lamp"))
    graph.add_edge(*((door, lamp) if reverse else (lamp, door)), EdgeKind.IS_NEAR)
    assert graph._rows[door] == rebuilt_row() == (door, "door", ("sofa", "tv", "lamp"))
    # an object is never a candidate and keeps no row
    assert tv not in graph._rows
    assert graph.object_features(door) == (("sofa", "red"), ("tv", "red"), ("lamp", ""))
    assert graph.object_features(tv) == (("door", ""),)
    assert graph.candidate_rows([door]) == [(door, "door", ("sofa", "tv", "lamp"))]
    assert validate_graph(graph) == []


# a refused edge of each kind: its ends, and the error and message it raises
_REFUSED = {
    "forbidden": ("is_near", "livingroom_1", "tv_1", EdgeRuleError,
                  "schema forbids is_near edge Room -> Object"),
    "forbidden-reversed": ("is_near", "tv_1", "livingroom_1", EdgeRuleError,
                           "schema forbids is_near edge Object -> Room"),
    "self-loop": ("is_near", "tv_1", "tv_1", EdgeRuleError, "self-loop on 'tv_1' rejected"),
    "unknown-node": ("is_near", "tv_1", "ghost_1", UnknownNodeError, "no node 'ghost_1'"),
    "unknown-node-reversed": ("is_near", "ghost_1", "tv_1", UnknownNodeError,
                              "no node 'ghost_1'"),
    "connects_to-forbidden": ("connects_to", "livingroom_1", "sofa_1", EdgeRuleError,
                              "schema forbids connects_to edge Room -> Object"),
    "connects_to-self-loop": ("connects_to", "door_1", "door_1", EdgeRuleError,
                              "self-loop on 'door_1' rejected"),
    "connects_to-unknown-node": ("connects_to", "livingroom_1", "ghost_1", UnknownNodeError,
                                 "no node 'ghost_1'"),
    "has-forbidden": ("has", "door_1", "sofa_1", EdgeRuleError,
                      "schema forbids has edge Entrance -> Object"),
    "has-reversed": ("has", "sofa_1", "livingroom_1", EdgeRuleError,
                     "schema forbids has edge Object -> Room"),
    "has-self-loop": ("has", "livingroom_1", "livingroom_1", EdgeRuleError,
                      "self-loop on 'livingroom_1' rejected"),
    "has-unknown-node": ("has", "ghost_1", "ghost_2", UnknownNodeError, "no node 'ghost_1'"),
    "contains-forbidden": ("contains", "floor_1", "sofa_1", EdgeRuleError,
                           "schema forbids contains edge Floor -> Object"),
    "contains-second-parent": ("contains", "floor_2", "livingroom_1", EdgeRuleError,
                               "'livingroom_1' already has a containing parent 'floor_1'"),
    # the schema is checked before the containing parent
    "contains-forbidden-with-parent": ("contains", "door_1", "livingroom_1", EdgeRuleError,
                                       "schema forbids contains edge Entrance -> Room"),
    "contains-self-loop": ("contains", "floor_2", "floor_2", EdgeRuleError,
                           "self-loop on 'floor_2' rejected"),
    "contains-unknown-node": ("contains", "floor_2", "ghost_1", UnknownNodeError,
                              "no node 'ghost_1'"),
}


@pytest.mark.parametrize("bad", list(_REFUSED))
def test_a_refused_near_pair_stores_nothing(graph, bad):
    """A refused edge of any kind raises, and leaves the version and every kept view."""
    kind, src, dst, error, message = _REFUSED[bad]
    room, door, sofa, tv = _near_fixture(graph)
    floor, spare = (graph.add_node(RegionNode(cls="Floor", label="floor")) for _ in range(2))
    graph.add_edge(floor, room, EdgeKind.CONTAINS)
    assert (room, door, floor, spare) == ("livingroom_1", "door_1", "floor_1", "floor_2")
    state = _write_state(graph)
    with pytest.raises(error) as refused:
        graph.add_edge(src, dst, EdgeKind(kind))
    assert str(refused.value) == message
    assert _write_state(graph) == state


def test_validate_graph_reports_a_one_way_proximity_edge(graph):
    room, door, sofa, tv = _near_fixture(graph)
    graph._insert(tv, sofa, EdgeKind.IS_NEAR)  # bypass add_edge, which stores the reverse too
    assert validate_graph(graph) == ["proximity edge tv_1 -> sofa_1 lacks its reverse"]
