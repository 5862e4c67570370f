import json

import pytest

from scenenav.schema import (
    ConceptKind,
    EdgeKind,
    SchemaParseError,
    builtin_schema,
    layers_of,
    parse_schema,
    serialize_schema,
    verify_schema,
)

LISTINGS = [
    "home",
    "studio",
    "supermarket",
    "office",
    "mall",
    "apartment",
    "hospital",
    "airport",
]


def home_doc() -> dict:
    from importlib import resources

    ref = resources.files("scenenav.assets.schemas").joinpath("home.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def test_parse_home_listing():
    schema = builtin_schema("home")
    assert len(schema.concepts) == 6
    assert schema.num_layers == 3
    assert schema.concepts["Entrance"].kind is ConceptKind.CONNECTOR
    assert schema.concepts["Object"].kind is ConceptKind.OBJECT_ROLE


def test_parse_minimal_object_only():
    schema = parse_schema('{"Object": {"layer_id": 1}}')
    assert len(schema.concepts) == 1
    assert schema.num_layers == 1
    report = verify_schema(schema)
    assert not report.valid
    assert any(m.startswith("R9") for m in report.messages)


def test_parse_duplicate_key_is_error():
    doc = '{"Room": {"layer_id": 2, "layer_type": "Place"}, "Room": {"layer_id": 2, "layer_type": "Place"}}'
    with pytest.raises(SchemaParseError, match="duplicate"):
        parse_schema(doc)


def test_parse_rejects_unknown_fields():
    with pytest.raises(SchemaParseError, match="unrecognized"):
        parse_schema('{"Object": {"layer_id": 1, "colour": "blue"}}')


def test_parse_rejects_unknown_layer_type():
    with pytest.raises(SchemaParseError, match="layer_type"):
        parse_schema('{"Zone": {"layer_id": 2, "layer_type": "Area"}}')


def test_place_object_rules_normalise_to_has():
    schema = builtin_schema("supermarket")
    aisle = schema.concepts["Aisle"]
    assert aisle.targets(EdgeKind.HAS) == ("Object",)
    assert aisle.targets(EdgeKind.CONTAINS) == ()
    stairs = builtin_schema("home").concepts["Stairs"]
    assert stairs.targets(EdgeKind.HAS) == ("Object",)


@pytest.mark.parametrize("name", LISTINGS)
def test_all_bundled_listings_verify_valid(name):
    report = verify_schema(builtin_schema(name))
    assert report.valid, f"{name}: {report.messages}"


@pytest.mark.parametrize("name", LISTINGS)
def test_verify_is_deterministic_and_idempotent(name):
    schema = builtin_schema(name)
    first = verify_schema(schema)
    second = verify_schema(schema)
    assert first.messages == second.messages
    assert first.valid == second.valid


def test_layers_of_home():
    assert layers_of(builtin_schema("home")) == [
        (1, ["Object"]),
        (2, ["Room", "Corridor", "Stairs", "Entrance"]),
        (3, ["Floor"]),
    ]


def test_layers_of_airport():
    assert layers_of(builtin_schema("airport")) == [
        (1, ["Object"]),
        (2, ["Gate"]),
        (3, ["Terminal"]),
    ]


def test_layers_of_supermarket():
    assert layers_of(builtin_schema("supermarket")) == [
        (1, ["Object"]),
        (2, ["Aisle"]),
    ]


def test_roundtrip_parse_serialize_parse():
    for name in LISTINGS:
        schema = builtin_schema(name)
        again = parse_schema(serialize_schema(schema))
        assert again == schema, name


def _verify_mutation(doc: dict) -> list[str]:
    return verify_schema(parse_schema(json.dumps(doc))).messages


def _rules_cited(messages: list[str]) -> set[str]:
    return {m.split(":", 1)[0] for m in messages}


def test_mutation_r1_second_object_concept():
    doc = home_doc()
    doc["Item"] = {"layer_id": 1}
    assert _rules_cited(_verify_mutation(doc)) == {"R1"}


def test_mutation_r2_connector_off_layer():
    doc = home_doc()
    doc["Entrance"]["layer_id"] = 3
    assert _rules_cited(_verify_mutation(doc)) == {"R2"}


def test_mutation_r3_region_below_layer_three():
    doc = home_doc()
    doc["Wing"] = {"layer_type": "Region", "layer_id": 2}
    assert _rules_cited(_verify_mutation(doc)) == {"R3"}


def test_mutation_r4_contains_wrong_kind():
    doc = home_doc()
    doc["Floor"]["contains"] = ["Room", "Entrance"]
    assert _rules_cited(_verify_mutation(doc)) == {"R4"}


def test_mutation_r5_has_toward_place():
    doc = home_doc()
    doc["Room"]["has"] = ["Corridor"]
    messages = _verify_mutation(doc)
    assert _rules_cited(messages) == {"R5"}
    assert any("Room" in m for m in messages)


def test_mutation_r6_is_near_toward_place():
    doc = home_doc()
    doc["Entrance"]["is_near"] = ["Room"]
    assert _rules_cited(_verify_mutation(doc)) == {"R6"}


def test_mutation_r7_connects_to_object():
    doc = home_doc()
    doc["Room"]["connects_to"] = ["Entrance", "Room", "Stairs", "Object"]
    assert _rules_cited(_verify_mutation(doc)) == {"R7"}


def test_mutation_r8_layer_gap():
    doc = home_doc()
    doc["Campus"] = {"layer_type": "Region", "layer_id": 5}
    assert _rules_cited(_verify_mutation(doc)) == {"R8"}


def test_mutation_r9_no_place():
    doc = {"Object": home_doc()["Object"]}
    assert _rules_cited(_verify_mutation(doc)) == {"R9"}


def test_verifier_collects_multiple_violations():
    doc = home_doc()
    doc["Room"]["has"] = ["Corridor"]
    doc["Entrance"]["is_near"] = ["Room"]
    assert _rules_cited(_verify_mutation(doc)) == {"R5", "R6"}


def test_resolve_tolerates_plural_references():
    schema = builtin_schema("office")
    floor = schema.concepts["Floor"]
    assert floor.targets(EdgeKind.CONNECTS_TO) == ("Stairs",)
    assert schema.resolve("Stairs") is schema.concepts["Stair"]
    assert verify_schema(schema).valid


# -- compiled tables against the rule walks they replace ----------------------

# concepts referred to by plural and singular names, in the parser's
# normalisation (a place that "contains" objects has them) and in every rule
PLURAL_DOC = {
    "Floors": {"layer_type": "Region", "layer_id": 3, "contains": ["Rooms", "Hall"],
               "connects_to": ["Stair"]},
    "Room": {"layer_type": "Place", "layer_id": 2, "has": ["Objects"],
             "connects_to": ["Doors", "Rooms"]},
    "Halls": {"layer_type": "Place", "layer_id": 2, "contains": ["Object"],
              "connects_to": ["Door"]},
    "Stairs": {"layer_type": "Place", "layer_id": 2, "is_near": ["Objects"],
               "connects_to": ["Floor"]},
    "Door": {"layer_type": "Connector", "layer_id": 2, "is_near": ["Objects"],
             "connects_to": ["Room", "Hall"]},
    "Object": {"layer_id": 1},
}
NO_OBJECT_DOC = {"Room": {"layer_type": "Place", "layer_id": 2, "connects_to": ["Rooms"]}}
# proximity declared from a connector to a place, which R6 rejects: the rule
# still reads both ways, as a connectivity rule does
NEAR_PLACE_DOC = {
    "Room": {"layer_type": "Place", "layer_id": 2, "has": ["Object"]},
    "Door": {"layer_type": "Connector", "layer_id": 2, "is_near": ["Room"]},
    "Object": {"layer_id": 1},
}
COMPILED_CASES = LISTINGS + ["plural", "no-object", "near-place"]
# two region concepts of one layer contain the same place: the first in
# document order is its region
TWIN_REGION_DOC = {
    "Room": {"layer_type": "Place", "layer_id": 2, "has": ["Object"]},
    "Wing": {"layer_type": "Region", "layer_id": 3, "contains": ["Rooms"]},
    "Floor": {"layer_type": "Region", "layer_id": 3, "contains": ["Room"]},
    "Object": {"layer_id": 1},
}


def _case_schema(name):
    docs = {"plural": PLURAL_DOC, "no-object": NO_OBJECT_DOC, "near-place": NEAR_PLACE_DOC,
            "twin-region": TWIN_REGION_DOC}
    return parse_schema(json.dumps(docs[name])) if name in docs else builtin_schema(name)


def _walked_resolve(schema, name):
    """``Schema.resolve`` as it once spelled its own lookup (reference)."""
    hit = schema.concepts.get(name)
    if hit is not None:
        return hit
    if name.endswith("s"):
        hit = schema.concepts.get(name[:-1])
        if hit is not None:
            return hit
    return schema.concepts.get(name + "s")


def _walked_permits(schema, src_cls, kind, dst_cls):
    """``Schema.permits`` as it once walked the rules on every call (reference)."""
    src, dst = schema.concepts.get(src_cls), schema.concepts.get(dst_cls)
    if src is None or dst is None:
        return False
    leaf = (ConceptKind.OBJECT_ROLE, ConceptKind.CONNECTOR)
    if kind is EdgeKind.IS_NEAR and src.kind in leaf and dst.kind in leaf:
        return True

    def declares(a, b):
        for k, target in a.allowed_edges:
            resolved = _walked_resolve(schema, target)
            if k is kind and resolved is not None and resolved.name == b.name:
                return True
        return False

    symmetric = kind in (EdgeKind.CONNECTS_TO, EdgeKind.IS_NEAR)
    return declares(src, dst) or (symmetric and declares(dst, src))


@pytest.mark.parametrize("name", COMPILED_CASES)
def test_compiled_permits_equal_the_rule_walk(name):
    schema = _case_schema(name)
    # unknown classes include plural and lower-case spellings of known ones:
    # instance classes are exact names, only rule targets tolerate plurals
    classes = list(schema.concepts) + ["Nowhere", "", "Objects", "Rooms", "room", "Stair"]
    allowed = 0
    for src in classes:
        for kind in EdgeKind:
            for dst in classes:
                want = _walked_permits(schema, src, kind, dst)
                assert schema.permits(src, kind, dst) is want, (src, kind, dst)
                allowed += want
    assert allowed > 0


@pytest.mark.parametrize("name", COMPILED_CASES)
def test_compiled_groups_equal_a_scan(name):
    schema = _case_schema(name)
    for kind in ConceptKind:
        grouped = schema.by_kind(kind)
        assert isinstance(grouped, tuple)
        assert list(grouped) == [c for c in schema.concepts.values() if c.kind is kind]
    roles = [c for c in schema.concepts.values() if c.kind is ConceptKind.OBJECT_ROLE]
    assert schema.object_concept is (roles[0] if roles else None)
    for target in ["Nowhere", "Objects", "Rooms", "Halls", "Floor", "Stair", "s", ""]:
        assert schema.resolve(target) is _walked_resolve(schema, target)


def _scanned_region_layers(schema):
    """The region layers as the mapper once sorted them for every new place (reference)."""
    return sorted({c.layer_id for c in schema.by_kind(ConceptKind.REGION)})


def _scanned_region_for(schema, layer, child_cls):
    """The region class of a child as the mapper once scanned for it (reference)."""
    for concept in schema.by_kind(ConceptKind.REGION):
        if concept.layer_id != layer:
            continue
        for target in concept.targets(EdgeKind.CONTAINS):
            resolved = schema.resolve(target)
            if resolved is not None and resolved.name == child_cls:
                return concept.name
    return None


def _scanned_links(schema, region_cls):
    """The concepts the rule oracle once scanned for a region boundary (reference)."""
    region = schema.concepts.get(region_cls)
    if region is None:
        return set()
    linked = set()
    for concept in schema.concepts.values():
        if concept.kind not in (ConceptKind.PLACE, ConceptKind.CONNECTOR):
            continue
        to_region = any(
            (resolved := schema.resolve(t)) is not None and resolved.name == region_cls
            for t in concept.targets(EdgeKind.CONNECTS_TO)
        )
        from_region = any(
            (resolved := schema.resolve(t)) is not None and resolved.name == concept.name
            for t in region.targets(EdgeKind.CONNECTS_TO)
        )
        if to_region or from_region:
            linked.add(concept.name)
    return linked


@pytest.mark.parametrize("name", COMPILED_CASES + ["twin-region"])
def test_compiled_region_tables_equal_the_old_scans(name):
    schema = _case_schema(name)
    if name == "twin-region":
        assert schema.region_for(3, "Room") == "Wing"
    assert list(schema.region_layers) == _scanned_region_layers(schema)
    classes = list(schema.concepts) + ["Nowhere", "", "Objects", "Rooms", "room"]
    layers = sorted({c.layer_id for c in schema.concepts.values()} | {0, 9})
    for layer in layers:
        for child in classes:
            assert schema.region_for(layer, child) == _scanned_region_for(schema, layer, child)
    for cls in classes:
        linked = schema.linked_locations(cls)
        assert len(set(linked)) == len(linked)
        assert set(linked) == _scanned_links(schema, cls), cls


def test_compiled_region_tables_are_not_empty_on_the_shipped_schemas():
    # the comparison above is not vacuous: some listing has every kind of answer
    answers = {"layers": 0, "regions": 0, "links": 0}
    for name in LISTINGS:
        schema = builtin_schema(name)
        answers["layers"] += len(schema.region_layers)
        answers["regions"] += sum(
            schema.region_for(layer, child) is not None
            for layer in schema.region_layers for child in schema.concepts
        )
        answers["links"] += sum(len(schema.linked_locations(c)) for c in schema.concepts)
    assert all(answers.values()), answers


def test_parser_and_schema_resolve_plurals_alike():
    schema = _case_schema("plural")
    # "contains"/"is_near" toward the object concept reached through either
    # spelling are read as "has", as the compiled table then permits
    assert schema.concepts["Halls"].allowed_edges[-1] == (EdgeKind.HAS, "Object")
    assert schema.concepts["Stairs"].targets(EdgeKind.HAS) == ("Objects",)
    for place in ("Room", "Halls", "Stairs"):
        assert schema.permits(place, EdgeKind.HAS, "Object")
    assert schema.permits("Floors", EdgeKind.CONTAINS, "Halls")
    assert schema.permits("Halls", EdgeKind.CONNECTS_TO, "Door")
    assert schema.permits("Door", EdgeKind.CONNECTS_TO, "Halls")
    assert not schema.permits("Room", EdgeKind.HAS, "Objects")


@pytest.mark.parametrize("kind", list(ConceptKind) + list(EdgeKind), ids=str)
def test_kind_members_hash_by_identity_and_survive_pickle(kind):
    import copy
    import pickle

    enum_cls = type(kind)
    assert hash(kind) == object.__hash__(kind)
    table = {member: member.value for member in enum_cls}
    assert table[kind] == kind.value
    assert table[enum_cls(kind.value)] == kind.value
    assert kind in frozenset(enum_cls)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(kind, protocol=protocol))
        assert restored is kind
        assert table[restored] == kind.value
    assert copy.deepcopy(kind) is kind
    assert pickle.loads(pickle.dumps(table)) == table
