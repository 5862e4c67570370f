"""Environment schemas: the concept ontology, parsing and structural verification.

A schema instantiates the abstract ontology (object role, places, connectors,
region abstractions) with concrete concepts for one environment type, e.g.
rooms/corridors/floors for homes or aisles for supermarkets.  Schemas arrive
as JSON documents whose keys are concept names and whose values declare a
``layer_type``, a ``layer_id`` and the relation rules ``contains`` /
``connects_to`` / ``has`` / ``is_near`` (the spellings ``is near`` and
``connects to`` are accepted as aliases).

Verification collects *all* rule violations into a report instead of failing
fast, so that a generation loop can consume the full feedback text.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import TypeVar

__all__ = [
    "ConceptKind",
    "EdgeKind",
    "EDGE_KIND_ORDER",
    "ConceptDef",
    "Schema",
    "VerifierReport",
    "SchemaParseError",
    "parse_schema",
    "serialize_schema",
    "verify_schema",
    "layers_of",
    "load_schema_file",
    "builtin_schema",
]


class ConceptKind(enum.Enum):
    """The four abstract node kinds of the ontology."""

    OBJECT_ROLE = "ObjectRole"
    PLACE = "Place"
    CONNECTOR = "Connector"
    REGION = "RegionAbstraction"

    # members are singletons, so identity hashing agrees with equality and
    # skips Enum's Python-level hash of the member name
    __hash__ = object.__hash__


class EdgeKind(enum.Enum):
    IS_NEAR = "is_near"
    CONNECTS_TO = "connects_to"
    HAS = "has"
    CONTAINS = "contains"

    __hash__ = object.__hash__  # as for ConceptKind


# Document field spellings (with their whitespace aliases) -> edge kind.
_EDGE_FIELDS: dict[str, EdgeKind] = {
    "contains": EdgeKind.CONTAINS,
    "connects_to": EdgeKind.CONNECTS_TO,
    "connects to": EdgeKind.CONNECTS_TO,
    "has": EdgeKind.HAS,
    "is_near": EdgeKind.IS_NEAR,
    "is near": EdgeKind.IS_NEAR,
}

# The order of a concept's edge kinds in its parsed and serialized forms.
EDGE_KIND_ORDER = (EdgeKind.CONTAINS, EdgeKind.CONNECTS_TO, EdgeKind.HAS, EdgeKind.IS_NEAR)

_LAYER_TYPES: dict[str, ConceptKind] = {
    "Region": ConceptKind.REGION,
    "Place": ConceptKind.PLACE,
    "Connector": ConceptKind.CONNECTOR,
}
_LAYER_TYPE_NAMES = {kind: name for name, kind in _LAYER_TYPES.items()}

_LOCATION_KINDS = frozenset(
    {ConceptKind.PLACE, ConceptKind.CONNECTOR, ConceptKind.REGION}
)


class SchemaParseError(ValueError):
    """Raised when a schema document is malformed."""


@dataclass(frozen=True)
class ConceptDef:
    """One concept of a schema, with its layer and outgoing relation rules."""

    name: str
    kind: ConceptKind
    layer_id: int
    allowed_edges: tuple[tuple[EdgeKind, str], ...] = ()

    def targets(self, kind: EdgeKind) -> tuple[str, ...]:
        return tuple(t for k, t in self.allowed_edges if k is kind)


_V = TypeVar("_V")


def _resolve_name(named: Mapping[str, _V], name: str) -> _V | None:
    """Look a concept reference up, tolerating singular/plural spellings.

    Paper-style documents occasionally reference a concept through a
    trivially pluralised name: an exact match wins, then the name without a
    trailing ``s``, then the name with one added.
    """
    hit = named.get(name)
    if hit is None and name.endswith("s"):
        hit = named.get(name[:-1])
    if hit is None:
        hit = named.get(name + "s")
    return hit


@dataclass(frozen=True)
class Schema:
    """A parsed environment template: concept map plus layer count.

    ``concepts`` maps each concept's name to its definition.  Nothing mutates
    it after construction, so the permission triples, the concepts grouped by
    kind and the object concept are compiled once, on first use, and every
    later ``permits``, ``by_kind`` and ``object_concept`` is a lookup.
    """

    concepts: dict[str, ConceptDef]

    @property
    def num_layers(self) -> int:
        if not self.concepts:
            return 0
        return max(c.layer_id for c in self.concepts.values())

    @cached_property
    def _grouped(self) -> dict[ConceptKind, tuple[ConceptDef, ...]]:
        return {
            kind: tuple(c for c in self.concepts.values() if c.kind is kind)
            for kind in ConceptKind
        }

    def by_kind(self, kind: ConceptKind) -> tuple[ConceptDef, ...]:
        """The concepts of one kind, in document order."""
        return self._grouped[kind]

    @cached_property
    def object_concept(self) -> ConceptDef | None:
        roles = self.by_kind(ConceptKind.OBJECT_ROLE)
        return roles[0] if roles else None

    def resolve(self, name: str) -> ConceptDef | None:
        """Resolve a concept reference, tolerating singular/plural spellings."""
        return _resolve_name(self.concepts, name)

    @cached_property
    def _permitted(self) -> frozenset[tuple[str, EdgeKind, str]]:
        triples = set()
        for src in self.concepts.values():
            for kind, target in src.allowed_edges:
                dst = self.resolve(target)
                if dst is None:
                    continue
                triples.add((src.name, kind, dst.name))
                if kind is EdgeKind.CONNECTS_TO:
                    triples.add((dst.name, kind, src.name))
        leaf = (ConceptKind.OBJECT_ROLE, ConceptKind.CONNECTOR)
        leaves = [c.name for c in self.concepts.values() if c.kind in leaf]
        triples.update((a, EdgeKind.IS_NEAR, b) for a in leaves for b in leaves)
        return frozenset(triples)

    def permits(self, src_cls: str, kind: EdgeKind, dst_cls: str) -> bool:
        """Whether an instance edge (src_cls -[kind]-> dst_cls) is allowed.

        Proximity between leaf concepts (object role / connectors) is
        implicitly allowed; connectivity rules are read as undirected
        permissions because connectivity is stored bidirectionally.
        """
        return (src_cls, kind, dst_cls) in self._permitted


@dataclass
class VerifierReport:
    """Outcome of structural verification; valid iff no messages."""

    messages: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.messages

    def text(self, sep: str = "\n") -> str:
        return sep.join(self.messages)


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise SchemaParseError(f"duplicate key {key!r} in schema document")
        out[key] = value
    return out


def parse_schema(document: str) -> Schema:
    """Parse a JSON schema document into a :class:`Schema`.

    Raises :class:`SchemaParseError` on malformed JSON, duplicate concept
    names, unknown ``layer_type`` strings or unrecognized fields.  Relation
    rules declared by a place toward the object role under ``contains`` or
    ``is_near`` are normalised to ``has``: the document listings use the three
    spellings interchangeably for "this place holds objects".
    """
    try:
        raw = json.loads(document, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise SchemaParseError(f"schema document is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaParseError("schema document must be a JSON object")

    kinds: dict[str, ConceptKind] = {}
    layer_ids: dict[str, int] = {}
    edge_lists: dict[str, list[tuple[EdgeKind, str]]] = {}

    for raw_name, body in raw.items():
        name = raw_name.strip()
        if not name:
            raise SchemaParseError("concept names must be non-empty")
        if name in kinds:
            raise SchemaParseError(f"duplicate concept name {name!r}")
        if not isinstance(body, dict):
            raise SchemaParseError(f"concept {name!r} must map to an object")

        layer_id = body.get("layer_id")
        if not isinstance(layer_id, int) or isinstance(layer_id, bool) or layer_id < 1:
            raise SchemaParseError(f"concept {name!r} needs a positive integer layer_id")

        layer_type = body.get("layer_type")
        if layer_type is None:
            kind = ConceptKind.OBJECT_ROLE
        elif isinstance(layer_type, str) and layer_type in _LAYER_TYPES:
            kind = _LAYER_TYPES[layer_type]
        else:
            raise SchemaParseError(f"concept {name!r} has unknown layer_type {layer_type!r}")

        edges: list[tuple[EdgeKind, str]] = []
        for key, value in body.items():
            if key in ("layer_type", "layer_id"):
                continue
            edge_kind = _EDGE_FIELDS.get(key)
            if edge_kind is None:
                raise SchemaParseError(f"concept {name!r} has unrecognized field {key!r}")
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise SchemaParseError(
                    f"concept {name!r} field {key!r} must be an array of concept names"
                )
            for target in value:
                edges.append((edge_kind, target.strip()))

        kinds[name] = kind
        layer_ids[name] = layer_id
        edge_lists[name] = edges

    concepts: dict[str, ConceptDef] = {}
    for name, kind in kinds.items():
        edges = []
        for edge_kind, target in edge_lists[name]:
            target_kind = _resolve_name(kinds, target)
            if (
                kind is ConceptKind.PLACE
                and target_kind is ConceptKind.OBJECT_ROLE
                and edge_kind in (EdgeKind.CONTAINS, EdgeKind.IS_NEAR)
            ):
                edge_kind = EdgeKind.HAS
            pair = (edge_kind, target)
            if pair not in edges:
                edges.append(pair)
        # canonical ordering: group by kind so parse(serialize(x)) == x
        edges.sort(key=lambda pair: EDGE_KIND_ORDER.index(pair[0]))
        concepts[name] = ConceptDef(
            name=name, kind=kind, layer_id=layer_ids[name], allowed_edges=tuple(edges)
        )
    return Schema(concepts=concepts)


def serialize_schema(schema: Schema) -> str:
    """Emit the canonical JSON document form of a schema."""
    doc: dict[str, dict] = {}
    for name, concept in schema.concepts.items():
        body: dict = {}
        if concept.kind is not ConceptKind.OBJECT_ROLE:
            body["layer_type"] = _LAYER_TYPE_NAMES[concept.kind]
        body["layer_id"] = concept.layer_id
        for kind in EDGE_KIND_ORDER:
            targets = list(concept.targets(kind))
            if targets:
                body[kind.value] = targets
        doc[name] = body
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


_RULE_FOR_EDGE = {
    EdgeKind.CONTAINS: "R4",
    EdgeKind.HAS: "R5",
    EdgeKind.IS_NEAR: "R6",
    EdgeKind.CONNECTS_TO: "R7",
}


def verify_schema(schema: Schema) -> VerifierReport:
    """Check a schema against the structural rule set R1-R9.

    R1 exactly one object concept, at layer 1; R2 places and connectors at
    layer 2; R3 region abstractions at layer 3 or above; R4 a containment
    rule at layer i targets place/region concepts at layer i-1; R5 ``has``
    only place -> object; R6 ``is_near`` only connector -> object; R7
    connectivity endpoints are location concepts; R8 layer ids are the
    contiguous set 1..N; R9 at least one place concept.
    """
    messages: list[str] = []

    roles = schema.by_kind(ConceptKind.OBJECT_ROLE)
    if len(roles) != 1:
        listed = ", ".join(c.name for c in roles) or "none"
        messages.append(
            f"R1: a schema needs exactly one object concept at layer 1; found {listed}"
        )
    elif roles[0].layer_id != 1:
        messages.append(
            f"R1: object concept '{roles[0].name}' must sit at layer 1, "
            f"not layer {roles[0].layer_id}"
        )

    for concept in schema.concepts.values():
        if concept.kind in (ConceptKind.PLACE, ConceptKind.CONNECTOR) and concept.layer_id != 2:
            messages.append(
                f"R2: '{concept.name}' is a {concept.kind.value} and must sit at layer 2, "
                f"not layer {concept.layer_id}"
            )
        if concept.kind is ConceptKind.REGION and concept.layer_id < 3:
            messages.append(
                f"R3: region abstraction '{concept.name}' must sit at layer 3 or above, "
                f"not layer {concept.layer_id}"
            )

    for concept in schema.concepts.values():
        for edge_kind, target_name in concept.allowed_edges:
            target = schema.resolve(target_name)
            if target is None:
                rule = _RULE_FOR_EDGE[edge_kind]
                messages.append(
                    f"{rule}: '{concept.name}' declares {edge_kind.value} toward "
                    f"unknown concept '{target_name}'"
                )
                continue
            if edge_kind is EdgeKind.CONTAINS:
                if target.kind not in (ConceptKind.PLACE, ConceptKind.REGION):
                    messages.append(
                        f"R4: '{concept.name}' contains '{target.name}', but containment "
                        f"targets must be place or region concepts"
                    )
                elif target.layer_id != concept.layer_id - 1:
                    messages.append(
                        f"R4: '{concept.name}' (layer {concept.layer_id}) contains "
                        f"'{target.name}' (layer {target.layer_id}); containment must "
                        f"target the layer directly below"
                    )
            elif edge_kind is EdgeKind.HAS:
                if concept.kind is not ConceptKind.PLACE or target.kind is not ConceptKind.OBJECT_ROLE:
                    messages.append(
                        f"R5: has edge '{concept.name}' -> '{target.name}' is invalid; "
                        f"has links a place to the object concept only"
                    )
            elif edge_kind is EdgeKind.IS_NEAR:
                if concept.kind is not ConceptKind.CONNECTOR or target.kind is not ConceptKind.OBJECT_ROLE:
                    messages.append(
                        f"R6: is_near edge '{concept.name}' -> '{target.name}' is invalid; "
                        f"declared proximity links a connector to the object concept "
                        f"(object-object proximity is implicit)"
                    )
            elif edge_kind is EdgeKind.CONNECTS_TO:
                if concept.kind not in _LOCATION_KINDS or target.kind not in _LOCATION_KINDS:
                    messages.append(
                        f"R7: connects_to edge '{concept.name}' -> '{target.name}' is invalid; "
                        f"both endpoints must be location concepts (place, connector or region)"
                    )

    if schema.concepts:
        layers = sorted({c.layer_id for c in schema.concepts.values()})
        n = max(layers)
        if layers != list(range(1, n + 1)):
            messages.append(
                f"R8: layer ids must form the contiguous set 1..{n}; found {layers}"
            )

    if not schema.by_kind(ConceptKind.PLACE):
        messages.append("R9: a schema needs at least one place concept")

    messages.sort(key=lambda m: (m.split(":", 1)[0], m))
    return VerifierReport(messages=messages)


def layers_of(schema: Schema) -> list[tuple[int, list[str]]]:
    """Concept names grouped by layer, ordered 1..N, document order within."""
    grouped: dict[int, list[str]] = {}
    for name, concept in schema.concepts.items():
        grouped.setdefault(concept.layer_id, []).append(name)
    return [(layer, grouped[layer]) for layer in sorted(grouped)]


def load_schema_file(path: str) -> Schema:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_schema(handle.read())


def builtin_schema(name: str) -> Schema:
    """Load one of the bundled environment templates by short name."""
    ref = resources.files("scenenav.assets.schemas").joinpath(f"{name}.json")
    return parse_schema(ref.read_text(encoding="utf-8"))
