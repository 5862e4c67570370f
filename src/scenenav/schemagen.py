"""Schema generation from an environment label: describe, structure, verify.

A text backend first narrates how the environment type is laid out, the
narration is squeezed into relational triplets, those are canonicalised one
by one into the allowed relation set, and the assembled schema goes through
structural verification.  Verifier feedback loops back into the description
prompt until the schema is valid or the iteration budget runs out.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from importlib import resources

from .schema import (
    EDGE_KIND_ORDER,
    ConceptDef,
    ConceptKind,
    EdgeKind,
    Schema,
    VerifierReport,
    verify_schema,
)

logger = logging.getLogger(__name__)

__all__ = [
    "Triplet",
    "IterationRecord",
    "GenerationTrace",
    "ChatBackend",
    "MockChatBackend",
    "AssemblyError",
    "generate_description",
    "extract_triplets",
    "canonicalise",
    "assemble_schema",
    "run_pipeline",
    "load_mock_backend",
    "builtin_mock_backend",
]

_TRIPLET_RE = re.compile(r"\[([^\[\]]+)\]")
_RELATION_ALIASES = {
    "contains": "contains",
    "has": "contains",
    "connects": "connects to",
    "connects to": "connects to",
    "connects_to": "connects to",
    "is near": "is near",
    "is_near": "is near",
}
CANONICAL_RELATIONS = ("contains", "connects to", "is near")


class AssemblyError(ValueError):
    """The canonical triplets cannot form a layered schema."""


@dataclass(frozen=True)
class Triplet:
    subject: str
    relation: str
    object: str

    def __post_init__(self) -> None:
        if not (self.subject and self.relation and self.object):
            raise ValueError("triplet fields must be non-empty")

    def text(self) -> str:
        return f"[{self.subject}, {self.relation}, {self.object}]"


@dataclass
class IterationRecord:
    description: str
    triplets: list[Triplet]
    canonical: list[Triplet]
    report: VerifierReport


@dataclass
class GenerationTrace:
    env_label: str
    iterations: list[IterationRecord] = field(default_factory=list)
    final: Schema | None = None

    @property
    def succeeded(self) -> bool:
        return self.final is not None


class ChatBackend:
    """Anything that can answer a templated prompt with text."""

    def complete(self, template_id: str, prompt: str) -> str:
        raise NotImplementedError


class MockChatBackend(ChatBackend):
    """Replays canned replies per template id; the last reply is sticky."""

    def __init__(self, replies: dict[str, list[str] | str]):
        self._replies = {
            key: list(value) if isinstance(value, list) else [value]
            for key, value in replies.items()
        }
        self._cursor: dict[str, int] = {}
        self.transcript: list[tuple[str, str]] = []

    def complete(self, template_id: str, prompt: str) -> str:
        self.transcript.append((template_id, prompt))
        options = self._replies.get(template_id)
        if not options:
            raise ValueError(f"mock backend has no reply for template {template_id!r}")
        index = self._cursor.get(template_id, 0)
        reply = options[min(index, len(options) - 1)]
        self._cursor[template_id] = index + 1
        return reply


def _mock_from_json(raw: object, source: str) -> MockChatBackend:
    """A mock backend from ``{"replies": {template id: reply or non-empty reply list}}``."""
    replies = raw.get("replies") if isinstance(raw, dict) else None
    if not isinstance(replies, dict):
        raise ValueError(f"{source}: a mock backend must be an object with a 'replies' object")
    for template_id, value in replies.items():
        if not (isinstance(value, str) or (
            isinstance(value, list) and value and all(isinstance(v, str) for v in value)
        )):
            raise ValueError(
                f"{source}: mock replies for {template_id!r} must be a string "
                f"or a non-empty list of strings"
            )
    return MockChatBackend(replies=replies)


def load_mock_backend(path: str) -> MockChatBackend:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: {exc}") from None
    return _mock_from_json(raw, path)


def builtin_mock_backend(name: str) -> MockChatBackend:
    ref = resources.files("scenenav.assets.mocks").joinpath(f"{name}.json")
    return _mock_from_json(json.loads(ref.read_text(encoding="utf-8")), f"mock:{name}")


def prompt_template(name: str) -> str:
    """The bundled prompt ``name`` (``assets/prompts/<name>.txt``), unformatted."""
    ref = resources.files("scenenav.assets.prompts").joinpath(f"{name}.txt")
    return ref.read_text(encoding="utf-8")


def generate_description(env_label: str, feedback: str | None, llm: ChatBackend) -> str:
    if not env_label.strip():
        raise ValueError("environment label must be non-empty")
    feedback_block = ""
    if feedback:
        feedback_block = (
            "\nYour previous description produced these structural errors:\n"
            f"{feedback}\nFix them and describe the layout again."
        )
    prompt = prompt_template("env_description").format(
        EnvironmentLabel=env_label, Feedback=feedback_block
    )
    reply = llm.complete("env_description", prompt)
    text = reply.strip()
    if text.lower().startswith("text:"):
        text = text[len("text:"):].strip()
    return text


def _parse_triplets(reply: str) -> list[Triplet]:
    out = []
    for match in _TRIPLET_RE.finditer(reply):
        parts = [p.strip() for p in match.group(1).split(",")]
        if len(parts) != 3 or not all(parts):
            continue
        out.append(Triplet(subject=parts[0].lower(), relation=parts[1].lower(), object=parts[2].lower()))
    return out


def extract_triplets(description: str, llm: ChatBackend, env_label: str = "") -> list[Triplet]:
    if not description.strip():
        return []
    prompt = prompt_template("triplet_extraction").format(
        EnvironmentLabel=env_label or "described",
        Description=description,
        RelationTypes=", ".join(CANONICAL_RELATIONS),
    )
    for attempt in range(2):
        reply = llm.complete("triplet_extraction", prompt)
        triplets = _parse_triplets(reply)
        if triplets:
            return triplets
        logger.info("triplet extraction attempt %d yielded nothing", attempt + 1)
    return []


def canonicalise(
    triplets: list[Triplet], llm: ChatBackend, env_label: str = ""
) -> tuple[list[Triplet], dict[str, ConceptKind]]:
    """Normalise relations/entities and derive each entity's abstract kind."""
    canonical: list[Triplet] = []
    for triplet in triplets:
        prompt = prompt_template("triplet_canonicalisation").format(
            EnvironmentLabel=env_label or "this", Triplet=triplet.text()
        )
        reply = llm.complete("triplet_canonicalisation", prompt)
        if "invalid" in reply.lower():
            continue
        parsed = _parse_triplets(reply)
        if not parsed:
            continue
        cand = parsed[0]
        relation = _RELATION_ALIASES.get(cand.relation)
        if relation is None:
            continue
        fixed = Triplet(subject=cand.subject, relation=relation, object=cand.object)
        if fixed not in canonical:
            canonical.append(fixed)
    return canonical, _derive_kinds(canonical)


def _is_object_word(entity: str) -> bool:
    return entity in ("object", "objects")


def _derive_kinds(triplets: list[Triplet]) -> dict[str, ConceptKind]:
    kinds: dict[str, ConceptKind] = {}
    entities: list[str] = []
    for t in triplets:
        for entity in (t.subject, t.object):
            if entity not in entities:
                entities.append(entity)
    for entity in entities:
        if _is_object_word(entity):
            kinds[entity] = ConceptKind.OBJECT_ROLE
    for t in triplets:
        if t.relation == "is near" and not _is_object_word(t.subject):
            kinds[t.subject] = ConceptKind.CONNECTOR
    for t in triplets:
        if t.relation == "contains" and not _is_object_word(t.object):
            if kinds.get(t.subject) is None:
                kinds[t.subject] = ConceptKind.REGION
    for entity in entities:
        kinds.setdefault(entity, ConceptKind.PLACE)
    return kinds


def _concept_name(entity: str) -> str:
    if _is_object_word(entity):
        return "Object"
    return " ".join(part.capitalize() for part in entity.split())


def assemble_schema(
    triplets: list[Triplet], kinds: dict[str, ConceptKind] | None = None
) -> Schema:
    """Build a schema from canonical triplets; layers follow containment depth."""
    if not triplets:
        return Schema(concepts={"Object": ConceptDef("Object", ConceptKind.OBJECT_ROLE, 1)})
    if kinds is None:
        kinds = _derive_kinds(triplets)

    contains_children: dict[str, list[str]] = {}
    for t in triplets:
        if t.relation == "contains" and not _is_object_word(t.object):
            contains_children.setdefault(t.subject, []).append(t.object)

    layers: dict[str, int] = {}

    def layer_of(entity: str, trail: tuple[str, ...] = ()) -> int:
        if entity in trail:
            raise AssemblyError(
                "containment between " + " and ".join(trail + (entity,)) + " forms a cycle"
            )
        if entity in layers:
            return layers[entity]
        kind = kinds.get(entity, ConceptKind.PLACE)
        if kind is ConceptKind.OBJECT_ROLE:
            value = 1
        elif kind in (ConceptKind.PLACE, ConceptKind.CONNECTOR):
            value = 2
        else:
            children = contains_children.get(entity, [])
            child_layers = [layer_of(c, trail + (entity,)) for c in children]
            value = (max(child_layers) if child_layers else 2) + 1
        layers[entity] = value
        return value

    for entity in kinds:
        layer_of(entity)

    edges: dict[str, list[tuple[EdgeKind, str]]] = {e: [] for e in kinds}

    def add(entity: str, kind: EdgeKind, target: str) -> None:
        pair = (kind, _concept_name(target))
        if pair not in edges[entity]:
            edges[entity].append(pair)

    for t in triplets:
        if t.relation == "contains":
            if _is_object_word(t.object) and kinds[t.subject] is ConceptKind.PLACE:
                add(t.subject, EdgeKind.HAS, t.object)
            else:
                add(t.subject, EdgeKind.CONTAINS, t.object)
        elif t.relation == "connects to":
            add(t.subject, EdgeKind.CONNECTS_TO, t.object)
            if not _is_object_word(t.subject) and not _is_object_word(t.object):
                add(t.object, EdgeKind.CONNECTS_TO, t.subject)
        elif t.relation == "is near":
            add(t.subject, EdgeKind.IS_NEAR, t.object)

    concepts: dict[str, ConceptDef] = {}
    ordered = sorted(kinds, key=lambda e: (-layers[e], list(kinds).index(e)))
    for entity in ordered:
        entity_edges = sorted(edges[entity], key=lambda pair: EDGE_KIND_ORDER.index(pair[0]))
        concepts[_concept_name(entity)] = ConceptDef(
            name=_concept_name(entity),
            kind=kinds[entity],
            layer_id=layers[entity],
            allowed_edges=tuple(entity_edges),
        )
    return Schema(concepts=concepts)


def run_pipeline(env_label: str, llm: ChatBackend, max_iterations: int = 3) -> GenerationTrace:
    """Loop describe -> structure -> verify until valid or out of budget."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    trace = GenerationTrace(env_label=env_label)
    feedback: str | None = None
    for iteration in range(max_iterations):
        description = generate_description(env_label, feedback, llm)
        triplets = extract_triplets(description, llm, env_label)
        canonical, kinds = canonicalise(triplets, llm, env_label)
        try:
            schema = assemble_schema(canonical, kinds)
            report = verify_schema(schema)
        except AssemblyError as exc:
            schema = None
            report = VerifierReport(messages=[f"assembly: {exc}"])
        trace.iterations.append(
            IterationRecord(
                description=description,
                triplets=triplets,
                canonical=canonical,
                report=report,
            )
        )
        if schema is not None and report.valid:
            trace.final = schema
            logger.info("schema for %r valid after %d iteration(s)", env_label, iteration + 1)
            return trace
        feedback = report.text()
    logger.info("schema generation for %r exhausted %d iterations", env_label, max_iterations)
    return trace


def trace_to_json(trace: GenerationTrace) -> str:
    payload = {
        "env_label": trace.env_label,
        "succeeded": trace.succeeded,
        "iterations": [
            {
                "description": rec.description,
                "triplets": [t.text() for t in rec.triplets],
                "canonical": [t.text() for t in rec.canonical],
                "valid": rec.report.valid,
                "messages": rec.report.messages,
            }
            for rec in trace.iterations
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
