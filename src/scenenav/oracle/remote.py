"""Chat-completion backend: the semantic decisions served by a remote model.

Every decision renders a bundled prompt template, posts it to an HTTP
chat-completion endpoint and parses the structured reply.  Malformed replies
are retried a bounded number of times; when the backend stays unusable, each
operation degrades to its conservative default (no match, fresh node, first
candidate) instead of aborting an episode, and the degradation is logged with
the raw reply.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
from dataclasses import MISSING, dataclass, fields
from typing import Callable

from ..graph import ObjectFeatures
from ..schema import ConceptKind, Schema
from ..schemagen import prompt_template
from .base import (
    ClassifiedElements,
    MatchDecision,
    OracleError,
    Proposal,
    RegionChoice,
    SemanticOracle,
)
from .tables import strip_suffix

logger = logging.getLogger(__name__)

__all__ = ["RemoteConfig", "RemoteChatOracle"]

Transport = Callable[[str, dict, dict, float], dict]

_ANSWER_RE = re.compile(r"answer\s*:\s*(.+)", re.IGNORECASE)
_CONFIDENCE_RE = re.compile(r"confidence\s*:\s*([0-9]*\.?[0-9]+)", re.IGNORECASE)
_REASONING_RE = re.compile(r"reasoning\s*:\s*(.+)", re.IGNORECASE | re.DOTALL)


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# remote config field -> (what its value must be, the test of it)
_FIELD_CHECKS: dict[str, tuple[str, Callable[[object], bool]]] = {
    "endpoint": ("a string", lambda v: isinstance(v, str)),
    "model": ("a string", lambda v: isinstance(v, str)),
    "api_key_env": ("a string", lambda v: isinstance(v, str)),
    "temperature": ("a finite number >= 0", lambda v: _number(v) and v >= 0),
    "timeout": ("a finite number > 0", lambda v: _number(v) and v > 0),
    "max_retries": ("an integer >= 0", lambda v: _integer(v) and v >= 0),
    "max_in_flight": ("an integer >= 1", lambda v: _integer(v) and v >= 1),
}


@dataclass(frozen=True)
class RemoteConfig:
    endpoint: str
    model: str
    api_key_env: str = "SCENENAV_API_KEY"
    temperature: float = 0.3
    timeout: float = 30.0
    max_retries: int = 2
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        """Reject a wrongly typed or out-of-range field with a ``ValueError`` naming it."""
        for f in fields(self):
            want, ok = _FIELD_CHECKS[f.name]
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"remote config key {f.name!r} must be {want}, not {value!r}")

    @classmethod
    def from_file(cls, path: str) -> "RemoteConfig":
        """Load a config; anything but an object of known, valid keys raises ``ValueError``."""
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a remote config must be a JSON object")
        known = {f.name: f for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ValueError(f"{path}: unknown remote config key {key!r}")
        for name, f in known.items():
            if f.default is MISSING and name not in raw:
                raise ValueError(f"{path}: remote config lacks required key {name!r}")
        try:
            return cls(**raw)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def from_env(cls) -> "RemoteConfig":
        endpoint = os.environ.get("SCENENAV_ENDPOINT")
        model = os.environ.get("SCENENAV_MODEL")
        if not endpoint or not model:
            raise OracleError("remote backend needs SCENENAV_ENDPOINT and SCENENAV_MODEL set")

        def number(name: str, default: str) -> float:
            raw = os.environ.get(f"SCENENAV_{name}", default)
            try:
                return float(raw)
            except ValueError:
                raise ValueError(f"SCENENAV_{name}={raw!r} is not a number") from None

        return cls(
            endpoint=endpoint,
            model=model,
            api_key_env=os.environ.get("SCENENAV_API_KEY_ENV", "SCENENAV_API_KEY"),
            temperature=number("TEMPERATURE", "0.3"),
            timeout=number("TIMEOUT", "30"),
        )


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    import requests

    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    response.raise_for_status()
    return response.json()


def _answer_line(reply: str) -> str | None:
    match = _ANSWER_RE.search(reply)
    if match is None:
        return None
    return match.group(1).splitlines()[0].strip().strip(".").strip()


class RemoteChatOracle(SemanticOracle):
    """Semantic oracle backed by a chat-completion endpoint.

    Also usable as the text backend of the schema-generation pipeline through
    :meth:`complete`.
    """

    def __init__(self, config: RemoteConfig, transport: Transport | None = None):
        self.config = config
        self._transport = transport if transport is not None else _requests_transport
        self._gate = threading.Semaphore(config.max_in_flight)

    # -- plumbing ---------------------------------------------------------------

    def complete(self, template_id: str, prompt: str) -> str:
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            try:
                with self._gate:
                    raw = self._transport(
                        self.config.endpoint, payload, headers, self.config.timeout
                    )
                return raw["choices"][0]["message"]["content"]
            except Exception as exc:  # transport or shape failure
                last_error = exc
                logger.warning(
                    "remote call %s attempt %d failed: %s", template_id, attempt + 1, exc
                )
        raise OracleError(f"remote backend failed for {template_id}: {last_error}")

    def _ask(self, template_id: str, **fields: str) -> str:
        prompt = prompt_template(template_id).format(**fields)
        return self.complete(template_id, prompt)

    def _ask_validated(
        self,
        template_id: str,
        validate: Callable[[str], object | None],
        default: object,
        degrade_note: str,
        **fields: str,
    ):
        """Query, validate the reply, retry on nonsense, then fall back."""
        last_reply = ""
        for _ in range(self.config.max_retries + 1):
            try:
                last_reply = self._ask(template_id, **fields)
            except OracleError:
                break
            parsed = validate(last_reply)
            if parsed is not None:
                return parsed
        logger.warning(
            "remote %s degraded to %s (last reply: %.120s)",
            template_id,
            degrade_note,
            last_reply,
        )
        return default

    # -- decisions ---------------------------------------------------------------

    def similar_labels(self, query: str, candidates: list[str]) -> list[str]:
        if not candidates:
            return []

        def validate(reply: str) -> list[str] | None:
            answer = _answer_line(reply)
            if answer is None:
                return None
            if answer.lower() in ("none", "none."):
                return []
            mentioned = {part.strip().strip("'\"") for part in answer.split(",")}
            return [c for c in candidates if c in mentioned]

        return self._ask_validated(
            "place_similarity",
            validate,
            default=[],
            degrade_note="empty candidate set",
            PlaceClass="place",
            Candidates=", ".join(candidates),
            Query=query,
        )

    def match_place(self, features_a: ObjectFeatures, features_b: ObjectFeatures) -> MatchDecision:
        def render(features: ObjectFeatures) -> str:
            if not features:
                return "(nothing)"
            return ", ".join(f"{desc} {label}".strip() for label, desc in features.items)

        def validate(reply: str) -> MatchDecision | None:
            answer = _answer_line(reply)
            if answer is None:
                return None
            word = answer.split()[0].lower() if answer.split() else ""
            if word not in ("true", "false", "yes", "no"):
                return None
            matched = word in ("true", "yes")
            conf_match = _CONFIDENCE_RE.search(reply)
            if conf_match is not None:
                confidence = float(conf_match.group(1))
            else:
                # verbal-confidence fallback; token-level scores are not
                # exposed by generic chat endpoints
                confidence = 0.75 if matched else 0.25
            confidence = min(max(confidence, 0.05), 0.95)
            reasoning_match = _REASONING_RE.search(reply)
            reasoning = reasoning_match.group(1).strip() if reasoning_match else ""
            return MatchDecision(matched=matched, confidence=confidence, reasoning=reasoning)

        return self._ask_validated(
            "place_match",
            validate,
            default=MatchDecision(matched=False, confidence=0.25, reasoning="degraded"),
            degrade_note="no match",
            PlaceClass="place",
            FeaturesA=render(features_a),
            FeaturesB=render(features_b),
        )

    def classify_elements(self, labels: list[str], schema: Schema) -> ClassifiedElements:
        if not labels:
            return ClassifiedElements(place_label=None)
        place_names = [c.name.lower() for c in schema.by_kind(ConceptKind.PLACE)]
        connector_names = [c.name.lower() for c in schema.by_kind(ConceptKind.CONNECTOR)]
        place_cls = place_names[0] if place_names else "place"
        connector_cls = connector_names[0] if connector_names else "connector"

        def validate(reply: str) -> ClassifiedElements | None:
            buckets: dict[str, list[str]] = {}
            for line in reply.splitlines():
                if ":" not in line:
                    continue
                key, _, value = line.partition(":")
                entries = [
                    e.strip().strip("'\"") for e in value.split(",") if e.strip()
                ]
                entries = [e for e in entries if e.lower() not in ("none", "-")]
                buckets[key.strip().lower().lstrip("*").rstrip("*")] = entries
            if not buckets:
                return None
            known = set(labels)
            place_entries = [e for e in buckets.get(place_cls, []) if e in known]
            connector_entries = [
                e
                for name in ([connector_cls] + connector_names)
                for e in buckets.get(name, [])
                if e in known
            ]
            object_entries = [e for e in buckets.get("object", []) if e in known]
            if not (place_entries or connector_entries or object_entries):
                return None
            seen: set[str] = set()
            connectors = []
            objects = []
            for e in connector_entries:
                if e not in seen:
                    seen.add(e)
                    connectors.append(e)
            for e in object_entries:
                if e not in seen:
                    seen.add(e)
                    objects.append(e)
            return ClassifiedElements(
                place_label=place_entries[0] if place_entries else None,
                connectors=tuple(connectors),
                objects=tuple(objects),
            )

        return self._ask_validated(
            "element_classification",
            validate,
            default=ClassifiedElements(
                place_label=None, connectors=(), objects=tuple(labels)
            ),
            degrade_note="all detections treated as objects",
            PlaceClass=place_cls,
            ConnectorClass=connector_cls,
            Labels=", ".join(f'"{l}"' for l in labels),
        )

    def match_object(
        self,
        probe: tuple[str, str, ObjectFeatures],
        candidates: list[tuple[str, str, str, ObjectFeatures]],
    ) -> str | None:
        if not candidates:
            return None
        label, desc, features = probe
        ids = {c[0] for c in candidates}

        def validate(reply: str) -> object | None:
            answer = _answer_line(reply)
            if answer is None:
                return None
            if answer.lower() in ("none", "none."):
                return "__none__"
            return answer if answer in ids else None

        rendered = "; ".join(
            f"{cid} ({c_label}) near {', '.join(f.labels()) or 'nothing'}"
            for cid, c_label, _, f in candidates
        )
        got = self._ask_validated(
            "object_association",
            validate,
            default="__none__",
            degrade_note="no association",
            ProbeLabel=f"{desc} {label}".strip(),
            ProbeFeatures=", ".join(features.labels()) or "nothing",
            Candidates=rendered,
        )
        return None if got == "__none__" else got

    def infer_region(
        self,
        schema: Schema,
        region_cls: str,
        existing: list[tuple[str, str]],
        current_place: tuple[str, str],
        previous_place: tuple[str, str] | None,
        previous_region: str | None = None,
        via_label: str | None = None,
    ) -> RegionChoice:
        existing_ids = {rid for rid, _ in existing}

        def validate(reply: str) -> RegionChoice | None:
            answer = _answer_line(reply)
            if answer is None:
                return None
            if answer.lower().endswith("(new)"):
                label = answer[: answer.lower().rfind("(new)")].strip().strip("'\"")
                return RegionChoice(is_new=True, value=label or region_cls.lower())
            if answer in existing_ids:
                return RegionChoice(is_new=False, value=answer)
            return None

        return self._ask_validated(
            "region_inference",
            validate,
            default=RegionChoice(is_new=True, value=region_cls.lower()),
            degrade_note="new region",
            PlaceClass="place",
            RegionClass=region_cls,
            Existing=", ".join(rid for rid, _ in existing) or "none",
            CurrentPlace=current_place[1],
            PreviousPlace=previous_place[1] if previous_place else "nowhere",
            PreviousRegion=previous_region or "no region",
            Subgoal=via_label or "an unknown passage",
        )

    def _select(
        self,
        template_id: str,
        candidates: list[tuple[str, str, str]],
        goal: str,
        extra_fields: dict[str, str],
    ) -> Proposal:
        ids = {c[0] for c in candidates}

        def validate(reply: str) -> Proposal | None:
            answer = _answer_line(reply)
            if answer is None or answer not in ids:
                return None
            reasoning_match = _REASONING_RE.search(reply)
            return Proposal(
                chosen=answer,
                reasoning=reasoning_match.group(1).strip() if reasoning_match else "",
            )

        rendered = "; ".join(
            f"{cid} ({label}): {summary}" if summary else f"{cid} ({label})"
            for cid, label, summary in candidates
        )
        return self._ask_validated(
            template_id,
            validate,
            default=Proposal(chosen=candidates[0][0], reasoning="degraded to first"),
            degrade_note="first candidate",
            Goal=goal,
            Candidates=rendered,
            **extra_fields,
        )

    def select_region(self, candidates: list[tuple[str, str, str]], goal: str) -> Proposal:
        if not candidates:
            raise ValueError("select_region needs at least one candidate")
        layout = "\n".join(
            f"- {cid} ({label}): {summary or 'not yet described'}"
            for cid, label, summary in candidates
        )
        return self._select(
            "region_proposal",
            candidates,
            goal,
            {"Layout": layout, "ConnectorClass": "connector"},
        )

    def select_object(self, objects: list[tuple[str, str, str]], goal: str) -> Proposal:
        if not objects:
            raise ValueError("select_object needs at least one candidate")
        return self._select("object_proposal", objects, goal, {})

    def goal_match(
        self, detections: list[tuple[str, str]], goal: str
    ) -> tuple[str, str] | None:
        if not detections:
            return None
        by_label = {label: (label, desc) for label, desc in detections}

        def validate(reply: str) -> object | None:
            answer = _answer_line(reply)
            if answer is None:
                return None
            if answer.lower() in ("none", "none."):
                return "__none__"
            answer = strip_suffix(answer)
            return by_label.get(answer) or None

        got = self._ask_validated(
            "goal_detection",
            validate,
            default="__none__",
            degrade_note="no goal",
            Goal=goal,
            Detections="; ".join(f"{label} ({desc})" for label, desc in detections),
        )
        return None if got == "__none__" else got
