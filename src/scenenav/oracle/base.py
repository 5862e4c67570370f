"""The semantic decisions the mapper and planner ask for, and ``OracleError``.

``RuleOracle`` is the one backend that makes these decisions.  The remote
chat backend serves schema generation only; it raises ``OracleError`` when
the endpoint stays unusable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..graph import ObjectFeatures
from ..schema import Schema

__all__ = [
    "MatchDecision",
    "ClassifiedElements",
    "RegionChoice",
    "SemanticOracle",
    "OracleError",
]


class OracleError(Exception):
    """A backend failed to produce a usable answer."""


@dataclass(frozen=True)
class MatchDecision:
    matched: bool
    confidence: float  # always strictly inside (0, 1)
    reasoning: str = ""


@dataclass(frozen=True)
class ClassifiedElements:
    place_label: str | None
    connectors: tuple[str, ...] = ()
    objects: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegionChoice:
    """Either an existing region node id or a label for a brand-new one."""

    is_new: bool
    value: str


@dataclass(frozen=True)
class Proposal:
    chosen: str
    reasoning: str = ""


class SemanticOracle(abc.ABC):
    """The open-vocabulary judgement calls the mapper and planner rely on."""

    @abc.abstractmethod
    def similar_labels(self, query: str, candidates: list[str]) -> list[str]:
        """Subset of ``candidates`` naming the same kind of place as ``query``."""

    @abc.abstractmethod
    def match_place(self, features_a: ObjectFeatures, features_b: ObjectFeatures) -> MatchDecision:
        """Do two object-feature sets describe the same place?"""

    @abc.abstractmethod
    def classify_elements(self, labels: list[str], schema: Schema) -> ClassifiedElements:
        """Partition detection labels into place / connectors / objects."""

    @abc.abstractmethod
    def match_object(
        self,
        probe: tuple[str, str, ObjectFeatures],
        candidates: list[tuple[str, str, str, ObjectFeatures]],
    ) -> str | None:
        """Associate an observed leaf with at most one candidate node id."""

    @abc.abstractmethod
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
        """Assign the current place to an existing abstraction or a new one."""

    @abc.abstractmethod
    def select_region(
        self, candidates: list[tuple[str, str, str]], goal: str
    ) -> Proposal:
        """Pick the candidate (id, label, summary) most worth searching."""

    @abc.abstractmethod
    def select_object(self, objects: list[tuple[str, str, str]], goal: str) -> Proposal:
        """Pick the object (id, label, desc) most likely near the goal."""

    @abc.abstractmethod
    def goal_match(
        self, detections: list[tuple[str, str]], goal: str
    ) -> tuple[str, str] | None:
        """Return the detection satisfying the goal description, if any."""
