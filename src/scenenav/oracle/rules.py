"""Deterministic rule backend: table lookups instead of generative calls.

Every decision is a pure function of the inputs, the oracle's tables (fixed
when it is built) and the module constants below, so replays are
reproducible bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import math

from ..graph import ObjectFeatures
from ..schema import ConceptKind, EdgeKind, Schema
from .base import ClassifiedElements, MatchDecision, Proposal, RegionChoice, SemanticOracle
from .tables import OracleTables, default_tables, strip_suffix

__all__ = ["RuleOracle"]


# place-match rule: weighted label overlap at or above MATCH_THRESHOLD matches;
# a large object counts LARGE_WEIGHT times (positive, as _overlap requires);
# confidence is a logistic of the overlap around 0.5 with slope
# CONFIDENCE_STEEPNESS
MATCH_THRESHOLD = 0.5
LARGE_WEIGHT = 3.0
CONFIDENCE_STEEPNESS = 4.0


# Bounds of the per-oracle memos; each is cleared when full.  Labels repeat
# across a run, but mapper place ids ("bedroom_12") and filter cell tags grow
# with the map.  The summary memo shares the label bound: a frozen map offers
# one summary per place, region and frontier connector.  So does the bag memo:
# the mapper compares the same candidates' features frame after frame, and the
# graph hands it the same features tuple each time.  A bag maps each canonical
# label to its overlap weight times its count, so an overlap reads no weight
# and the memo saves the weighting as well as the canonicalising.  Repeated
# place-match questions come from the filter's particles within one step
# (about a dozen distinct ones per step), so a small memo catches nearly all
# of them; a larger one mostly keeps mapper feature tuples alive.
_LABEL_MEMO_SIZE = 1024
_MATCH_MEMO_SIZE = 64


class RuleOracle(SemanticOracle):
    """Rule decisions, memoised where the same question recurs.

    Every decision is a pure function of its inputs and ``tables``, which is
    fixed at construction, so the memos are exact for the oracle's lifetime.
    """

    def __init__(self, tables: OracleTables | None = None):
        self._tables = tables if tables is not None else default_tables()
        # raw label -> canonical label, canonical label -> overlap weight
        self._canon_memo: dict[str, str] = {}
        self._weight_memo: dict[str, float] = {}
        # (items a, items b) -> match_place decision
        self._match_memo: dict[tuple, MatchDecision] = {}
        # candidate summary -> the canonical labels it lists
        self._summary_memo: dict[str, frozenset[str]] = {}
        # features items -> canonical label -> weight x count
        self._bag_memo: dict[tuple, dict[str, float]] = {}

    @property
    def tables(self) -> OracleTables:
        return self._tables

    # -- label handling --------------------------------------------------------

    def _canon(self, label: str) -> str:
        memo = self._canon_memo
        canon = memo.get(label)
        if canon is None:
            if len(memo) >= _LABEL_MEMO_SIZE:
                memo.clear()
            canon = memo[label] = self.tables.canonical(strip_suffix(label))
        return canon

    def _weight(self, canon_label: str) -> float:
        memo = self._weight_memo
        weight = memo.get(canon_label)
        if weight is None:
            if len(memo) >= _LABEL_MEMO_SIZE:
                memo.clear()
            large = self.tables.is_large(canon_label)
            weight = memo[canon_label] = LARGE_WEIGHT if large else 1.0
        return weight

    def _summary_labels(self, summary: str) -> frozenset[str]:
        """Canonical labels of a comma-separated summary; select_region only tests membership."""
        memo = self._summary_memo
        labels = memo.get(summary)
        if labels is None:
            if len(memo) >= _LABEL_MEMO_SIZE:
                memo.clear()
            labels = memo[summary] = frozenset(
                self._canon(s) for s in summary.split(",") if s.strip()
            )
        return labels

    def _bag(self, features: ObjectFeatures) -> dict[str, float]:
        """Canonical label -> overlap weight x count over ``features``; shared, read it only."""
        memo = self._bag_memo
        bag = memo.get(features.items)
        if bag is None:
            if len(memo) >= _LABEL_MEMO_SIZE:
                memo.clear()
            canon, weight = self._canon_memo.get, self._weight_memo.get
            counts: dict[str, int] = {}
            for label, _ in features.items:
                label = canon(label) or self._canon(label)
                counts[label] = counts.get(label, 0) + 1
            bag = memo[features.items] = {
                label: (weight(label) or self._weight(label)) * count
                for label, count in counts.items()
            }
        return bag

    def _overlap(self, a: dict[str, float], b: dict[str, float]) -> float:
        """Weighted Jaccard on canonical label multisets; empty-vs-empty is 1.

        Rounding is monotone, so w * min(x, y) == min(w * x, w * y) exactly for
        w > 0: summing the bags' weighted counts in sorted label order gives
        the same float as weighting each count here.
        """
        if not a and not b:
            return 1.0
        inter = 0.0
        union = 0.0
        get_a, get_b = a.get, b.get
        for label in sorted({**a, **b}):  # the union of both bags' labels
            x, y = get_a(label, 0.0), get_b(label, 0.0)
            if x > y:
                x, y = y, x
            inter += x
            union += y
        return inter / union if union else 0.0

    # -- decisions ---------------------------------------------------------------

    def similar_labels(self, query: str, candidates: list[str]) -> list[str]:
        want = self._canon(query)
        canon = self._canon_memo.get
        return [c for c in candidates if (canon(c) or self._canon(c)) == want]

    def match_place(self, features_a: ObjectFeatures, features_b: ObjectFeatures) -> MatchDecision:
        key = (features_a.items, features_b.items)
        memo = self._match_memo
        decision = memo.get(key)
        if decision is None:
            if len(memo) >= _MATCH_MEMO_SIZE:
                memo.clear()
            decision = memo[key] = self._decide_match(features_a, features_b)
        return decision

    def _decide_match(self, a: ObjectFeatures, b: ObjectFeatures) -> MatchDecision:
        overlap = self._overlap(self._bag(a), self._bag(b))
        return MatchDecision(
            matched=overlap >= MATCH_THRESHOLD,
            confidence=1.0 / (1.0 + math.exp(-CONFIDENCE_STEEPNESS * (overlap - 0.5))),
            reasoning=f"weighted label overlap {overlap:.3f} vs threshold {MATCH_THRESHOLD}",
        )

    def classify_elements(self, labels: list[str], schema: Schema) -> ClassifiedElements:
        place_label: str | None = None
        connectors: list[str] = []
        objects: list[str] = []
        has_connector_concepts = bool(schema.by_kind(ConceptKind.CONNECTOR))
        seen: set[str] = set()
        for raw in labels:
            cleaned = self._strip_place_prefix(raw)
            if cleaned in seen:
                continue
            seen.add(cleaned)
            base = strip_suffix(cleaned).lower()
            if self.tables.is_structural(base):
                continue
            if self.tables.is_place_term(base):
                if place_label is None:
                    place_label = cleaned
                continue
            if has_connector_concepts and self.tables.is_connector_label(base):
                connectors.append(cleaned)
            else:
                objects.append(cleaned)
        return ClassifiedElements(
            place_label=place_label, connectors=tuple(connectors), objects=tuple(objects)
        )

    def _strip_place_prefix(self, label: str) -> str:
        # detectors sometimes emit "livingroom sofa"; drop the place word
        parts = label.split(" ")
        if len(parts) > 1 and self.tables.is_place_term(parts[0]):
            return " ".join(parts[1:]).strip()
        return label.strip()

    def match_object(
        self,
        probe: tuple[str, str, ObjectFeatures],
        candidates: list[tuple[str, str, str, ObjectFeatures]],
    ) -> str | None:
        probe_label, _, probe_features = probe
        want = self._canon(probe_label)
        best_id: str | None = None
        best_score = -1.0
        probe_bag: dict[str, float] | None = None
        for cand_id, label, _, features in candidates:
            if self._canon(label) != want:
                continue
            if probe_bag is None:
                probe_bag = self._bag(probe_features)
            score = self._overlap(probe_bag, self._bag(features))
            if score > best_score:
                best_score = score
                best_id = cand_id
        return best_id

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
        if not existing:
            return RegionChoice(is_new=True, value=region_cls.lower())
        if via_label and self._crosses_region_boundary(schema, region_cls, via_label):
            return RegionChoice(is_new=True, value=region_cls.lower())
        existing_ids = {rid for rid, _ in existing}
        if previous_region is not None and previous_region in existing_ids:
            return RegionChoice(is_new=False, value=previous_region)
        return RegionChoice(is_new=True, value=region_cls.lower())

    def _crosses_region_boundary(self, schema: Schema, region_cls: str, via_label: str) -> bool:
        """True when the traversed element's concept links regions of this class."""
        base = strip_suffix(via_label)
        region = schema.concepts.get(region_cls)
        if region is None:
            return False
        for concept in schema.concepts.values():
            if concept.kind not in (ConceptKind.PLACE, ConceptKind.CONNECTOR):
                continue
            name = concept.name.lower()
            if not (self.tables.canonical(name) == self.tables.canonical(base)
                    or name == base.lower()):
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

    def select_region(self, candidates: list[tuple[str, str, str]], goal: str) -> Proposal:
        """Take the first candidate of the highest score tier.

        The loop stops at the first candidate whose contents name the goal:
        nothing can outrank it and ties go to the earlier candidate.
        """
        if not candidates:
            raise ValueError("select_region needs at least one candidate")
        want_places = self.tables.cooccurs(goal)
        goal_canon = self._canon(goal)
        best = candidates[0]
        best_score = -1.0
        for cand in candidates:
            cand_id, label, summary = cand
            summary_labels = self._summary_labels(summary)
            if goal_canon in summary_labels:
                best_score = 3.0
                best = cand
                break
            score = 0.0
            if not summary_labels.isdisjoint(want_places):
                # a coarse region whose children include a likely place
                score = 2.5
            elif self._canon(label) in want_places:
                score = 2.0
            elif self.tables.is_connector_label(strip_suffix(label)):
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

    def select_object(self, objects: list[tuple[str, str, str]], goal: str) -> Proposal:
        if not objects:
            raise ValueError("select_object needs at least one candidate")
        goal_canon = self._canon(goal)
        for obj_id, label, _ in objects:
            if self._canon(label) == goal_canon:
                return Proposal(chosen=obj_id, reasoning="the object is the goal itself")
        near = self.tables.near_labels(goal)
        for obj_id, label, _ in objects:
            if self._canon(label) in near:
                return Proposal(
                    chosen=obj_id, reasoning=f"a {strip_suffix(label)} is usually next to a {goal}"
                )
        return Proposal(chosen=objects[0][0], reasoning="no prior; taking the first object")

    def goal_match(
        self, detections: list[tuple[str, str]], goal: str
    ) -> tuple[str, str] | None:
        is_goal = self.tables.goal_test(goal)
        return next(((label, desc) for label, desc in detections if is_goal(label, desc)), None)
