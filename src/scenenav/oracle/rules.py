"""The navigation oracle: the semantic decisions the mapper, planner and
filter ask for, made by table lookups instead of generative calls.

Every decision is a pure function of the inputs, the oracle's tables (fixed
when it is built) and the module constants below, so replays are
reproducible bit-for-bit across runs and platforms.  Object features arrive
as plain tuples of ``(label, desc)`` pairs (``graph.Features``), and the bag
and place-match memos key on those tuples as they are.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable

from ..graph import Features
from ..schema import CONNECTOR, OBJECT_ROLE, PLACE, ConceptKind, Schema
from .base import MatchDecision, Proposal, RegionChoice
from .tables import OracleTables, default_tables, strip_suffix

__all__ = ["RuleOracle"]


# place-match rule: weighted label overlap at or above MATCH_THRESHOLD matches;
# a large object counts LARGE_WEIGHT times (positive, as _overlap requires);
# confidence is a logistic of the overlap around 0.5 with slope
# CONFIDENCE_STEEPNESS
MATCH_THRESHOLD = 0.5
LARGE_WEIGHT = 3.0
CONFIDENCE_STEEPNESS = 4.0


# Bounds of the per-oracle memos; each is cleared when full.  `scenenav run`
# builds one oracle per run (one per worker process under --jobs), so the
# memos carry from episode to episode.  Label memos are keyed by the labels
# the scenes and detectors use, which repeat across a run; what grows with the
# map are candidate rows' label tuples and feature tuples.  Repeated place-match
# questions come from the filter's particles within one step (about a dozen
# distinct ones per step), so a small memo catches nearly all of them; a larger
# one mostly keeps mapper feature tuples alive.  Goal memos hold a run's few
# goals, so the small bound serves them too.
_LABEL_MEMO_SIZE = 1024
_MATCH_MEMO_SIZE = 64


# select_region's score tiers and what each says about the pick
_REGION_REASONS = {
    3.0: "its contents mention the goal",
    2.5: "it holds a place where the goal is typical",
    2.0: "the goal is typical for this kind of place",
    1.0: "an unexplored passage may lead to the goal",
}


class _Memo(dict):
    """``memo[key]`` is ``compute(key)``, kept until the memo is full and cleared.

    ``compute`` must not hold the oracle that owns the memo: the oracle would
    then sit in a reference cycle and outlive its last use until a full
    garbage collection.
    """

    __slots__ = ("_compute", "_size")

    def __init__(self, compute: Callable, size: int):
        super().__init__()
        self._compute = compute
        self._size = size

    def __missing__(self, key):
        if len(self) >= self._size:
            self.clear()
        value = self[key] = self._compute(key)
        return value


class RuleOracle:
    """The open-vocabulary judgement calls, memoised where the same question recurs.

    Every decision is a pure function of its inputs and ``tables``, which is
    fixed at construction, so the memos are exact for the oracle's lifetime
    and one oracle can serve every episode of a run.
    """

    def __init__(self, tables: OracleTables | None = None):
        tables = self._tables = tables if tables is not None else default_tables()
        # the computes reach overridable methods through a proxy, never self
        oracle = weakref.proxy(self)
        # raw label -> canonical label, canonical label -> overlap weight
        canon = self._canon = _Memo(tables.canonical_base, _LABEL_MEMO_SIZE)
        weight = self._weights = _Memo(
            lambda label: LARGE_WEIGHT if tables.is_large(label) else 1.0, _LABEL_MEMO_SIZE
        )
        # a candidate row's labels -> the set of their canonical labels
        self._summaries = _Memo(
            lambda labels: frozenset(map(canon.__getitem__, labels)), _LABEL_MEMO_SIZE
        )

        def bag(items: Features) -> dict[str, float]:
            counts: dict[str, int] = {}
            for label, _ in items:
                label = canon[label]
                counts[label] = counts.get(label, 0) + 1
            return {label: weight[label] * count for label, count in counts.items()}

        # features -> canonical label -> weight x count
        self._bags = _Memo(bag, _LABEL_MEMO_SIZE)
        # (features a, features b) -> match_place decision
        self._matches = _Memo(lambda key: oracle._decide_match(*key), _MATCH_MEMO_SIZE)
        # detection label -> its schema-free kind
        self._elements = _Memo(lambda label: oracle._element_kind(label), _LABEL_MEMO_SIZE)
        # goal -> its test, split once per run (a run asks a few goals);
        # (goal, label, desc) -> whether that detection is the goal
        goal_tests = self._goal_tests = _Memo(tables.goal_test, _MATCH_MEMO_SIZE)
        self._goal_hits = _Memo(
            lambda key: goal_tests[key[0]](key[1], key[2]), _LABEL_MEMO_SIZE
        )
        # goal -> (places it co-occurs in, canonical goal), for select_region
        self._region_goals = _Memo(
            lambda goal: (tables.cooccurs(goal), canon[goal]), _MATCH_MEMO_SIZE
        )

    @property
    def tables(self) -> OracleTables:
        return self._tables

    # -- label handling --------------------------------------------------------

    def _bag(self, features: Features) -> dict[str, float]:
        """Canonical label -> overlap weight x count over ``features``; shared, read it only."""
        return self._bags[features]

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

    def similar_labels(self, query: str, labels: list[str]) -> list[int]:
        """Positions, in order, of the ``labels`` naming the same kind of place as ``query``."""
        canon = self._canon
        want = canon[query]
        return [i for i, label in enumerate(labels) if canon[label] == want]

    def match_place(self, features_a: Features, features_b: Features) -> MatchDecision:
        """Do two object-feature tuples describe the same place?"""
        return self._matches[features_a, features_b]

    def _decide_match(self, a: Features, b: Features) -> MatchDecision:
        overlap = self._overlap(self._bag(a), self._bag(b))
        return MatchDecision(
            matched=overlap >= MATCH_THRESHOLD,
            confidence=1.0 / (1.0 + math.exp(-CONFIDENCE_STEEPNESS * (overlap - 0.5))),
            reasoning=f"weighted label overlap {overlap:.3f} vs threshold {MATCH_THRESHOLD}",
        )

    def classify_elements(self, labels: list[str], schema: Schema) -> list[ConceptKind | None]:
        """The kind of each detection label, in order.

        ``OBJECT_ROLE``, ``CONNECTOR``, ``PLACE`` for a place word, or ``None``
        for structure (walls, floors); a connector word is an object under a
        schema without connector concepts.
        """
        kinds = [self._elements[label] for label in labels]
        # whether the schema has connectors is asked per call, never memoised
        if not schema.by_kind(CONNECTOR):
            return [OBJECT_ROLE if kind is CONNECTOR else kind for kind in kinds]
        return kinds

    def _element_kind(self, label: str) -> ConceptKind | None:
        """A detection label's kind, whatever the schema."""
        base = strip_suffix(self.tables.strip_place_prefix(label)).lower()
        tables = self.tables
        if tables.is_structural(base):
            return None
        if tables.is_place_term(base):
            return PLACE
        if tables.is_connector_label(base):
            return CONNECTOR
        return OBJECT_ROLE

    def match_object(
        self,
        probe: tuple[str, str, Features],
        candidates: list[tuple[str, str, str, Features]],
    ) -> str | None:
        """Associate an observed leaf with at most one candidate node id."""
        probe_label, _, probe_features = probe
        want = self._canon[probe_label]
        best_id: str | None = None
        best_score = -1.0
        probe_bag: dict[str, float] | None = None
        for cand_id, label, _, features in candidates:
            if self._canon[label] != want:
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
        """Assign the current place to an existing abstraction or a new one."""
        if not existing:
            return RegionChoice(is_new=True, value=region_cls.lower())
        if via_label and self._crosses_region_boundary(schema, region_cls, via_label):
            return RegionChoice(is_new=True, value=region_cls.lower())
        existing_ids = {rid for rid, _ in existing}
        if previous_region is not None and previous_region in existing_ids:
            return RegionChoice(is_new=False, value=previous_region)
        return RegionChoice(is_new=True, value=region_cls.lower())

    def _crosses_region_boundary(self, schema: Schema, region_cls: str, via_label: str) -> bool:
        """True when the traversed element names a location concept linked to this region class."""
        # a place word goes first, as for the classifier: "living room stairs_3" is stairs
        label = self.tables.strip_place_prefix(via_label)
        canon, lower = self._canon[label], strip_suffix(label).lower()
        canonical = self.tables.canonical
        return any(
            canonical(name) == canon or name.lower() == lower
            for name in schema.linked_locations(region_cls)
        )

    def select_region(
        self, candidates: list[tuple[str, str, tuple[str, ...]]], goal: str
    ) -> Proposal:
        """Pick the candidate (id, label, contents' labels) most worth searching.

        Takes the first candidate of the highest score tier.

        The loop stops at the first candidate whose contents name the goal:
        nothing can outrank it and ties go to the earlier candidate.  The
        goal's facts (the places it co-occurs in, its canonical label), each
        contents tuple's canonical labels and each candidate label's canonical
        label and kind are read from memos, so each is derived once per goal,
        tuple and label.  A candidate is a passage when ``classify_elements``
        would call its label a connector, whatever the schema.
        """
        if not candidates:
            raise ValueError("select_region needs at least one candidate")
        want_places, goal_canon = self._region_goals[goal]
        summaries, canon, kinds = self._summaries, self._canon, self._elements
        best = candidates[0]
        best_score = -1.0
        for cand in candidates:
            summary_labels = summaries[cand[2]]
            if goal_canon in summary_labels:
                best_score = 3.0
                best = cand
                break
            if not summary_labels.isdisjoint(want_places):
                # a coarse region whose children include a likely place
                score = 2.5
            else:
                label = cand[1]
                if canon[label] in want_places:
                    score = 2.0
                elif kinds[label] is CONNECTOR:
                    score = 1.0
                else:
                    score = 0.0
            if score > best_score:
                best_score = score
                best = cand
        return Proposal(
            chosen=best[0],
            reasoning=_REGION_REASONS.get(best_score, "no candidate stood out; taking the first"),
        )

    def select_object(self, objects: list[tuple[str, str, str]], goal: str) -> Proposal:
        """Pick the object (id, label, desc) most likely near the goal."""
        if not objects:
            raise ValueError("select_object needs at least one candidate")
        goal_canon = self._canon[goal]
        for obj_id, label, _ in objects:
            if self._canon[label] == goal_canon:
                return Proposal(chosen=obj_id, reasoning="the object is the goal itself")
        near = self.tables.near_labels(goal)
        for obj_id, label, _ in objects:
            if self._canon[label] in near:
                return Proposal(
                    chosen=obj_id, reasoning=f"a {strip_suffix(label)} is usually next to a {goal}"
                )
        return Proposal(chosen=objects[0][0], reasoning="no prior; taking the first object")

    def goal_match(self, detections: list[tuple[str, str]], goal: str) -> int | None:
        """The position of the first ``(label, desc)`` detection satisfying the goal, if any."""
        hits = self._goal_hits
        return next(
            (i for i, (label, desc) in enumerate(detections) if hits[goal, label, desc]), None
        )
