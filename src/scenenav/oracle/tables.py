"""Lookup tables backing the deterministic rule oracle.

The tables stand in for generative semantic judgement: synonym groups for
label equivalence, a connector lexicon for leaf classification, co-occurrence
priors for region selection and a nearness prior for object selection.  All
tables build from a JSON-shaped dict and ship with home/market defaults.
``OracleTables.goal_test`` is the one test of whether an object is a goal.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["SynonymTable", "OracleTables", "default_tables", "strip_suffix"]

_SUFFIX = re.compile(r"_\d+$")


def strip_suffix(label: str) -> str:
    """A label without its instance suffix: ``sofa_2`` -> ``sofa``."""
    # a suffix starts with "_": most labels have none and skip the regex
    return _SUFFIX.sub("", label).strip() if "_" in label else label.strip()


DEFAULT_SYNONYM_GROUPS: list[list[str]] = [
    ["livingroom", "living room", "familyroom", "family room", "lounge", "sitting room"],
    ["bedroom", "guestroom", "guest room"],
    ["kitchen", "kitchenette"],
    ["bathroom", "washroom", "restroom"],
    ["diningroom", "dining room"],
    ["hallway", "hall"],
    ["office", "study"],
    ["couch", "sofa", "settee"],
    ["fridge", "refrigerator"],
    ["tv", "television"],
    ["armchair", "easy chair"],
    ["wardrobe", "closet"],
    ["nightstand", "bedside table"],
    ["stove", "cooker"],
    ["door", "doorway"],
    ["stairs", "staircase", "stairway"],
    ["picture", "painting"],
    ["rug", "carpet"],
    ["plant", "houseplant"],
    ["bathtub", "tub"],
    ["milk", "milk carton"],
    ["apples", "apple"],
]

# Labels counted with extra weight in place matching; large furniture is less
# prone to detection dropouts and dominates what a place looks like.
DEFAULT_LARGE_OBJECTS: list[str] = [
    "bed", "sofa", "couch", "settee", "table", "dining table", "coffee table",
    "desk", "wardrobe", "closet", "dresser", "bookshelf", "shelf", "cabinet",
    "fridge", "refrigerator", "oven", "stove", "counter", "bathtub", "tub",
    "tv", "television", "washer", "piano", "freezer", "sideboard",
]

DEFAULT_CONNECTOR_LEXICON: list[str] = [
    "door", "doorway", "doorframe", "entrance", "entryway", "gate", "archway",
    "arch", "stairs", "stair", "staircase", "stairway", "escalator", "elevator",
    "steps", "portal",
]

DEFAULT_STRUCTURAL_DISCARD: list[str] = ["floor", "ceiling", "wall", "walls"]

DEFAULT_PLACE_TERMS: list[str] = [
    "livingroom", "living room", "familyroom", "family room", "lounge",
    "bedroom", "guestroom", "kitchen", "kitchenette", "bathroom", "washroom",
    "diningroom", "dining room", "hallway", "hall", "corridor", "office",
    "study", "room", "aisle", "ward", "terminal", "store", "walkway", "lobby",
    "pantry", "garage", "basement", "attic", "balcony", "closet room",
]

# goal/object label -> place labels it usually occurs in
DEFAULT_COOCCURRENCE: dict[str, list[str]] = {
    "sink": ["kitchen", "bathroom"],
    "bed": ["bedroom"],
    "nightstand": ["bedroom"],
    "dresser": ["bedroom"],
    "wardrobe": ["bedroom"],
    "lamp": ["bedroom", "livingroom", "office"],
    "mirror": ["bathroom", "bedroom"],
    "toilet": ["bathroom"],
    "bathtub": ["bathroom"],
    "towel": ["bathroom"],
    "fridge": ["kitchen"],
    "oven": ["kitchen"],
    "stove": ["kitchen"],
    "kettle": ["kitchen"],
    "counter": ["kitchen"],
    "sofa": ["livingroom"],
    "couch": ["livingroom"],
    "tv": ["livingroom"],
    "coffee table": ["livingroom"],
    "armchair": ["livingroom"],
    "bookshelf": ["office", "livingroom"],
    "rug": ["livingroom", "bedroom"],
    "dining table": ["diningroom", "kitchen"],
    "chair": ["diningroom", "office", "kitchen"],
    "vase": ["diningroom", "livingroom"],
    "desk": ["office"],
    "computer": ["office"],
    "whiteboard": ["office"],
    "printer": ["office"],
    "guitar": ["livingroom", "bedroom"],
    "plant": ["livingroom", "hallway"],
    "sideboard": ["diningroom"],
    "tablecloth": ["diningroom"],
    "hamper": ["bathroom"],
    "doormat": ["hallway"],
    "bench": ["hallway"],
    "milk": ["dairy aisle"],
    "cheese": ["dairy aisle"],
    "yogurt": ["dairy aisle"],
    "butter": ["dairy aisle"],
    "apples": ["produce aisle"],
    "bananas": ["produce aisle"],
    "lettuce": ["produce aisle"],
    "bread": ["bakery aisle"],
    "bagels": ["bakery aisle"],
    "detergent": ["household aisle"],
    "sponges": ["household aisle"],
    "chips": ["snack aisle"],
    "cookies": ["snack aisle"],
}

# goal label -> object labels usually found right next to it
DEFAULT_NEARNESS: dict[str, list[str]] = {
    "sink": ["mirror", "toilet", "counter", "faucet", "towel"],
    "table": ["chair"],
    "dining table": ["chair", "vase"],
    "bed": ["nightstand", "lamp", "dresser", "pillow"],
    "tv": ["sofa", "couch", "coffee table"],
    "toilet": ["sink", "mirror", "bathtub"],
    "bathtub": ["towel", "mirror", "sink"],
    "oven": ["stove", "counter", "kettle"],
    "fridge": ["counter", "cabinet", "oven"],
    "computer": ["desk", "chair"],
    "desk": ["chair", "computer", "lamp"],
    "sofa": ["coffee table", "tv", "rug"],
    "couch": ["coffee table", "tv", "rug"],
    "guitar": ["sofa", "bookshelf"],
    "nightstand": ["bed", "lamp"],
    "mirror": ["sink", "dresser"],
    "chair": ["table", "desk", "dining table"],
    "milk": ["cheese", "yogurt"],
    "bread": ["bagels"],
}


@dataclass
class SynonymTable:
    """Disjoint groups of labels treated as semantically equivalent."""

    groups: list[frozenset[str]] = field(default_factory=list)
    _canon: dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for group in self.groups:
            if seen & group:
                overlap = sorted(seen & group)
                raise ValueError(f"synonym groups must be disjoint; {overlap} repeat")
            seen |= group
            rep = sorted(group)[0]
            for label in group:
                self._canon[label] = rep

    def canonical(self, label: str) -> str:
        key = label.strip().lower()
        return self._canon.get(key, key)

    def group_of(self, label: str) -> frozenset[str]:
        key = label.strip().lower()
        for group in self.groups:
            if key in group:
                return group
        return frozenset({key})


@dataclass
class OracleTables:
    synonyms: SynonymTable
    large_objects: frozenset[str]
    connector_lexicon: frozenset[str]
    structural_discard: frozenset[str]
    place_terms: frozenset[str]
    cooccurrence: dict[str, frozenset[str]]
    nearness: dict[str, frozenset[str]]

    def canonical(self, label: str) -> str:
        return self.synonyms.canonical(label)

    def canonical_base(self, label: str) -> str:
        """A label's canonical form without its instance suffix: ``bedroom_1`` -> ``bedroom``."""
        return self.synonyms.canonical(strip_suffix(label))

    def is_large(self, label: str) -> bool:
        canon = self.canonical(label)
        return canon in self._large_canon

    def __post_init__(self) -> None:
        self._large_canon = {self.canonical(l) for l in self.large_objects}
        self._connector_canon = {self.canonical(l) for l in self.connector_lexicon}
        self._place_canon = {self.canonical(l) for l in self.place_terms}
        self._cooc_canon = {
            self.canonical(k): {self.canonical(v) for v in vs}
            for k, vs in self.cooccurrence.items()
        }
        self._near_canon = {
            self.canonical(k): {self.canonical(v) for v in vs}
            for k, vs in self.nearness.items()
        }

    def is_connector_label(self, label: str) -> bool:
        return self.canonical(label) in self._connector_canon

    def is_structural(self, label: str) -> bool:
        return label.strip().lower() in self.structural_discard

    def is_place_term(self, label: str) -> bool:
        return self.canonical(label) in self._place_canon

    def strip_place_prefix(self, label: str) -> str:
        """``label`` without a leading place term: ``living room door_2`` -> ``door_2``.

        The longest term of one or two words that leaves a word is dropped,
        whatever whitespace separates the words.
        """
        parts = label.split()
        for n in (2, 1):
            if len(parts) > n and self.is_place_term(" ".join(parts[:n])):
                return " ".join(parts[n:]).strip()
        return label.strip()

    def cooccurs(self, goal: str) -> frozenset[str]:
        return frozenset(self._cooc_canon.get(self.canonical(goal), frozenset()))

    def near_labels(self, goal: str) -> frozenset[str]:
        return frozenset(self._near_canon.get(self.canonical(goal), frozenset()))

    def _goal_splits(self, goal: str) -> dict[str, list[list[str]]]:
        """Each spelling of a noun ``goal`` may end in -> its lists of leading descriptors."""
        tokens = goal.lower().split()
        splits: dict[str, list[list[str]]] = {}
        for i in range(len(tokens)):
            for spelling in self.synonyms.group_of(" ".join(tokens[i:])):
                splits.setdefault(spelling, []).append(tokens[:i])
        return splits

    def goal_nouns(self, goal: str) -> frozenset[str]:
        """The object labels, suffix-free and lower case, that ``goal_test(goal)`` can pass."""
        return frozenset(self._goal_splits(goal))

    def goal_test(self, goal: str) -> Callable[[str, str], bool]:
        """The one goal predicate: whether an object ``(label, desc)`` is a ``goal``.

        Some split of the goal into leading descriptors and a trailing noun
        must name the object by canonical label (a sofa is a "couch") and find
        every descriptor among the words of its label and description.  The
        goal is split here, once; the test it returns runs once per object.
        """
        splits = self._goal_splits(goal)

        def test(label: str, desc: str) -> bool:
            key = strip_suffix(label).lower()
            if key not in splits:
                return False
            words = set(f"{label} {desc}".lower().split())
            return any(all(d in words for d in ds) for ds in splits[key])

        return test

    @classmethod
    def from_dict(cls, raw: dict) -> "OracleTables":
        groups = [
            frozenset(l.strip().lower() for l in group)
            for group in raw.get("synonyms", DEFAULT_SYNONYM_GROUPS)
        ]
        return cls(
            synonyms=SynonymTable(groups=groups),
            large_objects=frozenset(
                l.lower() for l in raw.get("large_objects", DEFAULT_LARGE_OBJECTS)
            ),
            connector_lexicon=frozenset(
                l.lower() for l in raw.get("connector_lexicon", DEFAULT_CONNECTOR_LEXICON)
            ),
            structural_discard=frozenset(
                l.lower() for l in raw.get("structural_discard", DEFAULT_STRUCTURAL_DISCARD)
            ),
            place_terms=frozenset(
                l.lower() for l in raw.get("place_terms", DEFAULT_PLACE_TERMS)
            ),
            cooccurrence={
                k.lower(): frozenset(v.lower() for v in vs)
                for k, vs in raw.get("cooccurrence", DEFAULT_COOCCURRENCE).items()
            },
            nearness={
                k.lower(): frozenset(v.lower() for v in vs)
                for k, vs in raw.get("nearness", DEFAULT_NEARNESS).items()
            },
        )


@functools.cache
def default_tables() -> OracleTables:
    """The stock tables, built once per process and shared by every caller.

    The shared instance is read-only: build a private one with
    ``OracleTables.from_dict`` to change a table.
    """
    return OracleTables.from_dict({})
