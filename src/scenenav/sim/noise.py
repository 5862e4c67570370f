"""Observation noise for the discrete world: dropouts, synonym swaps, mislabels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..oracle.tables import DEFAULT_SYNONYM_GROUPS

__all__ = ["NoiseModel", "noiseless", "default_noise"]

# place labels the confusion table may swap within
_PLACE_GROUPS = [
    ["livingroom", "familyroom", "lounge"],
    ["bedroom", "guestroom"],
    ["kitchen", "kitchenette"],
    ["bathroom", "washroom"],
    ["hallway", "hall"],
    ["office", "study"],
]

# default noise mislabels a grouped place label with probability 0.1, split
# over the group's other labels.  The rule oracle reads a mislabel back as the
# true label (each group sits in one synonym group), but the draw advances the
# random stream: without it every default-noise run draws, and scores, anew.
_PLACE_CONFUSION: dict[str, list[tuple[str, float]]] = {
    label: [(alt, 0.1 / (len(group) - 1)) for alt in group if alt != label]
    for group in _PLACE_GROUPS
    for label in group
}

# lowercased label -> the other labels of its synonym group, for synonym swaps
_PEERS: dict[str, list[str]] = {
    label.lower(): [l for l in group if l != label]
    for group in DEFAULT_SYNONYM_GROUPS
    for label in group
    if len(group) > 1
}


@dataclass
class NoiseModel:
    """Seed-deterministic corruption applied when a frame is rendered."""

    detect_recall: float = 1.0
    synonym_rate: float = 0.0
    place_confusion: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.detect_recall <= 1.0:
            raise ValueError(f"detect_recall must lie in [0, 1], got {self.detect_recall}")
        if not 0.0 <= self.synonym_rate <= 1.0:
            raise ValueError(f"synonym_rate must lie in [0, 1], got {self.synonym_rate}")

    def detected(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.detect_recall)

    def observe_label(self, label: str, rng: np.random.Generator) -> str:
        peers = _PEERS.get(label.lower())
        if peers and rng.random() < self.synonym_rate:
            return peers[int(rng.integers(len(peers)))]
        return label

    def confuse_place(self, label: str, rng: np.random.Generator) -> str:
        rows = self.place_confusion.get(label.lower())
        if not rows:
            return label
        draw = rng.random()
        acc = 0.0
        for alt, prob in rows:
            acc += prob
            if draw < acc:
                return alt
        return label


def noiseless() -> NoiseModel:
    return NoiseModel(detect_recall=1.0, synonym_rate=0.0)


def default_noise() -> NoiseModel:
    """The stock acceptance setting: 10% dropouts, synonym swaps and place mislabels."""
    return NoiseModel(detect_recall=0.9, synonym_rate=0.1, place_confusion=_PLACE_CONFUSION)
