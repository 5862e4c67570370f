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


def default_noise(
    recall: float = 0.9, synonym: float = 0.1, confusion: float = 0.1
) -> NoiseModel:
    """Observation noise at the given detection recall and swap/mislabel rates.

    The defaults are the stock acceptance setting: 10% dropouts, swaps and
    mislabels.  A place whose label sits in a confusion group is mislabelled
    with probability ``confusion``, split evenly over the group's other
    labels; at 0 no label is confused and no random number is drawn for it.
    """
    if not 0.0 <= confusion <= 1.0:
        raise ValueError(f"confusion must lie in [0, 1], got {confusion}")
    table: dict[str, list[tuple[str, float]]] = {}
    if confusion > 0:
        for group in _PLACE_GROUPS:
            for label in group:
                alts = [g for g in group if g != label]
                table[label] = [(alt, confusion / len(alts)) for alt in alts]
    return NoiseModel(detect_recall=recall, synonym_rate=synonym, place_confusion=table)
