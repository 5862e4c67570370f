"""Synthetic N-room homes for the map-size sweep.

The recipe: N rooms whose labels cycle through the 7 ``ROOM_POOLS`` labels;
each room holds 4 objects drawn from its label's pool, all carrying one
description that no other room uses; room i gets a door to a random room among
the previous 4.  Everything is drawn from a generator seeded with
``(seed, N)``, so one benchmark seed fixes every size's home and walk.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from scenenav.mapper import DetectionFrame
from scenenav.sim import cover_walk, noiseless, walk_to_frames
from scenenav.sim.scene import (
    COLORS,
    MATERIALS,
    ROOM_POOLS,
    GroundTruthScene,
    SceneConnector,
    SceneObject,
    ScenePlace,
    SceneRegion,
)

SWEEP_SIZES = (10, 40, 160, 320)
OBJECTS_PER_ROOM = 4
DOOR_REACH = 4

# "red and blue wood"-style descriptions: two distinct colours and a material give
# 8 * 7 * 8 = 448 distinct descriptions, enough for one per room at N = 320
_DESCS = [f"{a} and {b} {m}" for a, b in permutations(COLORS, 2) for m in MATERIALS]


def sweep_home(n: int, seed: int) -> GroundTruthScene:
    """One N-room home, fully determined by ``(seed, n)``."""
    if not 1 <= n <= len(_DESCS):
        raise ValueError(f"sweep homes hold 1..{len(_DESCS)} rooms, not {n}")
    rng = np.random.default_rng((seed, n))
    labels = list(ROOM_POOLS)
    descs = rng.choice(len(_DESCS), size=n, replace=False)
    scene = GroundTruthScene(env_label="home")
    ids: list[str] = []
    for i in range(n):
        label = labels[i % len(labels)]
        pool = ROOM_POOLS[label]
        picks = sorted(rng.choice(len(pool), size=OBJECTS_PER_ROOM, replace=False))
        desc = _DESCS[int(descs[i])]
        pid = f"{label}_{i + 1}"
        scene.places[pid] = ScenePlace(
            id=pid,
            cls="Corridor" if label == "hallway" else "Room",
            label=label,
            objects=[SceneObject(label=pool[k], desc=desc) for k in picks],
        )
        if ids:
            other = ids[int(rng.integers(max(0, i - DOOR_REACH), i))]
            cid = f"door_{i}"
            scene.connectors[cid] = SceneConnector(id=cid, label="door", endpoints=(pid, other))
            scene.links.append((pid, other, cid))
        ids.append(pid)
    scene.regions["floor_1"] = SceneRegion(id="floor_1", cls="Floor", label="floor", children=ids)
    return scene


def sweep_frames(scene: GroundTruthScene, seed: int) -> list[DetectionFrame]:
    """A noiseless cover walk over the home, rendered as detection frames."""
    walk = cover_walk(scene, next(iter(scene.places)))
    return walk_to_frames(scene, walk, noiseless(), np.random.default_rng((seed, len(scene.places), 1)))
