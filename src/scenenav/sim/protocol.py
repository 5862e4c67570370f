"""Deterministic benchmark assembly: scenes and their episode specifications.

One protocol object expands into a fixed list of episode specifications, so
the evaluation command and the acceptance suite execute byte-identical
workloads for a given seed, including under process-pool parallelism.  The
same expansion serves generated homes and a scene loaded from a file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .episode import EpisodeSpec
from .scene import GroundTruthScene, generate_home_scene

__all__ = ["BenchmarkProtocol", "build_episodes", "GOAL_CATEGORIES"]

# common object categories, in the spirit of standard object-goal benchmarks
GOAL_CATEGORIES: list[str] = [
    "bed", "sofa", "tv", "toilet", "sink", "fridge", "oven", "desk", "computer",
    "dining table", "bathtub", "wardrobe", "mirror", "plant", "guitar",
]


@dataclass(frozen=True)
class BenchmarkProtocol:
    num_scenes: int = 20
    episodes_per_scene: int = 10
    scene_seed: int = 2500
    episode_seed: int = 31337
    horizon_factor: int = 2
    horizon_slack: int = 4
    goals: tuple[str, ...] = tuple(GOAL_CATEGORIES)


def build_episodes(
    protocol: BenchmarkProtocol, scene: GroundTruthScene | None = None
) -> list[EpisodeSpec]:
    """Expand the protocol into per-episode specs, fully determined by seeds.

    The episodes run on ``num_scenes`` homes generated from ``scene_seed``,
    or, when ``scene`` is given, all on that scene (``num_scenes`` and
    ``scene_seed`` then play no part).  Goals are the protocol's goals, as
    the protocol spells them, that some object of the scene satisfies, or
    every object label in the scene when it satisfies none.  Whether an
    object satisfies a goal is the rule oracle's goal test, which scores
    success too: a sofa is a "couch", and only a sink described as white
    fabric is a "white fabric sink".  A start avoids the places holding such
    an object, and the horizon counts hops to the nearest of them.  A scene
    with no objects at all, or a drawn goal that cannot be reached from the
    drawn start, raises ``ValueError``.
    """
    rng = np.random.default_rng(protocol.episode_seed)
    if scene is not None:
        scenes = [scene]
    else:
        scenes = [
            generate_home_scene(np.random.default_rng(protocol.scene_seed + s))
            for s in range(protocol.num_scenes)
        ]
    specs: list[EpisodeSpec] = []
    for world in scenes:
        labels = sorted(set(world.object_labels()))
        found = {goal: world.hosts(goal) for goal in protocol.goals}
        usable = [goal for goal in protocol.goals if found[goal]] or labels
        if not usable:
            raise ValueError(f"scene {world.env_label!r} holds no objects to search for")
        places = list(world.places)
        for _ in range(protocol.episodes_per_scene):
            goal = usable[int(rng.integers(len(usable)))]
            hosts = found.get(goal) or world.hosts(goal)
            start = places[0]
            for _ in range(30):
                start = places[int(rng.integers(len(places)))]
                if start not in hosts:
                    break
            shortest = world.shortest_hops(start, hosts)
            if shortest == float("inf"):
                raise ValueError(
                    f"scene {world.env_label!r}: goal {goal!r} cannot be reached "
                    f"from start {start!r}"
                )
            horizon = int(
                protocol.horizon_factor * max(shortest, 1) + protocol.horizon_slack
            )
            specs.append(
                EpisodeSpec(
                    scene=world,
                    start=start,
                    goal=goal,
                    horizon=horizon,
                    seed=int(rng.integers(1 << 31)),
                )
            )
    return specs
