"""Deterministic benchmark assembly: scenes and their episode specifications.

One protocol object expands into a fixed list of episode specifications, so
the evaluation command and the acceptance suite execute byte-identical
workloads for a given seed, including under process-pool parallelism.  The
same expansion serves generated homes and a scene loaded from a file.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ..oracle.tables import default_tables, strip_suffix
from .episode import EpisodeSpec
from .scene import GroundTruthScene, generate_home_scene

__all__ = ["BenchmarkProtocol", "build_episodes", "GOAL_CATEGORIES"]

# common object categories, in the spirit of standard object-goal benchmarks
GOAL_CATEGORIES: list[str] = [
    "bed", "sofa", "tv", "toilet", "sink", "fridge", "oven", "desk", "computer",
    "dining table", "bathtub", "wardrobe", "mirror", "plant", "guitar",
]

# an episode's horizon in steps: HORIZON_FACTOR * max(shortest hops, 1) + HORIZON_SLACK
HORIZON_FACTOR = 2
HORIZON_SLACK = 4


@dataclass(frozen=True)
class BenchmarkProtocol:
    num_scenes: int = 20
    episodes_per_scene: int = 10
    scene_seed: int = 2500
    episode_seed: int = 31337
    goals: tuple[str, ...] = tuple(GOAL_CATEGORIES)


def build_episodes(
    protocol: BenchmarkProtocol, scene: GroundTruthScene | None = None
) -> list[EpisodeSpec]:
    """Expand the protocol into per-episode specs, fully determined by seeds.

    The episodes run on ``num_scenes`` homes generated from ``scene_seed``,
    or, when ``scene`` is given, all on that scene (``num_scenes`` and
    ``scene_seed`` then play no part).  Goals are the protocol's goals, as
    the protocol spells them, that some object of the scene satisfies, or
    every object label in the scene when it satisfies none; that fallback
    prints one line on stderr naming the home and the goals.  Whether an
    object satisfies a goal is the rule oracle's goal test, which scores
    success too: a sofa is a "couch", and only a sink described as white
    fabric is a "white fabric sink".  A start avoids the places holding such
    an object, and the horizon is ``2 * max(L, 1) + 4`` steps, ``L`` being the
    hops to the nearest of them.  A scene with no objects at all, or a drawn
    goal that cannot be reached from the drawn start, raises ``ValueError``.
    Each spec comes with its goal hosts and shortest hop count, scanned once
    per drawn goal and home.  A goal's test runs only on the objects whose
    noun the goal names (``OracleTables.goal_nouns``): it passes no other.
    """
    rng = np.random.default_rng(protocol.episode_seed)
    if scene is not None:
        scenes = [(f"scene {scene.env_label!r}", scene)]
    else:
        seeds = range(protocol.scene_seed, protocol.scene_seed + protocol.num_scenes)
        scenes = [
            (f"generated home {seed}", generate_home_scene(np.random.default_rng(seed)))
            for seed in seeds
        ]
    specs: list[EpisodeSpec] = []
    tables = default_tables()
    tests = {goal: tables.goal_test(goal) for goal in protocol.goals}
    nouns = {goal: tables.goal_nouns(goal) for goal in protocol.goals}
    for name, world in scenes:
        # the scene's objects by noun: a goal's test can pass only on the nouns it names
        by_noun: dict[str, list[tuple[str, str]]] = {}
        for place in world.places.values():
            for o in place.objects:
                by_noun.setdefault(strip_suffix(o.label).lower(), []).append((o.label, o.desc))
        # whether some object satisfies a goal; the hosts wait for its first draw
        usable = [
            goal for goal in protocol.goals
            if any(tests[goal](*obj) for noun in nouns[goal] for obj in by_noun.get(noun, ()))
        ]
        if not usable:
            labels = sorted(set(world.object_labels()))
            if not labels:
                raise ValueError(f"scene {world.env_label!r} holds no objects to search for")
            goals = ", ".join(map(repr, protocol.goals))
            print(f"{name}: no object satisfies the goals {goals}; "
                  f"searching for every object label instead", file=sys.stderr)
            usable = labels
        places = list(world.places)
        hosts_of: dict[str, tuple[str, ...]] = {}
        for _ in range(protocol.episodes_per_scene):
            goal = usable[int(rng.integers(len(usable)))]
            hosts = hosts_of.get(goal)
            if hosts is None:
                hosts = hosts_of[goal] = tuple(world.hosts(goal))
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
            horizon = int(HORIZON_FACTOR * max(shortest, 1) + HORIZON_SLACK)
            spec = EpisodeSpec(
                scene=world, start=start, goal=goal, horizon=horizon,
                seed=int(rng.integers(1 << 31)),
            )
            # the spec's answers are known already: set them as read, for every agent
            vars(spec).update(goal_hosts=hosts, shortest_hops=shortest)
            specs.append(spec)
    return specs
