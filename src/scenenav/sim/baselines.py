"""Mapless reference agents: uniform random walk and nearest-unvisited sweep.

Both run under the same observation noise as the full agent: standing in the
goal's place only counts once the goal is actually detected there.
"""

from __future__ import annotations

import numpy as np

from ..oracle.tables import default_tables  # unused; bench/tracing.py wraps it by this name
from .episode import EpisodeResult, EpisodeSpec
from .noise import NoiseModel, noiseless

__all__ = ["baseline_random", "baseline_greedy_frontier"]


def _finish(spec: EpisodeSpec, place: str, hops: int, success: bool) -> EpisodeResult:
    dtg = 0.0 if success else spec.scene.shortest_hops(place, spec.goal_hosts)
    return EpisodeResult(
        success=success,
        hops_traversed=hops,
        shortest_hops=spec.shortest_hops,
        final_goal_distance=dtg,
        failure=None if success else "horizon exhausted",
    )


def _goal_seen(
    place: str, hosts: tuple[str, ...], noise: NoiseModel, rng: np.random.Generator
) -> bool:
    return place in hosts and noise.detected(rng)


def baseline_random(spec: EpisodeSpec, noise: NoiseModel | None = None) -> EpisodeResult:
    """Move to a uniformly random adjacent place each step."""
    noise = noise if noise is not None else noiseless()
    rng = np.random.default_rng(spec.seed)
    hosts = spec.goal_hosts
    place = spec.start
    hops = 0
    if _goal_seen(place, hosts, noise, rng):
        return _finish(spec, place, 0, True)
    for _ in range(spec.horizon):
        neighbors = [nb for nb, _ in spec.scene.neighbors(place)]
        if not neighbors:
            break
        place = neighbors[int(rng.integers(len(neighbors)))]
        hops += 1
        if _goal_seen(place, hosts, noise, rng):
            return _finish(spec, place, hops, True)
    return _finish(spec, place, hops, False)


def baseline_greedy_frontier(spec: EpisodeSpec, noise: NoiseModel | None = None) -> EpisodeResult:
    """Always walk to the nearest place not yet visited.

    Routing stays inside known space: the sweep may only cross territory it
    has already covered, stepping one hop beyond it onto the frontier.
    """
    noise = noise if noise is not None else noiseless()
    rng = np.random.default_rng(spec.seed)
    hosts = spec.goal_hosts
    place = spec.start
    visited = {place}
    hops = 0
    if _goal_seen(place, hosts, noise, rng):
        return _finish(spec, place, 0, True)
    while hops < spec.horizon:
        # the route ends at the first unvisited place, so it crosses only visited ones
        path = spec.scene.route(place, lambda p: p not in visited)
        if path is None:
            break
        for nxt in path:
            place = nxt
            visited.add(place)
            hops += 1
            if _goal_seen(place, hosts, noise, rng):
                return _finish(spec, place, hops, True)
            if hops >= spec.horizon:
                break
    return _finish(spec, place, hops, False)
