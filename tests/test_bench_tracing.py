"""The benchmark's tracer must still find every entry point it wraps by name."""

import importlib
import sys
from pathlib import Path

import numpy as np

from scenenav import planner
from scenenav.graph import SceneGraph
from scenenav.mapper import MapperConfig, MapperState, mapper_step
from scenenav.oracle.rules import RuleOracle
from scenenav.planner import PlannerMemory, SubgoalPlan
from scenenav.schema import builtin_schema
from scenenav.sim import cover_walk, generate_home_scene, noiseless, walk_to_frames

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_instrument_wraps_and_restores_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        sites = [
            (owner, attr) for targets in tracing._TARGETS.values() for owner, attr in targets
        ]
        before = [owner.__dict__[attr] for owner, attr in sites]

        schema = builtin_schema("home")
        scene = generate_home_scene(np.random.default_rng(4))
        walk = cover_walk(scene, next(iter(scene.places)))
        frames = walk_to_frames(scene, walk, noiseless(), np.random.default_rng(0))
        with tracing.instrument(tracing.Tracer()) as tracer:
            assert [owner.__dict__[attr] for owner, attr in sites] != before
            oracle = RuleOracle()
            state = MapperState(graph=SceneGraph(schema))
            for frame in frames[:6]:
                state = mapper_step(frame, schema, state, oracle, MapperConfig()).state
            planner.reason_step(
                schema, state.graph, state.current_place, SubgoalPlan(), "tv", oracle,
                PlannerMemory(),
            )
        metrics = tracer.layer_metrics()
        for name in ("graph.connectivity_subgraph", "graph.hop_distances",
                     "mapper.parse_frame", "planner.reason_step", "planner.propose_region"):
            assert metrics[f"{name}.calls"] > 0, name
        assert [owner.__dict__[attr] for owner, attr in sites] == before
    finally:
        sys.modules.pop("tracing", None)
