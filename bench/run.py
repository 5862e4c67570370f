#!/usr/bin/env python3
"""Benchmark of the scenenav mapper -> planner -> simulator stack.

    python3 bench/run.py --workload protocol --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

Workloads (one closed-loop client, one process at a time, ``--jobs 1``):

* ``protocol``: the project's fixed evaluation run ``scenenav run --scenes 20
  --episodes 200 --baseline`` through ``scenenav.cli.main``, whatever the seed;
* ``protocol-filter``: the same run with ``--particles 50``;
* ``map-sweep``: cover walks over synthetic 10/40/160/320-room homes, every
  frame mapped and then planned toward a goal the home does not hold;
* ``map-query``: planning queries on the frozen map of the 320-room home.

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation.  The measuring window is split over ``WORKERS`` fresh
interpreters run one after another: each times its own import and set-up,
their shared outputs must agree byte for byte, and their samples are pooled.
Every time is rescaled to a fixed reference CPU speed by calibrations run
between operations (``refclock.py``), because the CPU speed of a shared
machine can drift by more than any useful bound.
With ``--trace 1`` one process runs a pass untraced, the same pass traced and
again untraced, checks that the three produce the same bytes, and reports
per-layer calls, self times and counts.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, whose names and units come from
``BENCHMARK.json``.  bench/README.md describes every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from refclock import NEIGHBOURS, RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "scenenav" / "assets" / "schemas" / "home.json"
OUT = ROOT / ".bench_out"

WORKLOADS = ("protocol", "protocol-filter", "map-sweep", "map-query")
WORKERS = 3
SETUP_CALS = 30  # calibrations on either side of the import and of the set-up
WORKER_TIMEOUT_S = 50  # three in turn stay within the 180 s a run may take
PROTOCOL_SCENES = 20
PROTOCOL_EPISODES = 200
PROTOCOL_SEED = 31337  # the fixed evaluation run: episode seed 31337 ...
PROTOCOL_SCENE_SEED = 2500  # ... on the homes of scene seeds 2500..2519
AGENTS = ("full", "random", "frontier")
FILTER_PARTICLES = 50
SWEEP_GOAL = "piano"  # no room pool holds one, so every sweep step searches
WARMUP_QUERIES = 20
REFERENCE_SEED = 0  # the sweep homes whose maps set the map quality guards
CHECK_SIZE = 40  # the home every worker of a map workload maps, to compare outputs
CSV_HEADER = "agent,episode,success,spl,p,l,dtg"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The workloads import scenenav inside their methods: each worker process times
# its own first import of the package as part of set-up.


class Workload:
    """One workload inside one process.

    ``step()`` runs one unit of timed work and returns its output bytes;
    ``pass_steps`` steps make one complete, deterministic pass.  Timed work is
    recorded as raw wall-clock intervals per series; ``op_ms`` holds one
    interval per operation and is the series the end-to-end latency metrics
    read, and ``busy_series`` is the one whose total time the throughput
    divides by.  ``clock`` calibrates between operations (``refclock``).
    """

    name = ""
    op_name = ""
    pass_steps = 1
    busy_series = "op_ms"

    def __init__(self, seed: int, worker: int = 0):
        self.seed = seed
        self.worker = worker
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.ops = 0
        self.clock = RefClock()
        self.tracer = None

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)

    def record(self, series: str, start: float, end: float) -> None:
        self.intervals[series].append((start, end))

    def reset_samples(self) -> None:
        self.intervals.clear()
        self.ops = 0

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, reference: bool) -> None:
        """Untimed work before the window: warm-up, and the quality run if asked."""

    def step(self) -> bytes:
        raise NotImplementedError

    def finish(self) -> None:
        """Output checks that need the whole window."""

    def values(self) -> dict[str, float | str]:
        """Deterministic outputs: the quality guards and growth counts."""
        return {}

    def fingerprint(self) -> str:
        """Digest of outputs that must agree across processes for one seed."""
        raise NotImplementedError


# -- protocol runs -------------------------------------------------------------


def check_protocol_csv(text: str, episodes: int) -> list[str]:
    """Row counts per agent, and every aggregate row recomputed from its rows."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["metrics CSV lacks its header"]
    problems = []
    rows: dict[str, list[list[str]]] = {agent: [] for agent in AGENTS}
    aggregate: dict[str, list[str]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 7 or fields[0] not in rows:
            problems.append(f"malformed CSV row {line!r}")
        elif fields[1] == "aggregate":
            aggregate[fields[0]] = fields[2:]
        else:
            rows[fields[0]].append(fields)
    for agent, agent_rows in rows.items():
        if [r[1] for r in agent_rows] != [str(i) for i in range(episodes)]:
            problems.append(f"{agent}: {len(agent_rows)} episode rows, expected {episodes}")
            continue
        if agent not in aggregate:
            problems.append(f"{agent}: no aggregate row")
            continue
        columns = zip(*(r[2:] for r in agent_rows))
        for column, values, reported in zip(CSV_HEADER.split(",")[2:], columns, aggregate[agent]):
            mean = sum(float(v) for v in values) / episodes
            want = float(reported)
            # rows carry 6 decimals, so their mean may differ from the mean of
            # the unrounded values by one unit in the last place
            if not (mean == want or abs(mean - want) <= 1.5e-6):
                problems.append(
                    f"{agent}: aggregate {column} reads {reported}, rows give {mean:.6f}"
                )
    return problems


def full_agent_aggregate(csv: bytes) -> tuple[float, float]:
    """(SR, SPL) of the full agent from a metrics CSV."""
    for line in csv.decode("utf-8").splitlines():
        fields = line.split(",")
        if fields[:2] == ["full", "aggregate"]:
            return float(fields[2]), float(fields[3])
    raise ValueError("metrics CSV has no full-agent aggregate row")


class Protocol(Workload):
    """The project's fixed evaluation run, whatever the benchmark seed.

    ``scenenav run`` on the 20 homes of scene seed 2500, 200 episodes of
    episode seed 31337, full agent plus both baselines.  The project tracks
    this run and keeps its CSV byte-identical; with other episode seeds the
    work per episode moves by about 15%, more than any bound allows.
    """

    name = "protocol"
    op_name = "episodes"
    busy_series = "run_s"
    particles = 0

    def setup(self) -> None:
        from scenenav.schema import parse_schema
        from scenenav.sim.protocol import BenchmarkProtocol, build_episodes

        parse_schema(SCHEMA.read_text(encoding="utf-8"))
        self.clock.tick()
        protocol = BenchmarkProtocol(
            num_scenes=PROTOCOL_SCENES,
            episodes_per_scene=PROTOCOL_EPISODES // PROTOCOL_SCENES,
            scene_seed=PROTOCOL_SCENE_SEED,
            episode_seed=PROTOCOL_SEED,
        )
        self.episodes = len(build_episodes(protocol))
        self.first_csv: bytes | None = None

    @contextlib.contextmanager
    def _episode_clock(self):
        """Time each episode of each agent, calibrating between episodes.

        ``cli.main`` reaches the three agents through these names of the
        ``cli`` module; the wrappers only read the clock around each call and
        are removed when the run ends.  Full-agent episodes are the
        operations whose latency the end-to-end metrics report; the reference
        walkers' episodes count towards throughput only.
        """
        from scenenav import cli

        clock = self.clock
        series = {"run_episode": "op_ms", "baseline_random": "baseline_ms",
                  "baseline_greedy_frontier": "baseline_ms"}

        def timed(fn, intervals):
            def call(*args, **kwargs):
                clock.tick()
                start = perf_counter()
                result = fn(*args, **kwargs)
                intervals.append((start, perf_counter()))
                return result

            return call

        saved = {name: cli.__dict__[name] for name in series}
        try:
            for name, fn in saved.items():
                setattr(cli, name, timed(fn, self.intervals[series[name]]))
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def _run(self) -> tuple[bytes | None, float, float]:
        from scenenav import cli

        out = OUT / f"{self.name}.csv"
        argv = [
            "run", "--schema", str(SCHEMA),
            "--scenes", str(PROTOCOL_SCENES), "--episodes", str(PROTOCOL_EPISODES),
            "--seed", str(PROTOCOL_SEED), "--scene-seed", str(PROTOCOL_SCENE_SEED),
            "--baseline", "--jobs", "1", "--out", str(out),
        ]
        if self.particles:
            argv += ["--particles", str(self.particles)]
        ops = self.episodes * len(AGENTS)
        self.attempted += ops
        self.clock.tick()
        start = perf_counter()
        try:
            with self._episode_clock(), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a raise fails every episode of the run
            self.fail(ops, f"run raised {type(exc).__name__}: {exc}")
            return None, start, perf_counter()
        end = perf_counter()
        if code != 0:
            self.fail(ops, f"run exited with {code}")
            return None, start, end
        data = out.read_bytes()
        out.unlink()
        problems = check_protocol_csv(data.decode("utf-8"), self.episodes)
        if problems:
            self.fail(ops, "; ".join(problems[:3]))
        return data, start, end

    def step(self) -> bytes:
        data, start, end = self._run()
        ops = self.episodes * len(AGENTS)
        self.ops += ops
        self.record("run_s", start, end)
        if data is not None:
            if self.first_csv is None:
                self.first_csv = data
            elif data != self.first_csv:
                self.fail(ops, "CSV differs between repetitions of the fixed run")
        return data or b""

    def values(self) -> dict[str, float | str]:
        if self.first_csv is None:
            return {"quality.primary": 0.0, "quality.secondary": 0.0}
        sr, spl = full_agent_aggregate(self.first_csv)
        return {"quality.primary": sr, "quality.secondary": spl, "sr": sr, "spl": spl,
                "csv_sha256": sha256(self.first_csv)}

    def fingerprint(self) -> str:
        return sha256(self.first_csv or b"")


class ProtocolFilter(Protocol):
    name = "protocol-filter"
    particles = FILTER_PARTICLES


# -- map workloads -------------------------------------------------------------


class MapWorkload(Workload):
    """Set-up shared by the map workloads: the schema, one oracle, the quality guards."""

    def setup(self) -> None:
        from scenenav.oracle.rules import RuleOracle
        from scenenav.schema import parse_schema

        self.schema = parse_schema(SCHEMA.read_text(encoding="utf-8"))
        self.oracle = RuleOracle()
        self.reference: dict[str, float] = {}

    def map_frames(self, frames):
        """The graph the mapper builds from a trajectory, with no planning between frames."""
        from scenenav import mapper
        from scenenav.graph import SceneGraph
        from scenenav.mapper import MapperConfig, MapperState

        state = MapperState(graph=SceneGraph(self.schema))
        config = MapperConfig()
        for frame in frames:
            self.clock.tick()
            state = mapper.mapper_step(frame, self.schema, state, self.oracle, config).state
        return state.graph

    @property
    def home_seed(self) -> int:
        """Each worker of a run maps its own homes, so that one run covers several."""
        return self.seed * WORKERS + self.worker

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self, reference: bool) -> None:
        """Map the seed's 40-room home, shared by every worker, then warm up.

        That map's export is the fingerprint the workers of a run must agree on.
        """
        from sweep import sweep_frames, sweep_home

        scene = sweep_home(CHECK_SIZE, self.seed)
        self.check_export = self.map_frames(sweep_frames(scene, self.seed)).export()
        self.warm_up()
        if reference:
            # node and edge recall on a fixed home, so that the quality guards
            # do not move with the benchmark seed
            from scenenav.sim import layer2_quality

            from sweep import SWEEP_SIZES, sweep_frames, sweep_home

            scene = sweep_home(SWEEP_SIZES[-1], REFERENCE_SEED)
            q = layer2_quality(self.map_frames(sweep_frames(scene, REFERENCE_SEED)), scene)
            self.reference = {"quality.primary": q.node_recall, "quality.secondary": q.edge_recall}

    def fingerprint(self) -> str:
        return sha256(self.check_export.encode("utf-8"))


def map_values(graph, scene) -> dict[str, float | str]:
    """Recall and growth of one map, keyed by its home's size."""
    from scenenav.sim import layer2_quality

    q = layer2_quality(graph, scene)
    n = len(scene.places)
    return {
        f"node_recall.n{n}": q.node_recall, f"edge_recall.n{n}": q.edge_recall,
        f"graph.places.n{n}": len(graph.places()), f"graph.nodes.n{n}": len(graph.nodes()),
        f"graph.mutations.n{n}": graph.version,
    }


class MapSweep(MapWorkload):
    """Map and plan every frame of cover walks over the 10..320-room homes."""

    name = "map-sweep"
    op_name = "frames"

    def setup(self) -> None:
        from sweep import SWEEP_SIZES, sweep_frames, sweep_home

        super().setup()
        self.inputs = []
        for n in SWEEP_SIZES:
            scene = sweep_home(n, self.home_seed)
            self.inputs.append((n, scene, sweep_frames(scene, self.home_seed)))
            self.clock.tick()
        self.exports: dict[int, str] = {}
        self.final: dict[int, object] = {}

    def _map(self, n: int, frames, record: bool):
        from scenenav import mapper, planner
        from scenenav.graph import SceneGraph
        from scenenav.mapper import MapperConfig, MapperState
        from scenenav.planner import ExhaustedError, PlannerMemory, SubgoalPlan

        schema, oracle = self.schema, self.oracle
        config = MapperConfig(goal=SWEEP_GOAL)
        state = MapperState(graph=SceneGraph(schema))
        plan, memory = SubgoalPlan(), PlannerMemory()
        for k, frame in enumerate(frames):
            if self.tracer is not None:
                self.tracer.group = f"n{n}:f{k}"
            self.attempted += 1
            self.clock.tick()
            start = perf_counter()
            try:
                state = mapper.mapper_step(frame, schema, state, oracle, config).state
                mapped = perf_counter()
                try:
                    plan = planner.reason_step(
                        schema, state.graph, state.current_place, plan, SWEEP_GOAL, oracle, memory
                    )
                except ExhaustedError:
                    plan = SubgoalPlan()
                planned = perf_counter()
            except Exception as exc:
                self.fail(1, f"n={n} frame {k}: {type(exc).__name__}: {exc}")
                continue
            if record:
                self.ops += 1
                self.record("op_ms", start, planned)
                for series, interval in (("frame_ms", (start, mapped)),
                                         ("plan_ms", (mapped, planned))):
                    self.record(series, *interval)
                    self.record(f"{series}.n{n}", *interval)
        return state.graph

    def warm_up(self) -> None:
        n, _, frames = self.inputs[1]
        self._map(n, frames, record=False)

    def step(self) -> bytes:
        from scenenav.graph import validate_graph

        exports = []
        for n, _, frames in self.inputs:
            graph = self._map(n, frames, record=True)
            problems = validate_graph(graph)
            if problems:
                self.fail(len(frames), f"n={n}: final graph invalid: {problems[:3]}")
            export = graph.export()
            if self.exports.setdefault(n, export) != export:
                self.fail(len(frames), f"n={n}: graph export differs between passes of one seed")
            self.final[n] = graph
            exports.append(export)
        return "".join(exports).encode("utf-8")

    def values(self) -> dict[str, float | str]:
        out: dict[str, float | str] = dict(self.reference)
        for n, scene, _ in self.inputs:
            out.update(map_values(self.final[n], scene))
        return out


class MapQuery(MapWorkload):
    """Plan from every mapped place toward every goal category on a frozen map."""

    name = "map-query"
    op_name = "queries"

    def setup(self) -> None:
        import numpy as np

        from scenenav.sim.protocol import GOAL_CATEGORIES

        from sweep import SWEEP_SIZES, sweep_frames, sweep_home

        super().setup()
        self.scene = sweep_home(SWEEP_SIZES[-1], self.home_seed)
        self.graph = self.map_frames(sweep_frames(self.scene, self.home_seed))
        self.version = self.graph.version
        self.export = self.graph.export()
        queries = [(p.id, goal) for p in self.graph.places() for goal in GOAL_CATEGORIES]
        order = np.random.default_rng((self.seed, 2)).permutation(len(queries))
        self.queries = [queries[int(i)] for i in order]
        self.pass_steps = len(self.queries)
        self.outcomes: dict[int, str] = {}
        self.next = WARMUP_QUERIES  # the timed queries start after the warm-up ones

    def _query(self, index: int, record: bool) -> str:
        from scenenav import planner
        from scenenav.planner import ExhaustedError, PlannerMemory, SubgoalPlan

        place, goal = self.queries[index]
        if self.tracer is not None:
            self.tracer.group = f"q{index}"
        self.attempted += 1
        self.clock.tick()
        start = perf_counter()
        try:
            plan = planner.reason_step(
                self.schema, self.graph, place, SubgoalPlan(), goal, self.oracle, PlannerMemory()
            )
            outcome = f"{plan.target_region}|{plan.waypoint}|{plan.object_goal}"
        except ExhaustedError:
            outcome = "exhausted"
        except Exception as exc:
            self.fail(1, f"query {place} -> {goal}: {type(exc).__name__}: {exc}")
            return "error"
        end = perf_counter()
        if record:
            self.ops += 1
            self.record("op_ms", start, end)
            self.record("query_ms", start, end)
        if outcome != "exhausted" and plan.object_goal[0] not in self.graph:
            self.fail(1, f"query {place} -> {goal}: plan names unknown node {plan.object_goal[0]}")
        elif self.outcomes.setdefault(index, outcome) != outcome:
            self.fail(1, f"query {place} -> {goal}: plan differs between repetitions")
        return outcome

    def warm_up(self) -> None:
        for index in range(min(WARMUP_QUERIES, len(self.queries))):
            self._query(index, record=False)

    def step(self) -> bytes:
        outcome = self._query(self.next % len(self.queries), record=True)
        self.next += 1
        return (outcome + "\n").encode("utf-8")

    def finish(self) -> None:
        """Repeated queries must plan alike and leave the map as the set-up built it."""
        from scenenav.graph import validate_graph

        self.warm_up()
        if self.graph.version != self.version or self.graph.export() != self.export:
            self.fail(self.attempted, "planning queries mutated the frozen map")
        problems = validate_graph(self.graph)
        if problems:
            self.fail(self.attempted, f"frozen map invalid: {problems[:3]}")

    def values(self) -> dict[str, float | str]:
        return {**self.reference, **map_values(self.graph, self.scene)}


CLASSES = {cls.name: cls for cls in (Protocol, ProtocolFilter, MapSweep, MapQuery)}


# -- runs ----------------------------------------------------------------------


def worker(name: str, seed: int, seconds: float, index: int) -> dict:
    """Set up, prepare, then step until the window closes.

    Every timed interval is reported at the reference CPU speed (``refclock``);
    the wall-clock figures come along for the human-readable lines.  The
    import and the set-up are single long intervals with few or no
    calibrations inside, so ``SETUP_CALS`` calibrations on either side of
    each give their speed.
    """
    workload = CLASSES[name](seed, index)
    clock = workload.clock
    clock.calibrate(SETUP_CALS)
    started = perf_counter()
    import scenenav.cli  # noqa: F401  -- what a fresh ``scenenav`` command imports
    imported = perf_counter()
    clock.calibrate(SETUP_CALS)
    start = perf_counter()
    workload.setup()
    end = perf_counter()
    clock.calibrate(SETUP_CALS)
    setup = [(started, imported), (start, end)]
    workload.prepare(reference=index == 0)
    workload.reset_samples()
    start = perf_counter()
    steps = 0
    while True:
        workload.step()
        steps += 1
        elapsed = perf_counter() - start
        # stop before a further step would overrun the window
        if elapsed + elapsed / steps > seconds:
            break
    clock.calibrate(NEIGHBOURS)
    workload.finish()

    def total(intervals, rescale: bool, neighbours: int = NEIGHBOURS) -> float:
        if rescale:
            return sum(clock.reference_seconds(a, b, neighbours) for a, b in intervals)
        return sum(b - a - clock.calibration_seconds(a, b) for a, b in intervals)

    busy = workload.intervals[workload.busy_series]
    return {
        "setup_s": total(setup, True, SETUP_CALS),
        "setup_wall_s": total(setup, False),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": workload.ops,
        "busy_s": total(busy, True),
        "busy_wall_s": total(busy, False),
        "speed": clock.speed(),
        "samples": {
            series: [clock.reference_seconds(a, b) * (1.0 if series == "run_s" else 1000.0)
                     for a, b in intervals]
            for series, intervals in workload.intervals.items()
        },
        "values": workload.values(),
        "fingerprint": workload.fingerprint(),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
    }


def measure(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from ``WORKERS`` uninstrumented processes in turn."""
    reports = []
    for index in range(WORKERS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", repr(seconds / WORKERS), "--worker", str(index)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"worker {index} exited with {done.returncode}:\n{done.stderr}")
        reports.append(json.loads(done.stdout.splitlines()[-1]))

    outcome = {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "problems": [p for r in reports for p in r["problems"]],
    }
    for index, report in enumerate(reports[1:], start=1):
        if report["fingerprint"] != reports[0]["fingerprint"]:
            outcome["failed"] += report["attempted"]
            outcome["problems"].append(f"worker {index} output differs from worker 0's")

    pooled: dict[str, list[float]] = defaultdict(list)
    for report in reports:
        for series, values in report["samples"].items():
            pooled[series] += values
    values = reports[0]["values"]
    ops = sum(r["ops"] for r in reports)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": max(r["rss_mb"] for r in reports),
        "ops_per_s": ops / sum(r["busy_s"] for r in reports),
        "op_ms.p50": percentile(pooled["op_ms"], 50),
        "op_ms.p99": percentile(pooled["op_ms"], 99),
        "quality.primary": values["quality.primary"],
        "quality.secondary": values["quality.secondary"],
    }
    op_name = CLASSES[name].op_name
    speeds = " ".join(f"{r['speed']:.3f}" for r in reports)
    wall_rate = ops / sum(r["busy_wall_s"] for r in reports)
    wall_setup = statistics.median(r["setup_wall_s"] for r in reports)
    lines = [
        f"CPU speed relative to the reference, per worker: {speeds}",
        f"{op_name}_per_s = {metrics['ops_per_s']:.6g} 1/s  (wall clock: {wall_rate:.6g} 1/s)",
        f"setup_s = {metrics['setup_s']:.6g} s  (wall clock: {wall_setup:.6g} s)",
    ]
    for series in sorted(pooled.keys() - {"op_ms"}):
        samples = pooled[series]
        unit = "s" if series.startswith("run_s") else "ms"
        lines.append(f"{series}.p50 = {percentile(samples, 50):.6g} {unit}  "
                     f"{series}.p99 = {percentile(samples, 99):.6g} {unit}  (n = {len(samples)})")
    lines += [f"{key} = {value:.6g}" if isinstance(value, float) else f"{key} = {value}"
              for key, value in sorted(values.items()) if not key.startswith("quality.")]
    outcome["details"] = lines
    return metrics, outcome


def traced(name: str, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass bracketed by two untraced ones."""
    from sweep import SWEEP_SIZES
    from tracing import Tracer, instrument

    workload = CLASSES[name](seed)
    workload.setup()

    def one_pass() -> tuple[bytes, float]:
        """One complete pass; its time at the reference speed (``refclock``)."""
        workload.clock.calibrate(NEIGHBOURS)
        start = perf_counter()
        data = b"".join(workload.step() for _ in range(workload.pass_steps))
        end = perf_counter()
        workload.clock.calibrate(NEIGHBOURS)
        return data, workload.clock.reference_seconds(start, end)

    before, before_s = one_pass()
    tracer = Tracer()
    workload.tracer = tracer
    with instrument(tracer):
        during, during_s = one_pass()
    workload.tracer = None
    after, after_s = one_pass()
    if not before == during == after:
        workload.fail(workload.attempted, "traced pass output differs from the untraced passes")
    workload.finish()

    metrics = tracer.layer_metrics()
    metrics["trace_overhead"] = during_s / ((before_s + after_s) / 2.0)
    values = workload.values()
    for n in SWEEP_SIZES:
        for key in (f"graph.places.n{n}", f"graph.nodes.n{n}", f"graph.mutations.n{n}"):
            metrics[key] = values.get(key, 0)
        frame = tracer.durations_ms("mapper.mapper_step", f"n{n}:")
        plan = tracer.durations_ms("planner.reason_step", f"n{n}:")
        metrics[f"mapper.frame_ms.n{n}"] = percentile(frame, 50)
        metrics[f"planner.plan_ms.n{n}"] = percentile(plan, 50)
    tracer.write_spans(OUT / f"spans-{name}.tsv")
    outcome = {"attempted": workload.attempted, "failed": workload.failed,
               "problems": workload.problems,
               "details": [f"spans written to {OUT / f'spans-{name}.tsv'}"]}
    return metrics, outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        values, outcome = traced(name, seed)
        wanted = spec["per_layer"]
    else:
        values, outcome = measure(name, seed, seconds)
        wanted = spec["end_to_end"]
    for line in outcome["details"]:
        print(f"{name}: {line}")
    for problem in outcome["problems"]:
        print(f"{name}: FAILED CHECK: {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for metric, entry in metrics.items():
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome["failed"] == 0 and not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, one after another; metric names gain a workload prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=-1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "scenenav" / "__init__.py").is_file():
        print(f"no scenenav sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.worker >= 0:
        print(json.dumps(worker(args.workload, args.seed, args.seconds, args.worker)))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
