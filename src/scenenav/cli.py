"""Command-line entry points: verify, generate, replay-map and evaluate.

Exit codes: 0 success, 1 validation failure (a usage error included), 2 I/O
failure, 3 remote-backend failure.  Each output path's directory is checked
before any input is read, and output files are written to a temporary sibling
and renamed into place, so a failing command never leaves a partial artifact
behind.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import logging
import os
import sys
import tempfile

from .graph import EdgeRuleError, SceneGraph
from .mapper import FrameError, MapperConfig, MapperState, frames_from_jsonl, mapper_step
from .oracle.base import OracleError
from .oracle.remote import RemoteChatBackend, RemoteConfig
from .oracle.rules import RuleOracle
from .schema import Schema, SchemaParseError, load_schema_file, serialize_schema, verify_schema
from .schemagen import builtin_mock_backend, load_mock_backend, run_pipeline, trace_to_json
from .sim.baselines import baseline_greedy_frontier, baseline_random
from .sim.episode import EpisodeResult, RunnerConfig, metrics, run_episode, spl_term
from .sim.noise import default_noise, noiseless
from .sim.protocol import GOAL_CATEGORIES, BenchmarkProtocol, build_episodes
from .sim.scene import scene_from_json, validate_scene
from .topofilter import FilterConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_REMOTE = 3


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Exit(Exception):
    """Ends a command with one line on stderr and an exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str, what: str) -> str:
    """The text of the ``what`` file at ``path``, or exit 2 if it cannot be read.

    Text that is not UTF-8 raises ``UnicodeDecodeError``, a ``ValueError``,
    which each caller reports as its own parse failure.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Exit(f"cannot read {what}: {exc}", EXIT_IO) from None


def _check_outputs(**paths: str) -> None:
    """Fail unless each given output path (keyed by its flag) names a file in a directory."""
    for flag, path in paths.items():
        directory = os.path.dirname(os.path.abspath(path))
        if path and not os.path.isdir(directory):
            raise _Exit(f"--{flag} {path!r}: no directory {directory!r} to write it in", EXIT_IO)
        if path and os.path.isdir(path):
            raise _Exit(f"--{flag} {path!r} is a directory, not a file", EXIT_IO)


def _load_verified_schema(path: str) -> Schema:
    """The schema at ``path``, or an exit: 2 if unreadable, 1 if unparsable or invalid."""
    try:
        schema = load_schema_file(path)
    except OSError as exc:
        raise _Exit(f"cannot read schema: {exc}", EXIT_IO) from None
    except (SchemaParseError, UnicodeDecodeError) as exc:
        raise _Exit(f"schema parse error: {exc}", EXIT_INVALID) from None
    report = verify_schema(schema)
    if not report.valid:
        raise _Exit(f"invalid schema: {report.text('; ')}", EXIT_INVALID)
    return schema


def cmd_verify_schema(args: argparse.Namespace) -> int:
    schema = _load_verified_schema(args.schema)
    print(f"{args.schema}: valid ({len(schema.concepts)} concepts, {schema.num_layers} layers)")
    return EXIT_OK


def _make_backend(spec: str):
    if spec.startswith("mock:"):
        name = spec[len("mock:"):]
        if os.path.exists(name):
            return load_mock_backend(name)
        return builtin_mock_backend(name)
    if spec == "remote":
        return RemoteChatBackend(RemoteConfig.from_env())
    if spec.startswith("remote:"):
        return RemoteChatBackend(RemoteConfig.from_file(spec[len("remote:"):]))
    raise ValueError(f"unknown backend {spec!r}; use mock:<name|path> or remote[:config]")


def cmd_gen_schema(args: argparse.Namespace) -> int:
    if args.max_iterations < 1:
        raise _Exit(f"--max-iterations must be at least 1, got {args.max_iterations}",
                    EXIT_INVALID)
    if not args.env.strip():
        raise _Exit(f"environment label must be non-empty, got {args.env!r}", EXIT_INVALID)
    _check_outputs(out=args.out, trace=args.trace)
    try:
        backend = _make_backend(args.backend)
    except OSError as exc:
        raise _Exit(f"cannot set up backend: {exc}", EXIT_IO) from None
    except ValueError as exc:
        raise _Exit(str(exc), EXIT_INVALID) from None
    try:
        trace = run_pipeline(args.env, backend, max_iterations=args.max_iterations)
    except OracleError as exc:
        raise _Exit(f"remote backend failed: {exc}", EXIT_REMOTE) from None
    except ValueError as exc:  # a mock backend without a reply the pipeline asks for
        raise _Exit(str(exc), EXIT_INVALID) from None
    if args.trace:
        _atomic_write(args.trace, trace_to_json(trace))
    if not trace.succeeded:
        last = trace.iterations[-1].report.text("; ") if trace.iterations else "no iterations"
        raise _Exit(f"no valid schema within {args.max_iterations} iteration(s): {last}",
                    EXIT_INVALID)
    _atomic_write(args.out, serialize_schema(trace.final))
    print(f"wrote {args.out} after {len(trace.iterations)} iteration(s)")
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    _check_outputs(out=args.out)
    schema = _load_verified_schema(args.schema)
    try:
        frames = frames_from_jsonl(_read(args.log, "log"))
    except (ValueError, KeyError) as exc:
        raise _Exit(f"trajectory log parse error: {exc}", EXIT_INVALID) from None
    oracle = RuleOracle()
    state = MapperState(graph=SceneGraph(schema))
    config = MapperConfig()
    for frame in frames:
        before = state.current_place
        try:
            state = mapper_step(frame, schema, state, oracle, config).state
        except FrameError as exc:
            raise _Exit(f"invalid frame: {exc}", EXIT_INVALID) from None
        except EdgeRuleError as exc:
            raise _Exit(f"the schema does not fit frame {frame.frame_id}: {exc}",
                        EXIT_INVALID) from None
        logger.info(
            "frame %s: %s -> %s", frame.frame_id, before or "(start)", state.current_place
        )
    _atomic_write(args.out, state.graph.export(args.format))
    print(
        f"wrote {args.out}: {len(state.graph.nodes())} nodes, "
        f"{len(state.graph.edges())} edges from {len(frames)} frames"
    )
    return EXIT_OK


_CHUNK_SIZE = 4  # episodes per task handed to a `run --jobs` worker


# the rule oracle of a `run --jobs` worker process, one for all its episodes
_worker_oracle: RuleOracle | None = None


def _start_worker() -> None:
    global _worker_oracle
    _worker_oracle = RuleOracle()


def _pool_episode(payload: tuple) -> tuple[int, str, EpisodeResult]:
    return _episode_worker(payload, _worker_oracle)


def _episode_worker(payload: tuple, oracle: RuleOracle) -> tuple[int, str, EpisodeResult]:
    # the oracle's decisions are pure and its memos exact: sharing it changes no answer
    index, agent, spec, schema, noise, particles = payload
    if agent == "full":
        config = RunnerConfig(
            noise=noise, filter=FilterConfig(num_particles=particles) if particles else None
        )
        return index, agent, run_episode(spec, schema, oracle, config)
    if agent == "random":
        return index, agent, baseline_random(spec, noise)
    return index, agent, baseline_greedy_frontier(spec, noise)


def _format_row(agent: str, episode: str, result: EpisodeResult) -> str:
    def num(value: float) -> str:
        return f"{value:.6f}"

    return ",".join(
        [
            agent,
            episode,
            "1" if result.success else "0",
            num(spl_term(result)),
            str(result.hops_traversed),
            num(result.shortest_hops),
            num(result.final_goal_distance),
        ]
    )


def cmd_run(args: argparse.Namespace) -> int:
    if args.particles < 0:
        raise _Exit(f"--particles must be 0 (filter off) or positive, got {args.particles}",
                    EXIT_INVALID)
    if args.jobs < 1:
        raise _Exit(f"--jobs must be at least 1, got {args.jobs}", EXIT_INVALID)
    if args.seed < 0:
        raise _Exit(f"--seed must be a non-negative integer, got {args.seed}", EXIT_INVALID)
    if args.scene_seed < 0 and not args.scene:  # a scene file draws no home
        raise _Exit(f"--scene-seed must be a non-negative integer, got {args.scene_seed}",
                    EXIT_INVALID)
    goals = args.goal.split(",") if args.goal else GOAL_CATEGORIES
    goals = [goal.strip() for goal in goals]
    if not all(goals):
        raise _Exit(f"--goal entries must not be empty, got {args.goal!r}", EXIT_INVALID)
    _check_outputs(out=args.out)
    schema = _load_verified_schema(args.schema)
    noise = noiseless() if args.noiseless else default_noise()
    scene = None
    if args.scene:
        try:
            scene = scene_from_json(_read(args.scene, "scene"))
        except ValueError as exc:
            raise _Exit(f"invalid scene: {exc}", EXIT_INVALID) from None
        num_scenes, per_scene = 1, args.episodes
    elif args.scenes < 1 or args.episodes < 1 or args.episodes % args.scenes:
        raise _Exit(f"--episodes must be a positive multiple of --scenes, got --episodes "
                    f"{args.episodes} and --scenes {args.scenes}", EXIT_INVALID)
    else:
        num_scenes, per_scene = args.scenes, args.episodes // args.scenes
    protocol = BenchmarkProtocol(
        num_scenes=num_scenes,
        episodes_per_scene=per_scene,
        scene_seed=args.scene_seed,
        episode_seed=args.seed,
        goals=tuple(goals),
    )
    try:
        specs = build_episodes(protocol, scene)
    except ValueError as exc:
        raise _Exit(f"invalid scene: {exc}", EXIT_INVALID) from None
    # checked after the draws, which name an unreachable goal more precisely
    problems = validate_scene(scene) if scene is not None else []
    if problems:
        raise _Exit(f"invalid scene: {'; '.join(problems)}", EXIT_INVALID)
    if not specs:
        raise _Exit("no episodes to run", EXIT_INVALID)

    agents = ["full"] + (["random", "frontier"] if args.baseline else [])
    jobs = []
    for agent in agents:
        for index, spec in enumerate(specs):
            jobs.append((index, agent, spec, schema, noise, args.particles))

    results: dict[tuple[str, int], EpisodeResult] = {}
    try:
        if args.jobs > 1:
            # a forked pool starts all its workers at once, so never more than
            # the cores or the chunks of work can keep busy
            chunks = -(-len(jobs) // _CHUNK_SIZE)
            workers = min(args.jobs, os.cpu_count() or 1, chunks)
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_start_worker
            ) as pool:
                for index, agent, result in pool.map(_pool_episode, jobs,
                                                     chunksize=_CHUNK_SIZE):
                    results[(agent, index)] = result
        else:
            oracle = RuleOracle()
            for payload in jobs:
                index, agent, result = _episode_worker(payload, oracle)
                results[(agent, index)] = result
    except (EdgeRuleError, FrameError) as exc:
        raise _Exit(f"the schema does not fit the scenes: {exc}", EXIT_INVALID) from None

    lines = ["agent,episode,success,spl,p,l,dtg"]
    for agent in agents:
        per_agent = [results[(agent, i)] for i in range(len(specs))]
        for i, result in enumerate(per_agent):
            lines.append(_format_row(agent, str(i), result))
        summary = metrics(per_agent)
        mean_p = sum(r.hops_traversed for r in per_agent) / len(per_agent)
        mean_l = sum(r.shortest_hops for r in per_agent) / len(per_agent)
        lines.append(
            ",".join(
                [
                    agent,
                    "aggregate",
                    f"{summary.sr:.6f}",
                    f"{summary.spl:.6f}",
                    f"{mean_p:.6f}",
                    f"{mean_l:.6f}",
                    f"{summary.dtg:.6f}",
                ]
            )
        )
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}: {len(specs)} episodes x {len(agents)} agent(s)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Ends a usage error (unknown flag, bad value, missing flag) like other
    invalid input: one line on stderr and exit code 1; subcommands inherit it."""

    def error(self, message: str):
        raise _Exit(f"{self.prog}: {message}", EXIT_INVALID)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scenenav",
        description="Schema-driven scene-graph mapping and object-goal search.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-schema", help="check a schema file against the structural rules")
    p.add_argument("schema")
    p.set_defaults(func=cmd_verify_schema)

    p = sub.add_parser("gen-schema", help="generate a schema from an environment label")
    p.add_argument("env")
    p.add_argument("--backend", default="mock:home",
                   help="mock:<name|path> or remote[:config.json]")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default="")
    p.add_argument("--max-iterations", type=int, default=3)
    p.set_defaults(func=cmd_gen_schema)

    p = sub.add_parser("map", help="replay a trajectory log into a scene graph")
    p.add_argument("--log", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["structured", "dot"], default="structured")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("run", help="evaluate episodes and write a metrics CSV")
    p.add_argument("--schema", required=True)
    p.add_argument("--scene", default="", help="scene file; omit to generate scenes")
    p.add_argument("--scenes", type=int, default=20, help="number of generated scenes")
    p.add_argument("--scene-seed", type=int, default=2500)
    p.add_argument("--episodes", type=int, default=200)
    p.add_argument("--seed", type=int, default=31337)
    p.add_argument("--goal", default="", help="comma-separated goal list")
    p.add_argument("--baseline", action="store_true", help="also run reference walkers")
    p.add_argument("--particles", type=int, default=0,
                   help="enable the topology filter with this many particles (0: off)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except OracleError as exc:
        print(f"remote backend failure: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
