"""Per-layer spans and counts, recorded from outside the program.

``instrument(tracer)`` swaps the public functions of each layer for thin
wrappers for the duration of a ``with`` block and puts the originals back on
exit.  A wrapper records one span (name, start, end, parent, group) around the
call and may bump a counter from the result.  Spans stay in memory; the caller
reads totals with ``layer_metrics`` and writes the raw spans with
``write_spans``.

Patching happens at every name a caller looks the function up through: the
defining module and each module that imported it by name.  Oracle decisions
are wrapped on the ``RuleOracle`` class, not by a forwarding object, so
callers that read ``oracle.tables`` see the real instance.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from time import perf_counter

from scenenav import cli, graph, mapper, planner, topofilter
from scenenav.oracle import rules, tables
from scenenav.oracle.rules import RuleOracle
from scenenav.sim import baselines, episode

ORACLE_DECISIONS = (
    "similar_labels",
    "match_place",
    "classify_elements",
    "match_object",
    "infer_region",
    "select_region",
    "select_object",
    "goal_match",
)

# span name -> every (owner, attribute) a caller reaches the function through
_TARGETS: dict[str, list[tuple[object, str]]] = {
    "sim.run_episode": [(cli, "run_episode")],
    "sim.baselines": [(cli, "baseline_random"), (cli, "baseline_greedy_frontier")],
    "sim.observe": [(episode, "observe")],
    "sim.act": [(episode, "act")],
    "mapper.mapper_step": [(mapper, "mapper_step"), (episode, "mapper_step")],
    "mapper.parse_frame": [(mapper, "parse_frame")],
    "mapper.estimate_state": [(mapper, "estimate_state")],
    "mapper.update_graph": [(mapper, "update_graph")],
    "graph.connectivity_subgraph": [(graph.SceneGraph, "connectivity_subgraph")],
    "graph.find_by_image_ref": [(graph.SceneGraph, "find_by_image_ref")],
    "graph.hop_distances": [(graph, "hop_distances"), (mapper, "hop_distances"),
                            (planner, "hop_distances")],
    "planner.reason_step": [(planner, "reason_step"), (episode, "reason_step")],
    "planner.propose_region": [(planner, "propose_region")],
    "planner.find_path": [(planner, "find_path")],
    "topofilter.step": [(topofilter, "step"), (episode, "filter_step")],
    "topofilter.likelihood": [(topofilter, "likelihood")],
    "oracle.default_tables": [(tables, "default_tables"), (rules, "default_tables"),
                              (baselines, "default_tables")],
}
_TARGETS.update({f"oracle.{d}": [(RuleOracle, d)] for d in ORACLE_DECISIONS})

# spans whose calls and self time are reported as per-layer metrics
TIMED_SPANS = (
    "graph.connectivity_subgraph",
    "graph.hop_distances",
    "graph.find_by_image_ref",
    "mapper.parse_frame",
    "mapper.estimate_state",
    "mapper.update_graph",
    "planner.reason_step",
    "planner.propose_region",
    "planner.find_path",
    "topofilter.step",
    "topofilter.likelihood",
    "sim.observe",
    "sim.act",
    "oracle.default_tables",
) + tuple(f"oracle.{d}" for d in ORACLE_DECISIONS)
SELF_ONLY_SPANS = ("sim.run_episode", "sim.baselines")


def _count_step(tracer: "Tracer", result) -> None:
    tracer.counts["mapper.frames"] += 1
    tracer.counts["mapper.revisits"] += bool(result.revisit)


def _count_match(tracer: "Tracer", result) -> None:
    tracer.counts["oracle.match_place.matched"] += bool(result.matched)


def _count_resample(tracer: "Tracer", state) -> None:
    tracer.counts["topofilter.steps"] += 1
    tracer.counts["topofilter.resampled"] += bool(state.trace[-1]["resampled"])


_RESULT_HOOKS = {
    "mapper.mapper_step": _count_step,
    "oracle.match_place": _count_match,
    "topofilter.step": _count_resample,
}


class Tracer:
    """In-memory span store.

    A span is ``[name, start, end, parent index, group]``.  The group is the
    episode, frame or query the span belongs to: the caller may set
    ``group`` explicitly; otherwise every root span opens a new group and
    children inherit their parent's.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.group: object = None
        self._stack: list[int] = []
        self._auto_group = 0

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                group = spans[parent][4]
            else:
                parent = -1
                group = self.group
                if group is None:
                    self._auto_group += 1
                    group = f"auto{self._auto_group}"
            record = [name, perf_counter(), 0.0, parent, group]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def durations_ms(self, name: str, group_prefix: str) -> list[float]:
        """Durations of the named spans whose group starts with a prefix."""
        return [
            (end - start) * 1000.0
            for span_name, start, end, _, group in self.spans
            if span_name == name and str(group).startswith(group_prefix)
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time (duration minus direct children) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_ms: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_ms[name] = self_ms.get(name, 0.0) + (end - start - child) * 1000.0
        out: dict[str, float] = {}
        for name in TIMED_SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
        for name in SELF_ONLY_SPANS:
            out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
        c = self.counts
        out["mapper.revisit_ratio"] = _ratio(c["mapper.revisits"], c["mapper.frames"])
        out["planner.exhausted"] = c["planner.reason_step.raised.ExhaustedError"]
        out["topofilter.resample_ratio"] = _ratio(c["topofilter.resampled"], c["topofilter.steps"])
        out["oracle.match_place.hit_ratio"] = _ratio(
            c["oracle.match_place.matched"], calls["oracle.match_place"]
        )
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start/end in us, parent, group."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_us\tend_us\tparent\tgroup\n")
            for name, start, end, parent, group in self.spans:
                handle.write(
                    f"{name}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}"
                    f"\t{parent}\t{group}\n"
                )


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced entry point through ``tracer`` inside the block."""
    saved: list[tuple[object, str, object]] = []
    try:
        for name, sites in _TARGETS.items():
            wrapped: dict[int, object] = {}
            for owner, attr in sites:
                original = owner.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = tracer.wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
