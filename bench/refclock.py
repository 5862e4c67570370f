"""Wall times rescaled to a fixed reference CPU speed.

On a shared machine the effective CPU speed can move by 20% and more from
one millisecond to the next and from one minute to the next, whatever code
runs: a plain Python loop slows down as much as the program does, in wall
time and in CPU time alike.  Timings taken as they come then spread wider
than any useful regression bound.

``RefClock`` samples that speed.  Between operations, at most every
``INTERVAL_S`` of wall time, it runs a short piece of fixed pure-Python work
(a *calibration*) and records how long it took.  An interval of program time
is then rescaled by ``CAL_REF_S / c``, where ``c`` is the mean duration of
the calibrations run inside the interval and the ``NEIGHBOURS`` on either
side of it.  The result is the time the interval would have taken had the CPU
run at the speed at which one calibration takes ``CAL_REF_S``.  Calibration
time inside an interval is left out of it.

Code does not all slow down alike: interpreter work and memory-bound work
feel a busy neighbour differently.  A calibration therefore mixes both: dict,
integer and string operations; reads of ``RANDOM_READS`` objects at fixed
random places in a list of several MB, which the program's work in between
pushes out of the nearest caches; and a walk of ``CHAIN_STEPS`` along a
random cycle through that list, which misses the caches the way the program's
object graphs do.  README.md gives the mix's measured fit to each workload.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

CAL_ITERATIONS = 1500
CHAIN_NODES = 1 << 17
RANDOM_READS = 1000
CHAIN_STEPS = 500
CAL_REF_S = 0.001  # one calibration at the reference speed (about the mean on a shared 2.0 GHz Xeon)
INTERVAL_S = 0.004  # calibrate at most this often, so calibrations take about 1/6 of the time
NEIGHBOURS = 3

_KEYS = [f"k{i}" for i in range(64)]
_TABLE = {key: i * 7919 for i, key in enumerate(_KEYS)}


class _Node:
    __slots__ = ("value", "next")


def _chain() -> list[_Node]:
    """``CHAIN_NODES`` nodes linked in one random cycle (Sattolo's shuffle)."""
    order = list(range(CHAIN_NODES))
    rng = random.Random(CHAIN_NODES)
    for i in range(CHAIN_NODES - 1, 0, -1):
        j = rng.randrange(i)
        order[i], order[j] = order[j], order[i]
    nodes = [_Node() for _ in range(CHAIN_NODES)]
    for i, node in enumerate(nodes):
        node.value = i & 255  # small ints are shared, so values add no memory
        node.next = nodes[order[i]]
    return nodes


_CHAIN = _chain()
_READS = random.Random(RANDOM_READS).sample(range(CHAIN_NODES), RANDOM_READS)
_cursor = _CHAIN[0]


def _calibration() -> int:
    """Work of a fixed size: dict, integer and string operations, then cache-missing reads."""
    global _cursor
    table, keys, nodes = _TABLE, _KEYS, _CHAIN
    acc = 0
    for i in range(CAL_ITERATIONS):
        key = keys[i & 63]
        acc += table[key] ^ i
        if acc > 1_000_003:
            acc -= len(key + str(i)) * 99_991
    for index in _READS:
        acc += nodes[index].value
    node = _cursor
    for _ in range(CHAIN_STEPS):
        acc += node.value
        node = node.next
    _cursor = node
    return acc


class RefClock:
    """Calibration samples over time, and intervals rescaled by them."""

    def __init__(self) -> None:
        self.mids: list[float] = []  # midpoint of each calibration, ascending
        self.durations: list[float] = []
        self.starts: list[float] = []
        self.last = float("-inf")

    def calibrate(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            _calibration()
            end = perf_counter()
            self.starts.append(start)
            self.mids.append((start + end) / 2.0)
            self.durations.append(end - start)
        self.last = end

    def tick(self) -> None:
        """Calibrate if the last calibration ended ``INTERVAL_S`` ago or more."""
        if perf_counter() - self.last >= INTERVAL_S:
            self.calibrate()

    def scale(self, start: float, end: float, neighbours: int = NEIGHBOURS) -> float:
        """Reference seconds per wall second over ``[start, end]``."""
        lo = max(0, bisect_left(self.mids, start) - neighbours)
        hi = min(len(self.mids), bisect_right(self.mids, end) + neighbours)
        if lo >= hi:
            raise RuntimeError("no calibration near the interval")
        return CAL_REF_S / statistics.fmean(self.durations[lo:hi])

    def calibration_seconds(self, start: float, end: float) -> float:
        """Time spent calibrating inside ``[start, end]``."""
        return sum(self.durations[bisect_left(self.starts, start):bisect_right(self.mids, end)])

    def reference_seconds(self, start: float, end: float, neighbours: int = NEIGHBOURS) -> float:
        """``[start, end]`` less the calibrations inside it, at the reference speed."""
        inside = self.calibration_seconds(start, end)
        return (end - start - inside) * self.scale(start, end, neighbours)

    def speed(self) -> float:
        """Mean speed over every calibration so far, relative to the reference."""
        return CAL_REF_S / statistics.fmean(self.durations)
