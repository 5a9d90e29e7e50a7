"""The host's speed, measured alongside the programs.

The shared host runs stretches of a run, from seconds to minutes long, at
down to half speed, and such a stretch slows every piece of code on the core.
Neither longer runs nor the fastest of several repetitions can tell a slow
program from a slow host then. So a fixed reference kernel, which belongs to
the benchmark and not to declassiflow, is timed in short bursts between the
programs, with the garbage collector off so that it collects none of the
programs' objects. Each program repetition's time is scaled by REFERENCE_S
over the median kernel time in the bursts just before and after it. A change to declassiflow moves the scaled times as much
as the raw ones; a slow stretch of the host moves the program and the kernel
alike and mostly cancels out.

The kernel does what the pipeline does most: it builds small objects, keys
dicts by tuples of strings and ints, and builds, merges and sorts sets.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.0003  # the kernel's time on a quiet core of a 2-vCPU Xeon VM
EVERY_S = 0.25  # a burst before a program if the last one is older than this
BURST = 8  # kernel runs per burst


class _Node:
    __slots__ = ("name", "key", "uses")

    def __init__(self, name, key, uses):
        self.name = name
        self.key = key
        self.uses = uses


def kernel() -> int:
    nodes = {}
    for i in range(300):
        node = _Node(f"x{i}", (i, i % 13), [i])
        nodes[(node.name, i % 7)] = node
    groups = [frozenset(k for k in nodes if k[1] == j) for j in range(7)]
    merged = set()
    for g in groups:
        merged |= g
    return len(sorted(merged))


class HostSpeed:
    def __init__(self) -> None:
        self.at: list[float] = []  # when each kernel run ended
        self.took: list[float] = []  # how long it took

    def sample(self) -> None:
        gc.disable()
        try:
            for _ in range(BURST):
                start = time.perf_counter()
                kernel()
                end = time.perf_counter()
                self.at.append(end)
                self.took.append(end - start)
        finally:
            gc.enable()

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] > EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time in the last burst before
        `start` and the first burst after `end`."""
        first = bisect.bisect_right(self.at, start) - BURST
        last = bisect.bisect_left(self.at, end) + BURST
        return REFERENCE_S / statistics.median(self.took[first:last])
