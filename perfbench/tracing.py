"""Span tracing from outside the program.

The traced run replaces module attributes that callers look up at call
time (``training.sample_episode``, ``autodiff.grad``, ``kernels.*``, ...)
with wrappers that record one span per call: name, start, end and the
index of the enclosing span. Nothing under ``src/`` is changed. A span's
self time is its duration minus the part of that interval covered by its
child spans.

This module imports nothing from the program, so its arithmetic can be
tested on synthetic inputs.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [NO_PARENT]

    def record(self, name: str, start: float, end: float, parent: int = NO_PARENT) -> int:
        """Append a finished span; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def wrap(self, name, fn):
        """``fn`` recording a span per call. ``name`` is a string, or a
        callable ``(args, kwargs) -> str`` evaluated per call."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name if fixed else name(args, kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def spans(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]


def self_times(tracer: Tracer) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(tracer.parents):
        if parent != NO_PARENT:
            children[parent].append(idx)
    out = []
    for idx in range(len(tracer.names)):
        start, end = tracer.starts[idx], tracer.ends[idx]
        intervals = sorted(
            (max(tracer.starts[c], start), min(tracer.ends[c], end)) for c in children.get(idx, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time (s)."""
    selfs = self_times(tracer)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for idx, name in enumerate(tracer.names):
        entry = agg[name]
        entry["calls"] += 1
        entry["total"] += tracer.ends[idx] - tracer.starts[idx]
        entry["self"] += selfs[idx]
    return dict(agg)


@contextmanager
def patched(targets, make_wrapper):
    """Replace each ``(module, attribute, label)`` target by
    ``make_wrapper(label, original)`` for the duration of the block, then
    restore the originals."""
    originals = []
    try:
        for module, attr, label in targets:
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, make_wrapper(label, fn))
        yield
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def count_tape(output) -> dict[str, int]:
    """Tape nodes reachable from ``output`` through ``Tensor.node`` and
    ``Node.inputs``, counted once each and keyed by op name."""
    counts: dict[str, int] = defaultdict(int)
    seen: set[int] = set()
    stack = [output]
    while stack:
        t = stack.pop()
        node = t.node
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        counts[node.op] += 1
        stack.extend(node.inputs)
    return dict(counts)


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile p among ``count`` sorted samples
    (rounded first, so 90% of 100 is rank 90 despite binary fractions)."""
    return max(1, math.ceil(round(p * count / 100.0, 9)))


def tail_percentile(count: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in candidates:
        if count - _rank(p, count) >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[_rank(p, len(values)) - 1]


def gaps(times) -> list[float]:
    """Differences between successive timestamps."""
    return [b - a for a, b in zip(times, times[1:])]


class GcMonitor:
    """Pause time and collection counts of the cyclic collector, read from
    ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._start = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1

    @contextmanager
    def active(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)
