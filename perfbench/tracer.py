"""In-memory span tracer for the benchmark's traced run.

A span records a name, a start and end time, the span that caused it and
the item it belongs to.  Spans are kept in memory and written out once,
when the run ends.  A span's self time is its duration minus the part of
its interval that its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    item: str | None
    name: str
    start: float
    end: float = 0.0
    probe: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans and named counters for one run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, item: str | None = None, probe: bool = False):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and item is None:
            item = parent.item
        s = Span(len(self.spans), parent.id if parent else None, item, name,
                 0.0, probe=probe)
        self.spans.append(s)
        self._stack.append(s)
        s.start = self.clock()
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id]) for s in spans}


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Span name -> (summed self time, number of spans)."""
    own = self_times(spans)
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        t, n = out.get(s.name, (0.0, 0))
        out[s.name] = (t + own[s.id], n + 1)
    return out
