"""Spans around the benchmark's calls into the program's layers.

Every call into a layer goes through ``Tracer.call``.  With tracing off it
only counts the call; with tracing on it also records a span ``(id, parent,
task, layer, start, end)`` whose parent is the task span that is open.  Spans
stay in memory until the run writes them out.  No span is recorded inside
the package itself, so a layer's self time equals its busy time unless the
benchmark nests calls.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._task = None
        self._parent = None

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as one call into ``layer``."""
        self.calls[layer] += 1
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((len(self.spans), self._parent, self._task, layer,
                               start, perf_counter()))

    def add(self, name: str, amount) -> None:
        """Add work done to a per-layer counter such as ``search.nodes_expanded``."""
        self.counts[name] += amount

    def task(self, task_id, fn, *args):
        """Run ``fn`` as the root span of one task; children nest under it."""
        if not self.enabled:
            return fn(*args)
        span_id = len(self.spans)
        self.spans.append(None)  # reserved so children can name their parent
        self._task, self._parent = task_id, span_id
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[span_id] = (span_id, None, task_id, "task", start, perf_counter())
            self._task = self._parent = None

    def reset_counts(self) -> None:
        self.calls.clear()
        self.counts.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, task, layer, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "task": task,
                                     "layer": layer, "start": start, "end": end}) + "\n")


def busy_and_self(spans) -> tuple[dict, dict]:
    """Per-layer total duration and self time (duration minus child coverage).

    Children of one parent never overlap here: the benchmark is a single
    thread that calls one layer at a time.
    """
    child_time: defaultdict = defaultdict(float)
    for _sid, parent, _task, _layer, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    busy: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    for sid, _parent, _task, layer, start, end in spans:
        busy[layer] += end - start
        own[layer] += end - start - child_time[sid]
    return dict(busy), dict(own)
