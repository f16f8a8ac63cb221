"""Spans, counters and GC pauses for the traced run.

The tracer wraps the public functions of the package where one layer
calls into the next (the names are replaced in the calling module, so
nothing under ``src/`` changes) and records a span around each call:
name, start, end and parent.  Spans stay in memory and are written out
as JSON when the run ends.  Every span also feeds a per-name aggregate of
calls, total time and self time (time not covered by child spans), so
the per-layer metrics do not depend on how many raw spans are kept.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict

# Raw spans kept for the JSON file; the aggregates cover every span.
MAX_SPANS = 20_000


def code_shape(code) -> str:
    """Size class of a Code: big (a token value above 1000), long (more
    than 100 tokens), short (at most 7 tokens) or medium."""
    tokens = code.tokens
    if len(tokens) > 100:
        return "long"
    if any(t.value > 1000 for t in tokens):
        return "big"
    return "short" if len(tokens) <= 7 else "medium"


def graph_shape(graph) -> str:
    return "short" if graph.tree.vertex_count <= 7 else "other"


def doc_shape(doc) -> str:
    return "short" if len(doc["vertices"]) <= 7 else "other"


class Tracer:
    """Records nested spans; ``patch`` makes a function record one."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.dropped = 0
        # name -> [calls, total ns, self ns, tokens]
        self.agg: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        # Class of the current operation, set by the workload; a shape
        # function may return it.
        self.tag = None
        self.gc_collections = [0, 0, 0]
        self.gc_pause_ns = 0
        self._gc_start = 0

    # -- spans ---------------------------------------------------------

    def call(self, name: str, fn, args: tuple, kwargs: dict, shape=None, tokens: int = 0,
             observe=None):
        """Call ``fn(*args, **kwargs)`` inside a span.  ``shape`` maps the first
        argument to a class suffix for the aggregate key; ``observe``
        sees the result, to update counters."""
        key = name if shape is None else f"{name}/{shape(args[0])}"
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            entry = self.agg[key]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[1]
            entry[3] += tokens
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, key, start, end))
            else:
                self.dropped += 1

    def patch(self, owner, attr: str, name: str, shape=None, sized: bool = False,
              observe=None, static: bool = False) -> None:
        """Replace ``owner.attr`` by a stand-in that records a span per
        call, until ``restore``.  With ``sized`` the first argument's
        token count is added up too."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            tokens = len(args[0].tokens) if sized else 0
            return self.call(name, fn, args, kwargs, shape, tokens, observe)

        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, staticmethod(traced) if static else traced)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- garbage collector -------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            self.gc_collections[info["generation"]] += 1
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- results -------------------------------------------------------

    def total_s(self, key: str) -> float:
        return self.agg[key][1] / 1e9 if key in self.agg else 0.0

    def self_s(self, key: str) -> float:
        return self.agg[key][2] / 1e9 if key in self.agg else 0.0

    def calls(self, key: str) -> int:
        return self.agg[key][0] if key in self.agg else 0

    def mean_us(self, key: str) -> float:
        calls = self.calls(key)
        return self.agg[key][1] / calls / 1e3 if calls else 0.0

    def us_per_token(self, key: str) -> float:
        if key not in self.agg or not self.agg[key][3]:
            return 0.0
        return self.agg[key][1] / self.agg[key][3] / 1e3

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "name", "start_ns", "end_ns"]
        doc["spans"] = self.spans
        doc["dropped_spans"] = self.dropped
        doc["aggregates"] = {
            k: {"calls": v[0], "total_s": v[1] / 1e9, "self_s": v[2] / 1e9, "tokens": v[3]}
            for k, v in sorted(self.agg.items())
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["gc"] = {"collections": self.gc_collections, "pause_s": self.gc_pause_ns / 1e9}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
