"""Harness-side spans around calls into each ``repro`` module.

Spans are kept in memory (name, start, end, parent, operation id) and
written out once, when the traced run ends.  A span's *self time* is its
duration minus the part of it that its child spans cover, so a parent's
self time is what the harness could not attribute to a named stage.
Each thread nests its own spans; ids are global to the tracer.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Record one span; ``op`` defaults to the enclosing span's operation id."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": op if op is not None or parent is None else parent["op"],
            "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        record["start"] = self._clock()
        try:
            yield record
        finally:
            record["end"] = self._clock()
            stack.pop()

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def per_op(self, name: str, self_time: bool = False) -> dict[int, float]:
        """Operation id -> summed (self) time of the spans called ``name``."""
        own = self.self_times() if self_time else None
        out: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name:
                value = own[s["id"]] if own is not None else s["end"] - s["start"]
                out[s["op"]] = out.get(s["op"], 0.0) + value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))

