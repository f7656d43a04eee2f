"""In-memory span recorder for traced benchmark passes.

A span covers one call the benchmark makes into the library: its name, its
start and end (perf_counter seconds), the span that encloses it, and the id
of the pass it belongs to.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class SpanRecorder:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "pass_id": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullRecorder:
    """Stands in for SpanRecorder in untraced passes; records nothing."""

    def __init__(self):
        self.spans: list[dict] = []

    def span(self, name: str):
        return nullcontext()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
