"""Spans around the benchmark's own calls into the library.

Only calls the benchmark makes are traced.  The engine recurses through
the module globals `engine.gamma_mod3` and `engine.delta_mod3`, so
nothing here replaces a library attribute: a wrapper there would
intercept the memoised recursion and time a different program.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    work: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records a span per call when enabled; otherwise calls straight through.

    `work` is the size of the call (cells, terms, order cubed), known
    before it runs, so later code can turn spans into counts.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, work: int = 0):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, work)
        self.spans.append(record)
        self._open.append(index)
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, work: int = 0):
        if not self.enabled:
            return fn(*args)
        with self.span(name, work):
            return fn(*args)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, busy seconds, self seconds, work."""
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
            row["calls"] += 1
            row["busy_s"] += s.end - s.start
            row["self_s"] += own
            row["work"] += s.work
        return out

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
