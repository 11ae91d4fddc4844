"""In-memory spans and counters recorded around the program's public calls.

A :class:`Tracer` keeps every span (name, start, end, parent, operation
id) in a list and writes them out once, when the benchmark ends.  The
untraced run uses :data:`OFF`, whose methods do nothing, so the timed code
is the same in both modes apart from the cost of the spans themselves.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]); ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return quantile(values, 0.5)


class Tracer:
    """Spans and counters for one traced run."""

    enabled = True

    def __init__(self) -> None:
        # (span id, name, start, end, parent id, operation id, thread name)
        self.spans: list[tuple] = []
        self.counters: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: int | None = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, op,
                 threading.current_thread().name)
            )

    def count(self, name: str, value: float) -> None:
        self.counters[name].append(float(value))

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, *_ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _, _ in self.spans:
            totals[name] += max(0.0, end - start - child_time[span_id])
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "op", "thread")
        payload = {
            **extra,
            "self_time_s": self.self_times(),
            "spans": [dict(zip(keys, span)) for span in self.spans],
        }
        path.write_text(json.dumps(payload))


class _Off:
    """The untraced stand-in: every call is a no-op."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, op: int | None = None):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


OFF = _Off()


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one span adds, measured on a throwaway tracer."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - start) / samples
