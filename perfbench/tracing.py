"""In-memory span recorder for the benchmark's traced runs.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
span that caused it, and the request it belongs to.  Spans nest per
thread.  Each span's *self time* -- its duration minus the time its direct
children cover -- is folded into per-name totals as the span closes, so
the per-layer numbers are exact even when the raw span list is capped for
export.  Nothing is written until :meth:`Tracer.export` is called at the
end of a run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "SpanStats", "maybe_request", "maybe_span", "merged"]


class SpanStats:
    """Count, total and self seconds of every span with one name."""

    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0

    def mean_us(self) -> float:
        """Mean duration in microseconds (0 when never recorded)."""
        return self.total / self.count * 1e6 if self.count else 0.0


class Tracer:
    """Records spans and counters in memory; exports them on demand.

    Args:
        keep: how many raw spans to retain for export.  Spans past the cap
            still count in :attr:`stats`; the export notes how many it
            dropped.
    """

    def __init__(self, keep: int = 200_000) -> None:
        self.keep = keep
        self.origin = time.perf_counter()
        self.stats: Dict[str, SpanStats] = {}
        self.counters: Counter = Counter()
        self.spans: List[Tuple[str, float, float, int, int, Any, int]] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stats_lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: Any) -> Iterator[None]:
        """Tag every span opened inside the block with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the block as one span named ``name``."""
        stack = self._stack()
        parent = stack[-1][2] if stack else 0
        frame = [time.perf_counter(), 0.0, next(self._ids)]
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[0]
            if stack:
                stack[-1][1] += duration
            self._close(name, frame[0], end, duration - frame[1], frame[2],
                        parent)

    def _close(self, name: str, start: float, end: float, self_time: float,
               span_id: int, parent: int) -> None:
        with self._stats_lock:
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stats.count += 1
            stats.total += end - start
            stats.self_time += self_time
            if len(self.spans) < self.keep:
                self.spans.append((name, start, end, span_id, parent,
                                   getattr(self._local, "request", None),
                                   threading.get_ident()))
            else:
                self.dropped += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def get(self, name: str) -> SpanStats:
        """Totals for ``name`` (empty totals when never recorded)."""
        return self.stats.get(name) or SpanStats()

    # -- export -----------------------------------------------------------
    def export(self, stem: Path) -> Tuple[Path, Path]:
        """Write ``<stem>.jsonl`` and ``<stem>.trace.json``.

        The JSON-lines file has one span per line; the second file is the
        Chrome trace-event format, which Perfetto and chrome://tracing open
        directly.
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        threads: Dict[int, int] = {}
        lines_path = stem.with_suffix(".jsonl")
        chrome_path = stem.with_suffix(".trace.json")
        events = []
        with open(lines_path, "w") as lines:
            for name, start, end, span_id, parent, request, thread in \
                    self.spans:
                tid = threads.setdefault(thread, len(threads) + 1)
                start_us = (start - self.origin) * 1e6
                end_us = (end - self.origin) * 1e6
                record = {"name": name, "start_us": round(start_us, 3),
                          "end_us": round(end_us, 3), "span": span_id,
                          "parent": parent, "request": request,
                          "thread": tid}
                lines.write(json.dumps(record) + "\n")
                events.append({"name": name, "ph": "X", "pid": 1,
                               "tid": tid, "ts": round(start_us, 3),
                               "dur": round(end_us - start_us, 3),
                               "args": {"span": span_id, "parent": parent,
                                        "request": request}})
        with open(chrome_path, "w") as chrome:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped,
                                     "counters": dict(self.counters)}},
                      chrome)
        return lines_path, chrome_path


def merged(tracers: List[Tracer]) -> Tracer:
    """One tracer holding every span of ``tracers`` (ids kept unique), for
    a single export."""
    out = Tracer(keep=0)
    out.origin = min(tracer.origin for tracer in tracers)
    base = 0
    for tracer in tracers:
        top = 0
        for name, start, end, span_id, parent, request, thread in \
                tracer.spans:
            out.spans.append((name, start, end, span_id + base,
                              parent + base if parent else 0, request,
                              thread))
            top = max(top, span_id)
        base += max(top, tracer.dropped + len(tracer.spans))
        out.dropped += tracer.dropped
        out.counters.update(tracer.counters)
    return out


def maybe_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op context when tracing is off."""
    return tracer.span(name) if tracer is not None else nullcontext()


def maybe_request(tracer: Optional[Tracer], request_id: Any):
    """``tracer.request(request_id)``, or a no-op context."""
    return (tracer.request(request_id) if tracer is not None
            else nullcontext())
