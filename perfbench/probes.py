"""Delegating objects the benchmark hands to the system, plus shared helpers.

Each delegate forwards to the real layer object and, in a traced run,
records a span around the call.  They stand between the layers without
changing what the layers do, so a run drives the system exactly as a user
would.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Any, List, Optional, Sequence

from repro.core.retrospective import WorkflowRun
from repro.workflow.cache import CacheStore
from repro.workflow.engine import ExecutionListener
from repro.workflow.spec import Workflow

from perfbench.tracing import Tracer, maybe_span

__all__ = ["TimedStore", "TracedCache", "TracedListener", "CountingWorkflow",
           "fingerprint", "percentile", "peak_rss_mb",
           "child_peak_rss_mb", "us_per"]


class TimedStore:
    """A provenance store delegate that times every ``save_run``.

    The save durations feed the ``write_*`` metrics; with a tracer the
    saves and ``save_workflow`` calls are also recorded as spans named
    ``<layer>.save_run`` and ``<layer>.save_workflow``.  Every other
    attribute is the wrapped store's.
    """

    def __init__(self, inner: Any, layer: str,
                 tracer: Optional[Tracer] = None) -> None:
        self.inner = inner
        self.layer = layer
        self.tracer = tracer
        self.save_seconds: List[float] = []
        self.executions_saved = 0

    def save_run(self, run: WorkflowRun) -> None:
        with maybe_span(self.tracer, f"{self.layer}.save_run"):
            started = time.perf_counter()
            self.inner.save_run(run)
            self.save_seconds.append(time.perf_counter() - started)
        self.executions_saved += len(run.executions)

    def save_workflow(self, prospective: Any) -> None:
        with maybe_span(self.tracer, f"{self.layer}.save_workflow"):
            self.inner.save_workflow(prospective)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class TracedCache(CacheStore):
    """A result-cache delegate recording ``cache.get``/``cache.put``
    spans."""

    def __init__(self, inner: CacheStore, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    @property
    def supports_leases(self) -> bool:  # type: ignore[override]
        return self.inner.supports_leases

    @property
    def stats(self) -> Any:
        return self.inner.stats

    def get(self, key: str) -> Any:
        with self.tracer.span("cache.get"):
            return self.inner.get(key)

    def put(self, key: str, entry: Any) -> None:
        with self.tracer.span("cache.put"):
            self.inner.put(key, entry)

    def acquire_lease(self, key: str, owner: str, *args: Any,
                      **kwargs: Any) -> bool:
        return self.inner.acquire_lease(key, owner, *args, **kwargs)

    def release_lease(self, key: str, owner: str) -> None:
        self.inner.release_lease(key, owner)

    def wait_for_entry(self, key: str, *args: Any, **kwargs: Any) -> Any:
        return self.inner.wait_for_entry(key, *args, **kwargs)

    def __contains__(self, key: str) -> bool:
        return key in self.inner


class TracedListener(ExecutionListener):
    """Wraps the manager's capture listener, one span per event."""

    def __init__(self, inner: ExecutionListener, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def on_run_start(self, *args: Any) -> None:
        with self.tracer.span("capture.on_run_start"):
            self.inner.on_run_start(*args)

    def on_module_start(self, *args: Any) -> None:
        with self.tracer.span("capture.on_module_start"):
            self.inner.on_module_start(*args)

    def on_module_finish(self, *args: Any) -> None:
        with self.tracer.span("capture.on_module_finish"):
            self.inner.on_module_finish(*args)

    def on_run_finish(self, *args: Any) -> None:
        with self.tracer.span("capture.on_run_finish"):
            self.inner.on_run_finish(*args)


class CountingWorkflow(Workflow):
    """A workflow that counts calls to its adjacency helpers."""

    adjacency_calls = 0

    @classmethod
    def of(cls, workflow: Workflow) -> "CountingWorkflow":
        """A counting copy sharing ``workflow``'s ids and structure."""
        copy = cls(workflow.name, workflow_id=workflow.id)
        copy.modules = dict(workflow.modules)
        copy.connections = dict(workflow.connections)
        return copy

    def incoming(self, module_id: str):
        self.adjacency_calls += 1
        return super().incoming(module_id)

    def outgoing(self, module_id: str):
        self.adjacency_calls += 1
        return super().outgoing(module_id)


def fingerprint(run: WorkflowRun) -> tuple:
    """Provenance identity of a run, independent of generated ids: run
    status, then per execution its module, status and input/output value
    hashes, then the sorted artifact hashes."""
    artifact_hash = {a.id: a.value_hash for a in run.artifacts.values()}
    return (run.status, tuple(
        (e.module_id, e.status,
         tuple(sorted((b.port, artifact_hash[b.artifact_id])
                      for b in e.inputs)),
         tuple(sorted((b.port, artifact_hash[b.artifact_id])
                      for b in e.outputs)))
        for e in run.executions),
        tuple(sorted(a.value_hash for a in run.artifacts.values())))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method; median for 50); 0 when
    there are no values, as when every operation failed."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live child, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def us_per(stats_total: float, units: float) -> float:
    """Seconds spread over ``units``, in microseconds per unit."""
    return stats_total / units * 1e6 if units else 0.0
