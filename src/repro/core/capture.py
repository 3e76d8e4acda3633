"""Provenance capture mechanisms.

The paper: "One of the major advantages to using workflow systems is that
they can be easily instrumented to automatically capture provenance — this
information can be accessed directly through system APIs."

Two mechanisms are implemented:

* :class:`ProvenanceCapture` — engine instrumentation.  It is an
  :class:`~repro.workflow.engine.ExecutionListener`; attached to an
  :class:`~repro.workflow.engine.Executor` it converts every run into a
  :class:`~repro.core.retrospective.WorkflowRun`, keeping a streaming event
  journal along the way (the "detailed log").  Capture runs either
  *synchronously* (all bookkeeping on the engine's coordinating thread — the
  historical behaviour) or *batched* behind a bounded queue: the engine
  thread only enqueues lightweight tuples and a background drainer thread
  owns journal materialization, run conversion and store writes, so at high
  module rates the engine's hot path pays an enqueue instead of the full
  capture cost.  When producers outrun the drainer, an explicit
  back-pressure policy decides what happens (see
  :data:`CAPTURE_POLICIES`); :meth:`ProvenanceCapture.flush` provides the
  barrier that makes deferred capture observably complete.
* :class:`ScriptCapture` — API capture for ad-hoc code (the paper's Perl
  scripts).  Wrapping a plain Python function records each call as a
  one-execution run, so script-based and workflow-based derivations share
  one provenance representation.
"""

from __future__ import annotations

import atexit
import itertools
import queue
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Set,
                    Tuple)

from repro.core.prospective import ProspectiveProvenance
from repro.core.retrospective import (DataArtifact, ModuleExecution,
                                      PortBinding, WorkflowRun)
from repro.identity import hash_value, new_id
from repro.workflow.engine import (ExecutionListener, ModuleResult,
                                   RunResult)
from repro.workflow.faults import FaultInjected, FaultPlan, HardCrash
from repro.workflow.environment import capture_environment
from repro.workflow.registry import ModuleRegistry
from repro.workflow.spec import Module, Workflow

__all__ = ["CaptureEvent", "CaptureStats", "CAPTURE_POLICIES",
           "ProvenanceCapture", "ScriptCapture", "run_from_result",
           "stream_run_to_store"]

#: Back-pressure policies for batched capture, applied when the bounded
#: queue is full:
#:
#: * ``"block"`` — the producer waits for queue space.  Nothing is ever
#:   lost; engine throughput degrades to drainer throughput.
#: * ``"drop-detail"`` — module-level journal events (``module-start`` /
#:   ``module-finish``) are dropped and counted; run lifecycle events and
#:   run materialization still block, so executions and bindings are never
#:   lost — only journal detail.
#: * ``"sample"`` — only every Nth module-level event is enqueued at all
#:   (N = ``sample_every``), thinning journal detail at the source; run
#:   lifecycle events and run materialization always block.
CAPTURE_POLICIES = ("block", "drop-detail", "sample")


@dataclass(frozen=True)
class CaptureEvent:
    """One entry in the streaming capture journal.

    ``seq`` is a monotonic per-capture sequence number assigned at event
    creation; it — not the wall-clock ``at`` stamp — defines journal order.
    Wall-clock time can repeat within a burst and can move backwards under
    clock adjustment, so ``at`` is unreliable as an ordering key.
    """

    at: float
    event: str
    run_id: str
    subject: str = ""
    detail: str = ""
    seq: int = 0


@dataclass
class CaptureStats:
    """Counters describing one capture's traffic (batched mode)."""

    events: int = 0          #: journal events accepted for materialization
    dropped: int = 0         #: events discarded by the drop-detail policy
    sampled_out: int = 0     #: events thinned at the source by sampling
    runs: int = 0            #: run materializations enqueued/performed
    max_queue_depth: int = 0  #: high-water mark of the bounded queue


#: Beyond this many characters/items, ``repr`` is estimated, not computed.
_SIZE_HINT_CAP = 1 << 16


def _size_hint(value: Any) -> int:
    """Approximate size of a value (its repr length) for overload stats.

    Small values report ``len(repr(value))`` exactly, as before.  Large
    strings and containers are *estimated* from their length instead —
    capture sits on the engine's hot path, and paying an O(size) repr of a
    multi-megabyte value just to measure it dominated capture overhead.
    """
    if value is None:
        return 0
    if isinstance(value, (str, bytes, bytearray)):
        length = len(value)
        if length <= _SIZE_HINT_CAP:
            return len(repr(value))
        if isinstance(value, str):
            return length + 2           # the surrounding quotes
        if isinstance(value, bytes):
            return length + 3           # b'...'
        return length + 14              # bytearray(b'...')
    try:
        length = len(value)
    except TypeError:
        return len(repr(value))
    if length > _SIZE_HINT_CAP:
        # rough per-item repr estimate; the field is documented as a hint
        return length * 8
    return len(repr(value))


def run_from_result(result: RunResult, *,
                    registry: Optional[ModuleRegistry] = None,
                    keep_values: bool = True) -> WorkflowRun:
    """Convert an engine :class:`RunResult` into retrospective provenance.

    Artifact identity: within a run, all port values with equal content hash
    collapse to a single artifact; its creator is the first producing
    execution (in topological order), later producers are recorded in
    ``also_produced_by``.  External inputs become external artifacts.
    """
    artifacts: Dict[str, DataArtifact] = {}
    values: Dict[str, Any] = {}
    by_hash: Dict[str, str] = {}
    # membership beside each artifact's also_produced_by list, which keeps
    # first-seen order: many producers of one hash (a pass-through chain)
    # would otherwise make the list test quadratic
    co_producers: Dict[str, Set[str]] = {}

    def artifact_for(value_hash: str, value: Any, type_name: str,
                     created_by: str, role: str) -> str:
        existing_id = by_hash.get(value_hash)
        if existing_id is not None:
            existing = artifacts[existing_id]
            if created_by and created_by != existing.created_by:
                seen = co_producers.setdefault(existing_id, set())
                if created_by not in seen:
                    seen.add(created_by)
                    existing.also_produced_by.append(created_by)
            return existing_id
        artifact_id = new_id("art")
        artifacts[artifact_id] = DataArtifact(
            id=artifact_id, value_hash=value_hash, type_name=type_name,
            created_by=created_by, role=role,
            size_hint=_size_hint(value))
        by_hash[value_hash] = artifact_id
        if keep_values:
            values[artifact_id] = value
        return artifact_id

    output_port_types = _port_type_lookup(result.workflow, registry)
    executions: List[ModuleExecution] = []
    for module_id in result.order:
        module_result = result.results[module_id]
        module = result.workflow.modules[module_id]
        out_bindings: List[PortBinding] = []
        for port, record in sorted(module_result.outputs.items()):
            type_name = output_port_types.get(
                (module.type_name, port, "out"), "Any")
            artifact_id = artifact_for(record.value_hash, record.value,
                                       type_name, module_result.execution_id,
                                       port)
            out_bindings.append(PortBinding(port=port,
                                            artifact_id=artifact_id))
        in_bindings: List[PortBinding] = []
        for port, record in sorted(module_result.inputs.items()):
            type_name = output_port_types.get(
                (module.type_name, port, "in"), "Any")
            artifact_id = artifact_for(record.value_hash, record.value,
                                       type_name, "", "")
            in_bindings.append(PortBinding(port=port,
                                           artifact_id=artifact_id))
        # retried modules: every failed attempt is first-class provenance,
        # attempt-tagged, bound to the same input artifacts, emitting no
        # artifacts of its own — so a retried run is identical to the
        # fault-free run modulo these attempt executions
        for failed in getattr(module_result, "attempts", ()):
            executions.append(ModuleExecution(
                id=failed.execution_id,
                module_id=module_id,
                module_type=module.type_name,
                module_name=module.name,
                status=failed.status,
                parameters=dict(failed.parameters),
                inputs=list(in_bindings),
                outputs=[],
                started=failed.started,
                finished=failed.finished,
                error=failed.error,
                cache_key=failed.cache_key,
                attempt=failed.attempt))
        executions.append(ModuleExecution(
            id=module_result.execution_id,
            module_id=module_id,
            module_type=module.type_name,
            module_name=module.name,
            status=module_result.status,
            parameters=dict(module_result.parameters),
            inputs=in_bindings,
            outputs=out_bindings,
            started=module_result.started,
            finished=module_result.finished,
            error=module_result.error,
            cache_key=module_result.cache_key,
            cached_from=module_result.cached_from))

    prospective = ProspectiveProvenance.from_workflow(result.workflow,
                                                      registry)
    return WorkflowRun(
        id=result.run_id,
        workflow_id=result.workflow.id,
        workflow_name=result.workflow.name,
        workflow_signature=prospective.signature,
        status=result.status,
        started=result.started,
        finished=result.finished,
        environment=dict(result.environment),
        workflow_spec=prospective.spec,
        executions=executions,
        artifacts=artifacts,
        tags=dict(result.tags),
        values=values)


def _port_type_lookup(workflow: Workflow,
                      registry: Optional[ModuleRegistry]
                      ) -> Dict[Tuple[str, str, str], str]:
    lookup: Dict[Tuple[str, str, str], str] = {}
    if registry is None:
        return lookup
    for type_name in {m.type_name for m in workflow.modules.values()}:
        if type_name not in registry:
            continue
        definition = registry.get(type_name)
        for port in definition.output_ports:
            lookup[(type_name, port.name, "out")] = port.type_name
        for port in definition.input_ports:
            lookup[(type_name, port.name, "in")] = port.type_name
    return lookup


def stream_run_to_store(run: WorkflowRun, store: Any, *,
                        batch: int = 256,
                        fault_plan: Optional[FaultPlan] = None) -> None:
    """Persist ``run`` through the store's streaming-ingest API.

    Executions (with the artifacts their bindings reference) are fed to a
    :meth:`~repro.storage.base.ProvenanceStore.save_run_stream` writer and
    flushed every ``batch`` executions, so backends with native streaming
    (the relational store) commit bounded per-batch transactions instead of
    one monolithic run-sized write.  Stores without the streaming API fall
    back to a plain ``save_run``.

    ``fault_plan`` seam: after the Nth successful flush the plan may
    raise :class:`~repro.workflow.faults.HardCrash`, simulating a
    coordinator death mid-ingest.  A hard crash deliberately bypasses
    ``writer.abort()`` — the partial run stays in the store exactly as a
    real crash would leave it, for ``repro fsck`` to detect and repair.
    """
    opener = getattr(store, "save_run_stream", None)
    if opener is None or batch <= 0:
        store.save_run(run)
        return
    writer = opener(run)
    try:
        sent = 0
        added = set()
        for execution in run.executions:
            for binding in itertools.chain(execution.inputs,
                                           execution.outputs):
                artifact = run.artifacts.get(binding.artifact_id)
                if artifact is None or artifact.id in added:
                    continue
                added.add(artifact.id)
                writer.add_artifact(artifact,
                                    value=run.values.get(artifact.id),
                                    has_value=artifact.id in run.values)
            writer.add_execution(execution)
            sent += 1
            if sent % batch == 0:
                writer.flush()
                if fault_plan is not None:
                    spec = fault_plan.draw("stream-flush", run.id)
                    if spec is not None and spec.kind == "crash":
                        raise HardCrash(
                            f"injected coordinator crash after stream "
                            f"flush of {run.id}")
        # artifacts never referenced by a binding (externally ingested
        # provenance can carry them) still belong to the run record
        for artifact in run.artifacts.values():
            if artifact.id not in added:
                writer.add_artifact(artifact,
                                    value=run.values.get(artifact.id),
                                    has_value=artifact.id in run.values)
        writer.finish(status=run.status, finished=run.finished,
                      tags=run.tags)
    except BaseException as exc:
        if not isinstance(exc, HardCrash):
            writer.abort()
        raise


#: Queue item tags for the batched pipeline (tuples stay tiny on purpose:
#: the engine thread builds them, the drainer unpacks them).
_EVENT, _RUN, _STOP = 0, 1, 2

#: Live batched captures, flushed at interpreter exit: the drainer is a
#: daemon thread, so without this hook an exit that skipped ``close()``
#: would silently drop queued tail journal events and run writes.
_LIVE_CAPTURES: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _flush_live_captures() -> None:  # pragma: no cover - exit hook
    for capture in list(_LIVE_CAPTURES):
        try:
            capture.close()
        except Exception:
            pass  # exit-time best effort; the store may already be gone


class ProvenanceCapture(ExecutionListener):
    """Engine instrumentation that records every run it observes.

    Attach to an :class:`~repro.workflow.engine.Executor`; finished runs are
    appended to :attr:`runs` and optionally saved to a provenance store (any
    object with a ``save_run(run)`` method).

    Args:
        registry: module registry used to type artifact ports.
        store: provenance store finished runs are saved to.
        keep_values: retain artifact values on captured runs.
        journal_limit: journal retention bound (a deque ``maxlen``).
        queue_size: ``0`` (default) captures synchronously on the engine
            thread; ``> 0`` switches to the *batched* pipeline — a bounded
            queue of this many items drained by a background thread that
            owns journal materialization, run conversion
            (:func:`run_from_result`) and store writes.  The engine's hot
            path then only builds a small tuple and enqueues it.
        policy: back-pressure policy when the queue is full — one of
            :data:`CAPTURE_POLICIES`.  Whatever the policy, executions,
            bindings and runs are never lost; only journal *detail* may be
            thinned or dropped.
        sample_every: with ``policy="sample"``, keep one in this many
            module-level events.
        stream_batch: when set, store saves go through
            :func:`stream_run_to_store` with this batch size — executions
            flush to the backend incrementally (per-batch transactions on
            the relational store) instead of as one monolithic write.
        fault_plan: optional :class:`~repro.workflow.faults.FaultPlan`
            injecting deterministic faults at capture seams (drainer
            crash during run materialization, coordinator crash between
            stream flushes) — for recovery tests and drills.

    Thread-safety: the engine dispatches listener events from its
    coordinating thread, but one capture instance may be shared between
    executors (or executors driven from different threads), so journal and
    run bookkeeping are guarded by a lock; in batched mode the drainer
    thread is the only store writer, which also serializes saves.  Within
    one run the converted provenance is deterministic regardless of
    execution parallelism or capture mode — the execution list follows the
    workflow's canonical topological order, not wall-clock completion
    order — and :meth:`normalized_journal` gives a timing-independent view
    of the event stream for comparisons.

    Deferred completeness: in batched mode :meth:`last_run`,
    :meth:`run_by_id` and :meth:`normalized_journal` call :meth:`flush`
    first, so readers always observe a complete journal and run list;
    call :meth:`flush` directly before touching :attr:`runs` or
    :attr:`journal` raw.
    """

    def __init__(self, *, registry: Optional[ModuleRegistry] = None,
                 store: Optional[Any] = None, keep_values: bool = True,
                 journal_limit: int = 10_000,
                 queue_size: int = 0,
                 policy: str = "block",
                 sample_every: int = 8,
                 stream_batch: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if policy not in CAPTURE_POLICIES:
            raise ValueError(f"unknown capture policy: {policy!r} "
                             f"(expected one of {CAPTURE_POLICIES})")
        if queue_size < 0:
            raise ValueError("queue_size must be >= 0")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.registry = registry
        self.store = store
        self.keep_values = keep_values
        self.policy = policy
        self.sample_every = sample_every
        self.stream_batch = stream_batch
        self.fault_plan = fault_plan
        self.stats = CaptureStats()
        self.runs: List[WorkflowRun] = []
        # bounded deque: appends beyond the limit evict the oldest entry
        # in O(1) instead of an O(n) slice-delete per overflow
        self.journal: Deque[CaptureEvent] = deque(maxlen=journal_limit)
        self._runs_by_id: Dict[str, WorkflowRun] = {}
        self._lock = threading.Lock()
        # next(counter) is atomic under CPython, so the hot path takes no
        # lock to stamp an event's sequence number
        self._seq = itertools.count(1)
        self._sample_tick = itertools.count()
        self._queue: Optional[queue.Queue] = (
            queue.Queue(maxsize=queue_size) if queue_size else None)
        self._drainer: Optional[threading.Thread] = None
        self._drainer_error: Optional[BaseException] = None
        self._closed = False
        #: test seam: seconds the drainer sleeps per item, simulating a
        #: slow materialization sink for back-pressure tests
        self.drain_delay = 0.0
        if self._queue is not None:
            _LIVE_CAPTURES.add(self)

    @property
    def journal_limit(self) -> int:
        """The journal's retention bound (the deque's maxlen)."""
        return self.journal.maxlen

    @property
    def batched(self) -> bool:
        """True when this capture defers work to the drainer thread."""
        return self._queue is not None and not self._closed

    # -- ExecutionListener ------------------------------------------------
    def on_run_start(self, run_id: str, workflow: Workflow,
                     environment: Dict[str, Any],
                     tags: Dict[str, Any]) -> None:
        self._submit_event("run-start", run_id, workflow.id, workflow.name,
                           detail_level=False)

    def on_module_start(self, run_id: str, module: Module,
                        parameters: Dict[str, Any]) -> None:
        self._submit_event("module-start", run_id, module.id, module.name,
                           detail_level=True)

    def on_module_finish(self, run_id: str, module: Module,
                         result: ModuleResult) -> None:
        self._submit_event("module-finish", run_id, module.id,
                           result.status, detail_level=True)

    def on_run_finish(self, result: RunResult) -> None:
        self.stats.runs += 1
        if self.batched:
            # a store write that already failed on the drainer must fail
            # the producer *here*, at the next run hand-off — not linger
            # until some eventual flush() while callers keep submitting
            # runs that can no longer be persisted
            self._raise_drainer_error()
            # the engine thread hands off the raw RunResult; conversion
            # and the store write happen on the drainer.  Run completions
            # always block — back-pressure may thin the journal, never
            # the provenance record itself.
            self._enqueue((_RUN, result, 1), block=True)
        else:
            self._materialize_run(result)
        self._submit_event("run-finish", result.run_id, "", result.status,
                           detail_level=False)

    # -- hot path ----------------------------------------------------------
    def _submit_event(self, kind: str, run_id: str, subject: str,
                      detail: str, *, detail_level: bool) -> None:
        """Record one journal event, honouring mode and policy.

        ``detail_level`` marks module-granularity events — the ones
        back-pressure policies are allowed to thin.  Run lifecycle events
        always survive.
        """
        if self.batched and detail_level:
            if (self.policy == "sample"
                    and next(self._sample_tick) % self.sample_every):
                self.stats.sampled_out += 1
                return
            if self.policy == "drop-detail":
                item = (_EVENT, next(self._seq), time.time(), kind,
                        run_id, subject, detail)
                try:
                    self._enqueue(item, block=False)
                except queue.Full:
                    self.stats.dropped += 1
                return
        event = (_EVENT, next(self._seq), time.time(), kind, run_id,
                 subject, detail)
        if self.batched:
            self._enqueue(event, block=True)
        else:
            self.stats.events += 1
            self._journal(CaptureEvent(event[2], kind, run_id,
                                       subject=subject, detail=detail,
                                       seq=event[1]))

    def _enqueue(self, item: Tuple, *, block: bool) -> None:
        """Put one item on the bounded queue.

        The drainer starts lazily on the first *contended* put (queue
        full) or at the next flush/close barrier, not on the first
        event: while the queue has room the producer runs free of
        drainer GIL and context-switch interference, which is what
        keeps the batched hot path cheap on busy or few-core hosts.
        """
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self._ensure_drainer()
            if not block:
                raise
            self._queue.put(item)
        depth = self._queue.qsize()
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

    def _ensure_drainer(self) -> None:
        with self._lock:
            if self._drainer is None:
                self._drainer = threading.Thread(
                    target=self._drain_loop, name="repro-capture-drainer",
                    daemon=True)
                self._drainer.start()

    # -- drainer side ------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item[0] == _STOP:
                    return
                if self.drain_delay:
                    time.sleep(self.drain_delay)
                if item[0] == _EVENT:
                    _, seq, at, kind, run_id, subject, detail = item
                    self.stats.events += 1
                    self._journal(CaptureEvent(at, kind, run_id,
                                               subject=subject,
                                               detail=detail, seq=seq))
                else:
                    tries = item[2] if len(item) > 2 else 1
                    try:
                        self._materialize_run(item[1])
                    except BaseException:
                        if tries >= 2:
                            raise
                        # supervised drainer: one re-enqueue before the
                        # failure surfaces at the next flush() barrier —
                        # a transiently failing store write doesn't lose
                        # the run record.  put_nowait: the drainer must
                        # never block on its own queue.
                        try:
                            self._queue.put_nowait(
                                (_RUN, item[1], tries + 1))
                        except queue.Full:
                            raise
            except BaseException as exc:  # surfaced on the next flush()
                self._drainer_error = exc
            finally:
                self._queue.task_done()

    def _materialize_run(self, result: RunResult) -> None:
        if self.fault_plan is not None:
            spec = self.fault_plan.draw("drainer", result.run_id)
            if spec is not None:
                raise FaultInjected(
                    f"injected drainer crash materializing {result.run_id}")
        run = run_from_result(result, registry=self.registry,
                              keep_values=self.keep_values)
        with self._lock:
            # the store write stays under the capture lock: backends are
            # not themselves thread-safe (e.g. sqlite3 connections), so a
            # shared capture must serialize saves from concurrent runs
            if run.id in self._runs_by_id:
                # a supervised retry whose first try died *after* the
                # bookkeeping — don't double-append
                self.runs = [r for r in self.runs if r.id != run.id]
            self.runs.append(run)
            self._runs_by_id[run.id] = run
            if self.store is not None:
                if self.stream_batch:
                    stream_run_to_store(run, self.store,
                                        batch=self.stream_batch,
                                        fault_plan=self.fault_plan)
                else:
                    self.store.save_run(run)

    # -- completeness barriers ---------------------------------------------
    def _raise_drainer_error(self) -> None:
        """Re-raise (and clear) a pending drainer-side failure."""
        error, self._drainer_error = self._drainer_error, None
        if error is not None:
            raise error

    def flush(self) -> None:
        """Block until every enqueued event and run is materialized.

        A no-op for synchronous captures.  Re-raises the first exception
        the drainer hit (e.g. a failing store write), so deferred errors
        are not silently swallowed.
        """
        if self._queue is not None:
            if self._queue.unfinished_tasks:
                self._ensure_drainer()
            self._queue.join()
        self._raise_drainer_error()

    def close(self) -> None:
        """Flush, stop the drainer, and fall back to synchronous capture.

        Idempotent — a second (or atexit-time) ``close()`` returns
        immediately.  Events recorded after ``close()`` are processed
        inline on the calling thread, so a closed capture keeps working.
        """
        if self._closed:
            return
        if self._queue is not None and (self._drainer is not None
                                        or self._queue.unfinished_tasks):
            self._ensure_drainer()
            self._queue.join()
            self._queue.put((_STOP,))
            self._drainer.join()
            self._drainer = None
        self._closed = True
        _LIVE_CAPTURES.discard(self)
        self._raise_drainer_error()

    def __enter__(self) -> "ProvenanceCapture":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- access ------------------------------------------------------------
    def last_run(self) -> WorkflowRun:
        """The most recently captured run (IndexError when none)."""
        self.flush()
        return self.runs[-1]

    def run_by_id(self, run_id: str) -> Optional[WorkflowRun]:
        """A captured run by id, or None — an O(1) index lookup."""
        self.flush()
        with self._lock:
            return self._runs_by_id.get(run_id)

    def journal_for_run(self, run_id: str) -> List[CaptureEvent]:
        """One run's journal events in capture order (sorted by ``seq``).

        Sequence numbers — not wall-clock ``at`` stamps — define order, so
        the result is stable under clock adjustment and identical-timestamp
        bursts.
        """
        self.flush()
        with self._lock:
            events = [e for e in self.journal if e.run_id == run_id]
        return sorted(events, key=lambda e: e.seq)

    def normalized_journal(self, run_id: str) -> List[Tuple[str, str, str]]:
        """One run's events as (event, subject, detail), timing-normalized.

        Parallel execution interleaves module events in completion order;
        this view sorts each event kind's entries by subject so serial and
        parallel runs of the same workflow compare equal.
        """
        order = {"run-start": 0, "module-start": 1, "module-finish": 2,
                 "run-finish": 3}
        self.flush()
        with self._lock:
            events = [e for e in self.journal if e.run_id == run_id]
        return sorted(
            ((e.event, e.subject, e.detail) for e in events),
            key=lambda item: (order.get(item[0], 9), item[1], item[2]))

    def _journal(self, event: CaptureEvent) -> None:
        with self._lock:
            self.journal.append(event)


class ScriptCapture:
    """API-level capture for ad-hoc (non-workflow) computations.

    Each recorded call becomes a one-execution :class:`WorkflowRun` whose
    inputs are the call arguments and whose output is the return value, so
    script-derived data enters the same provenance infrastructure as
    workflow-derived data.

    >>> capture = ScriptCapture(author="alice")
    >>> result, run = capture.record(sorted, [3, 1, 2])
    >>> result
    [1, 2, 3]
    >>> run.executions[0].module_type
    'script:sorted'
    """

    def __init__(self, author: str = "",
                 store: Optional[Any] = None) -> None:
        self.author = author
        self.store = store
        self.runs: List[WorkflowRun] = []

    def record(self, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Tuple[Any, WorkflowRun]:
        """Call ``fn(*args, **kwargs)`` and record the call as provenance."""
        name = getattr(fn, "__name__", "anonymous")
        started = time.time()
        error = ""
        status = "ok"
        try:
            output = fn(*args, **kwargs)
        except Exception as exc:
            output = None
            status = "failed"
            error = f"{type(exc).__name__}: {exc}"
        finished = time.time()

        artifacts: Dict[str, DataArtifact] = {}
        values: Dict[str, Any] = {}
        in_bindings: List[PortBinding] = []
        execution_id = new_id("exec")

        def add_artifact(value: Any, created_by: str, role: str) -> str:
            artifact_id = new_id("art")
            artifacts[artifact_id] = DataArtifact(
                id=artifact_id, value_hash=hash_value(value),
                type_name="Any", created_by=created_by, role=role,
                size_hint=_size_hint(value))
            values[artifact_id] = value
            return artifact_id

        for index, argument in enumerate(args):
            in_bindings.append(PortBinding(
                port=f"arg{index}",
                artifact_id=add_artifact(argument, "", "")))
        for key in sorted(kwargs):
            in_bindings.append(PortBinding(
                port=f"kwarg:{key}",
                artifact_id=add_artifact(kwargs[key], "", "")))
        out_bindings: List[PortBinding] = []
        if status == "ok":
            out_bindings.append(PortBinding(
                port="return",
                artifact_id=add_artifact(output, execution_id, "return")))

        execution = ModuleExecution(
            id=execution_id, module_id=new_id("mod"),
            module_type=f"script:{name}", module_name=name, status=status,
            parameters={}, inputs=in_bindings, outputs=out_bindings,
            started=started, finished=finished, error=error)
        run = WorkflowRun(
            id=new_id("run"), workflow_id=new_id("wf"),
            workflow_name=f"script:{name}", workflow_signature="",
            status=status, started=started, finished=finished,
            environment=capture_environment(),
            executions=[execution], artifacts=artifacts,
            tags={"capture": "script", "author": self.author},
            values=values)
        self.runs.append(run)
        if self.store is not None:
            self.store.save_run(run)
        return output, run

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return a function that records provenance on every call."""
        def recorded(*args: Any, **kwargs: Any) -> Any:
            output, _ = self.record(fn, *args, **kwargs)
            return output
        recorded.__name__ = getattr(fn, "__name__", "anonymous")
        recorded.__doc__ = fn.__doc__
        return recorded
