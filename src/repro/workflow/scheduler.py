"""Ready-set dataflow scheduling for workflow execution.

Cuevas-Vicenttín et al. frame dataflow engines as schedulers over *ready
sets*: a module becomes schedulable the moment every one of its upstream
dependencies has resolved, independent of any global serialization.  This
module provides the two halves of that architecture for the engine:

* :class:`ReadySetScheduler` — pure bookkeeping over the workflow DAG.
  Modules carry explicit unresolved-dependency counts; resolving a module
  (in any status — ok, cached, failed or skipped) decrements its dependents
  and surfaces newly-ready modules.  Whether a ready module actually
  computes or is skipped because an upstream failed is the engine's call;
  the scheduler only guarantees that the question is asked exactly once per
  module, after all of its inputs are settled.  Ready batches are sorted by
  module id, so scheduling decisions are deterministic regardless of
  completion timing.

* Execution backends — where ready work physically runs.
  :class:`SerialBackend` executes each job synchronously at submission (the
  deterministic default, equivalent to the old topological loop);
  :class:`ThreadPoolBackend` fans jobs out to a ``ThreadPoolExecutor`` so
  independent branches overlap; :class:`ProcessPoolBackend` ships jobs to a
  ``ProcessPoolExecutor`` so pure-Python CPU-bound modules scale past the
  GIL.  All three expose the same tiny submit/poll/wait surface, so the
  engine's coordination loop is backend-agnostic.

In-process backends receive callables and must never see them raise: the
engine wraps module computation so failures come back as ordinary failed
results.  The process backend instead receives picklable
:class:`~repro.workflow.serialization.ProcessJob` payloads (its
``out_of_process`` flag tells the engine which contract applies) and
returns :class:`~repro.workflow.serialization.ProcessOutcome` records;
worker crashes and unpicklable results are converted to failed outcomes at
harvest, never raised into the scheduling loop.  Values above the job's
spill threshold cross the boundary as
:class:`~repro.workflow.serialization.SpilledValue` file references
rather than in-pipe pickles, so the futures queued here stay small no
matter how large the artifacts are.
"""

from __future__ import annotations

import heapq
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor)
from concurrent.futures import wait as futures_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.workflow.errors import ExecutionError
from repro.workflow.serialization import ProcessOutcome, execute_process_job
from repro.workflow.spec import Workflow

__all__ = [
    "ReadySetScheduler",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "BACKEND_KINDS",
    "make_backend",
]

#: A unit of schedulable work: returns the module's result object.
Job = Callable[[], Any]


class ReadySetScheduler:
    """Dependency-counting scheduler state over one workflow DAG.

    The lifecycle of every module id is ``pending -> ready -> issued ->
    resolved``.  A module is *ready* when all of its distinct upstream
    modules are resolved; :meth:`take_ready` hands out the current ready
    batch (sorted, for determinism) exactly once; :meth:`resolve` settles a
    module and promotes any dependents whose last dependency it was.
    """

    def __init__(self, workflow: Workflow) -> None:
        # the dependents table comes from the workflow's cached Kahn pass
        # (a cyclic workflow raises CycleError here)
        self._dependents: Dict[str, List[str]] = workflow.dependents()
        self._remaining: Dict[str, int] = dict.fromkeys(workflow.modules, 0)
        for dependents in self._dependents.values():
            for dependent in dependents:
                self._remaining[dependent] += 1
        # a min-heap of ready ids: pops come out sorted
        self._ready: List[str] = [
            m for m, count in self._remaining.items() if count == 0]
        heapq.heapify(self._ready)
        self._issued: set = set()
        self._resolved: set = set()

    # -- state transitions ------------------------------------------------
    def take_ready(self) -> List[str]:
        """Pop and return every currently-ready module id (sorted)."""
        batch, self._ready = sorted(self._ready), []
        self._issued.update(batch)
        return batch

    def pop_ready(self) -> str:
        """Pop and return the smallest ready module id (IndexError if none).

        Popping one module at a time and resolving it before the next pop
        reproduces exactly the canonical Kahn order of
        :meth:`Workflow.topological_order` — the serial engine uses this so
        execution timestamps follow the recorded ``run.order``.
        """
        module_id = heapq.heappop(self._ready)
        self._issued.add(module_id)
        return module_id

    def resolve(self, module_id: str) -> List[str]:
        """Settle ``module_id``; return dependents that just became ready.

        Resolution is status-agnostic: failed and skipped modules resolve
        exactly like successful ones, which is what lets the engine decide
        skip propagation from the dependency graph instead of from a
        precomputed global order.
        """
        if module_id in self._resolved:
            raise ExecutionError(
                f"module resolved twice in scheduler: {module_id}")
        self._resolved.add(module_id)
        self._issued.discard(module_id)
        promoted: List[str] = []
        for dependent in self._dependents[module_id]:
            self._remaining[dependent] -= 1
            if self._remaining[dependent] == 0:
                heapq.heappush(self._ready, dependent)
                promoted.append(dependent)
        return promoted

    # -- queries ----------------------------------------------------------
    def has_ready(self) -> bool:
        """True when at least one module is waiting in the ready set."""
        return bool(self._ready)

    def outstanding(self) -> int:
        """Modules issued (taken from the ready set) but not yet resolved."""
        return len(self._issued)

    def finished(self) -> bool:
        """True when every module has resolved."""
        return len(self._resolved) == len(self._remaining)

    def unresolved(self) -> List[str]:
        """Module ids not yet resolved (sorted) — for stall diagnostics."""
        return sorted(set(self._remaining) - self._resolved)


class ExecutionBackend:
    """Where ready jobs physically run.

    The engine submits ``(module_id, job)`` pairs and harvests
    ``(module_id, result)`` completions via :meth:`poll` (non-blocking) and
    :meth:`wait` (blocks until at least one job completes).  Implementations
    must preserve nothing about ordering — the engine's scheduler state is
    the single source of truth.

    ``out_of_process`` declares the submission contract: False (the
    default) means jobs are in-process callables returning results
    directly; True means jobs are picklable payloads and completions are
    raw outcomes the engine converts back into results.
    """

    #: True when jobs cross a process boundary (see class docstring).
    out_of_process: bool = False

    def submit(self, module_id: str, job: Job) -> None:
        """Accept one job for execution."""
        raise NotImplementedError

    def poll(self) -> List[Tuple[str, Any]]:
        """Completions available right now (possibly empty); non-blocking."""
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None
             ) -> List[Tuple[str, Any]]:
        """Block until a completion is available (or ``timeout`` seconds
        elapse), return all completions harvested — possibly empty after
        a timeout.  The engine passes a timeout when module deadlines
        are pending so hung jobs cannot stall the coordination loop."""
        raise NotImplementedError

    def outstanding(self) -> int:
        """Jobs submitted but not yet harvested."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release any resources (idempotent)."""


class SerialBackend(ExecutionBackend):
    """Runs each job synchronously at submission time.

    This is the deterministic default: combined with the sorted ready
    batches of :class:`ReadySetScheduler` it reproduces the exact execution
    and listener-event order of the historical sequential engine.
    """

    def __init__(self) -> None:
        self._completed: List[Tuple[str, Any]] = []

    def submit(self, module_id: str, job: Job) -> None:
        self._completed.append((module_id, job()))

    def poll(self) -> List[Tuple[str, Any]]:
        completed, self._completed = self._completed, []
        return completed

    def wait(self, timeout: Optional[float] = None
             ) -> List[Tuple[str, Any]]:
        if not self._completed:
            raise ExecutionError(
                "serial backend has no outstanding work to wait for")
        return self.poll()

    def outstanding(self) -> int:
        return len(self._completed)


class ThreadPoolBackend(ExecutionBackend):
    """Fans jobs out to a thread pool so independent branches overlap.

    Suited to workloads dominated by blocking work (I/O, ``time.sleep``,
    extension code releasing the GIL); pure-Python CPU loops serialize on
    the GIL and see no speedup.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-worker")
        self._futures: Dict[Future, str] = {}

    def submit(self, module_id: str, job: Job) -> None:
        self._futures[self._pool.submit(job)] = module_id

    def _harvest(self, futures: List[Future]) -> List[Tuple[str, Any]]:
        return [(self._futures.pop(future), future.result())
                for future in futures]

    def poll(self) -> List[Tuple[str, Any]]:
        return self._harvest([f for f in list(self._futures) if f.done()])

    def wait(self, timeout: Optional[float] = None
             ) -> List[Tuple[str, Any]]:
        if not self._futures:
            raise ExecutionError(
                "thread backend has no outstanding work to wait for")
        done, _ = futures_wait(list(self._futures), timeout=timeout,
                               return_when=FIRST_COMPLETED)
        return self._harvest(list(done))

    def outstanding(self) -> int:
        return len(self._futures)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessPoolBackend(ExecutionBackend):
    """Ships jobs to worker processes so CPU-bound modules bypass the GIL.

    Jobs are :class:`~repro.workflow.serialization.ProcessJob` payloads
    (the engine builds them; compute closures never cross the boundary)
    and completions are
    :class:`~repro.workflow.serialization.ProcessOutcome` records.  A
    worker that dies, or a result that cannot be pickled back, surfaces as
    a failed outcome at harvest — the coordination loop never sees an
    exception.  Suited to pure-Python CPU loops (hashing, numerics);
    values must be picklable, and module behaviour must be reachable
    through an importable registry provider.  Large values arrive and
    leave as spill-file references (see the module docstring), keeping
    the executor pipe and this backend's future map byte-light.
    """

    out_of_process = True

    def __init__(self, workers: int, max_restarts: int = 3) -> None:
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: Worker-crash pool recreations allowed before failing fast.
        #: Deadline-kill restarts (:meth:`restart`) are policy-driven
        #: and do not charge this budget.
        self.max_restarts = max_restarts
        self.restarts = 0
        self._dead = False
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=workers)
        self._futures: Dict[Future, str] = {}
        # outcomes synthesized without a future — submissions refused by
        # a dead pool, or in-flight jobs lost to a worker crash / forced
        # restart; harvested exactly like the rest
        self._stillborn: List[Tuple[str, Any]] = []

    # -- supervision ------------------------------------------------------

    def _dispose_pool(self) -> None:
        """Tear the current pool down without waiting on hung workers."""
        if self._pool is None:
            return
        processes = getattr(self._pool, "_processes", None)
        if isinstance(processes, dict):
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            self._pool.shutdown(wait=False)
        except Exception:
            pass
        self._pool = None

    def _abandon_in_flight(self) -> None:
        """Turn every in-flight job into a worker-lost stillborn outcome
        (the engine re-dispatches them against the fresh pool)."""
        for module_id in self._futures.values():
            self._stillborn.append((module_id, ProcessOutcome(
                status="failed", worker_lost=True,
                error="worker process died before the job reported back")))
        self._futures.clear()

    def _recreate(self, charge: bool = True) -> bool:
        """Replace the pool; False when the restart budget is spent."""
        if self._dead:
            return False
        if charge:
            if self.restarts >= self.max_restarts:
                self._dead = True
                self._dispose_pool()
                return False
            self.restarts += 1
        self._dispose_pool()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return True

    def restart(self) -> List[Tuple[str, Any]]:
        """Force-replace the pool (deadline-kill of hung workers).

        Returns worker-lost completions for every in-flight job so the
        engine can blame/retry them.  Does not charge the crash restart
        budget — killing past-deadline workers is policy, not failure.
        """
        self._abandon_in_flight()
        lost, self._stillborn = self._stillborn, []
        self._recreate(charge=False)
        return lost

    # -- submit / harvest -------------------------------------------------

    def submit(self, module_id: str, job: Any) -> None:
        """Accept one picklable :class:`ProcessJob` payload.

        A pool whose worker died refuses further submissions
        (``BrokenProcessPool``): the pool is recreated (bounded by
        ``max_restarts``) and the submission retried against the fresh
        pool; in-flight jobs on the broken pool surface as worker-lost
        outcomes.  Once the restart budget is spent the backend fails
        fast — every further submission becomes a terminal failed
        outcome, never a submission to a dead executor.
        """
        if self._dead or self._pool is None:
            self._stillborn.append((module_id, ProcessOutcome(
                status="failed",
                error="process pool broken and restart budget exhausted")))
            return
        try:
            future = self._pool.submit(execute_process_job, job)
        except BrokenExecutor:
            self._abandon_in_flight()
            if not self._recreate():
                self._stillborn.append((module_id, ProcessOutcome(
                    status="failed",
                    error="process pool broken and restart budget "
                          "exhausted")))
                return
            try:
                future = self._pool.submit(execute_process_job, job)
            except Exception as exc:
                self._stillborn.append((module_id, ProcessOutcome(
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}")))
                return
        except Exception as exc:  # unpicklable payload
            self._stillborn.append((module_id, ProcessOutcome(
                status="failed",
                error=f"{type(exc).__name__}: {exc}")))
            return
        self._futures[future] = module_id

    def _harvest(self, futures: List[Future]) -> List[Tuple[str, Any]]:
        completed, self._stillborn = self._stillborn, []
        broken = False
        for future in futures:
            module_id = self._futures.pop(future)
            try:
                outcome = future.result()
            except BrokenExecutor as exc:  # worker death
                broken = True
                outcome = ProcessOutcome(
                    status="failed", worker_lost=True,
                    error=f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # unpicklable result
                outcome = ProcessOutcome(
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}")
            completed.append((module_id, outcome))
        if broken:
            # every other in-flight job is doomed on a broken pool:
            # surface them as worker-lost now and recreate the pool so
            # re-dispatches land on live workers
            self._abandon_in_flight()
            completed.extend(self._stillborn)
            self._stillborn = []
            self._recreate()
        return completed

    def poll(self) -> List[Tuple[str, Any]]:
        return self._harvest([f for f in list(self._futures) if f.done()])

    def wait(self, timeout: Optional[float] = None
             ) -> List[Tuple[str, Any]]:
        if not self._futures and not self._stillborn:
            raise ExecutionError(
                "process backend has no outstanding work to wait for")
        if not self._futures:
            return self._harvest([])
        done, _ = futures_wait(list(self._futures), timeout=timeout,
                               return_when=FIRST_COMPLETED)
        return self._harvest(list(done))

    def outstanding(self) -> int:
        return len(self._futures) + len(self._stillborn)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: Backend kinds accepted by :func:`make_backend` and the ``backend=``
#: knob on Executor / ProvenanceManager / the CLI.
BACKEND_KINDS = ("serial", "thread", "process")


def make_backend(workers: Optional[int],
                 kind: Optional[str] = None) -> ExecutionBackend:
    """Build the execution backend for a worker count and kind.

    ``None``, ``0`` and ``1`` workers select the deterministic serial
    backend regardless of kind; anything larger selects a pool of that
    size — threads by default (best for blocking/GIL-releasing work) or
    processes with ``kind="process"`` (best for pure-Python CPU work).
    """
    if kind is not None and kind not in BACKEND_KINDS:
        raise ExecutionError(
            f"unknown execution backend {kind!r}; "
            f"expected one of {list(BACKEND_KINDS)}")
    if kind == "serial" or workers is None or workers <= 1:
        return SerialBackend()
    if kind == "process":
        return ProcessPoolBackend(workers)
    return ThreadPoolBackend(workers)
