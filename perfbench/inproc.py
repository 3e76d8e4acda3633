"""The in-process workloads: ``large_dag`` and ``sweep_small``.

Both drive ``ProvenanceManager.run`` in a closed loop with one caller and
the serial executor, reload and query every stored run as it completes,
and check it: every module executed exactly once and the reloaded
provenance fingerprint equal to the captured run's.  ``sweep_small``'s
``MemoryStore`` hands back the captured object itself, so its runs are
also checked against what the workflow predicts (see :class:`SweepCheck`).

* ``large_dag`` alternates a 2000-module random layered DAG and a
  2000-stage pass-through chain (module compute ~0) into a file-backed
  ``RelationalStore``.  Per-module framework cost dominates, so anything
  superlinear in module count shows.
* ``sweep_small`` reruns a 40-module DAG, each run setting one source to a
  value never used before, into the default ``MemoryStore``.  Per-run
  fixed costs and cache hits dominate.  The window is cut into rounds of
  a fixed number of runs, each on a fresh set-up, so the store and the
  heap do not grow with the number of runs a faster engine completes.

A traced pass wraps the store, the result cache, the capture listener and
``Executor.execute`` in span-recording delegates, and calls
``validate_workflow``, ``Workflow.topological_order``,
``ProspectiveProvenance.from_workflow`` and ``run_from_result`` directly
on the same inputs, so each layer's cost is read from its own spans.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.capture import run_from_result
from repro.core.manager import ProvenanceManager
from repro.core.prospective import ProspectiveProvenance
from repro.query import provql
from repro.storage.memory import MemoryStore
from repro.storage.relational import RelationalStore
from repro.workflow.spec import Connection, Module, Workflow
from repro.workflow.validation import validate_workflow
from repro.workloads.generators import chain_workflow, random_workflow

from perfbench.probes import (CountingWorkflow, TimedStore, TracedCache,
                              TracedListener, fingerprint, peak_rss_mb,
                              percentile, us_per)
from perfbench.tracing import Tracer

__all__ = ["LargeDagSizes", "SweepSizes", "large_dag", "sweep_small"]


#: Modules per layer of the ``large_dag`` random DAG.
LARGE_WIDTH = 8
#: Modules per layer and ``SpinCompute`` work of the ``sweep_small`` DAG.
SWEEP_WIDTH = 4
SWEEP_WORK = 200
#: ``sweep_small`` compares every this-many-th run with an uncached run of
#: the same parameters.
SWEEP_REFERENCE_EVERY = 16
#: Peak RSS is read once this many runs have been read back (or at the end
#: of a window that read fewer).  It grows with the runs done even when
#: the stores are bounded, so read at the end of the window a faster
#: engine, doing more runs in the same time, would show a higher peak.
LARGE_RSS_RUNS = 10
SWEEP_RSS_RUNS = 2000


@dataclass(frozen=True)
class LargeDagSizes:
    modules: int = 2000        #: modules in the DAG, stages in the chain
    probe_modules: int = 500   #: the n of the n/4n scaling probe
    #: set-ups timed before and after the window; ``setup_s`` is their
    #: median, so a host that is slower at one end of the run moves it less
    setups: int = 3
    setups_after: int = 2


@dataclass(frozen=True)
class SweepSizes:
    modules: int = 40
    #: runs per round.  Each round has its own set-up (manager, store and
    #: cache-filling first run), timed into ``setup_s``; a round's store
    #: holds its first run and at most this many more.
    round_runs: int = 200
    #: set-ups timed before the window, beside one per round
    setups: int = 5


#: The random DAGs' shapes are the same for every seed; the seed picks the
#: source values.  A random shape sets how many connections the engine
#: walks and how many modules share a cache key (in ``sweep_small`` also
#: how much of each run recomputes), so a shape drawn per seed would make
#: the seed, not the system, set the run's cost: over seeds 1-5 the
#: 2000-module DAG had 2670-2711 connections and 290-335 cache hits.
SHAPE_SEED = 0


def _seed_sources(workflow: Workflow, seed: int) -> None:
    """Give the workflow's ``NumberConstant`` sources distinct values
    drawn from ``seed``.  Equal source values would make their downstream
    modules share cache keys, and so change the run's cost."""
    sources = [module for module in workflow.modules.values()
               if module.type_name == "NumberConstant"]
    for module, value in zip(sources, random.Random(seed).sample(
            range(1, 1001), len(sources))):
        module.parameters["value"] = float(value)


@dataclass
class Pass:
    """What one measured (or traced) loop produced."""

    #: module executions in the runs completed and read back
    executions: int
    latencies: List[float]
    attempted: int
    failed: int
    #: ``save_run`` durations and executions saved, from the store
    save_seconds: List[float]
    executions_saved: int
    read_seconds: List[float]
    #: runs issued together; latencies are reported per batch
    batch: int
    #: (seconds, runs, executions) of each slice of the window
    slices: List[Tuple[float, int, int]]
    #: peak RSS of this process, in MiB, when ``_drive`` read it
    rss_mb: float

    @classmethod
    def merged(cls, passes: List["Pass"]) -> "Pass":
        """One pass holding the samples of ``passes`` (of one batch
        size)."""
        return cls(sum(p.executions for p in passes),
                   [x for p in passes for x in p.latencies],
                   sum(p.attempted for p in passes),
                   sum(p.failed for p in passes),
                   [x for p in passes for x in p.save_seconds],
                   sum(p.executions_saved for p in passes),
                   [x for p in passes for x in p.read_seconds],
                   passes[0].batch,
                   [x for p in passes for x in p.slices],
                   passes[-1].rss_mb)


def relabel(workflow: Workflow, prefix: str) -> Workflow:
    """``workflow`` with ids derived from ``prefix`` and insertion order.

    Module ids decide the engine's topological tie-breaks, so fixed ids
    make the same seed give the same execution order on every run.
    """
    out = Workflow(workflow.name, workflow_id=f"wf-{prefix}")
    mapping = {}
    for index, module in enumerate(workflow.modules.values()):
        mapping[module.id] = f"mod-{prefix}-{index:05d}"
        out.modules[mapping[module.id]] = Module(
            module.type_name, id=mapping[module.id], name=module.name,
            parameters=dict(module.parameters))
    for index, connection in enumerate(workflow.connections.values()):
        out.connections[f"conn-{prefix}-{index:05d}"] = Connection(
            mapping[connection.source_module], connection.source_port,
            mapping[connection.target_module], connection.target_port,
            id=f"conn-{prefix}-{index:05d}")
    return out


def _large_workflows(seed: int, modules: int) -> Dict[str, Workflow]:
    dag = relabel(random_workflow(modules, width=LARGE_WIDTH,
                                  seed=SHAPE_SEED, work=0,
                                  name=f"dag-{modules}"), f"dag{modules}")
    _seed_sources(dag, seed)
    chain = relabel(chain_workflow(modules, work=0,
                                   name=f"chain-{modules}"), f"chain{modules}")
    source = next(iter(chain.modules.values()))
    source.parameters["value"] = float(seed % 1000 + 1)
    return {"dag": dag, "chain": chain}


def _timed_setups(count: int, build: Callable[[int], Any],
                  first: int = 0) -> Tuple[List[float], Any]:
    """Call ``build(first)``, ``build(first + 1)``, ... ``count`` times;
    return the time each call took and the last call's result."""
    times = []
    built = None
    for index in range(first, first + count):
        started = time.perf_counter()
        built = build(index)
        times.append(time.perf_counter() - started)
    return times, built


def _instrument(manager: ProvenanceManager, tracer: Tracer) -> None:
    """Swap span-recording delegates into ``manager``'s engine."""
    cache = TracedCache(manager.cache, tracer)
    manager.cache = cache
    manager.executor.cache = cache
    manager.executor.listeners.clear()
    manager.executor.add_listener(TracedListener(manager.capture, tracer))
    manager.executor.execute = tracer.wrap("engine.execute",
                                           manager.executor.execute)


#: One planned run: (shape, workflow, parameter overrides).
Step = Tuple[str, Workflow, Any]


def _drive(manager: ProvenanceManager, store: TimedStore, seconds: float,
           plan: Callable[[int], Step], batch: int, slice_seconds: float,
           check: Callable[[Step, Any, Any, Any], bool],
           tracer: Optional[Tracer] = None,
           runs: Optional[int] = None,
           rss_runs: Optional[int] = None) -> Pass:
    """Closed loop: run ``plan(i)`` until ``seconds`` pass (or ``runs``
    runs are done), in whole batches of ``batch`` runs, reading each run
    back as it completes.

    A read is what a user does to inspect a result: ``load_run`` plus one
    ProvQL query (``COUNT EXECUTIONS``) on the reloaded run.  Reading
    right away also keeps the read off objects the rest of the window
    has pushed out of the CPU caches, which made reads taken after the
    window swing by a third from one process to the next.

    Each read is then checked with ``check(step, run, stored, count)`` and
    dropped; a wrong answer counts as failed.  Checking is kept out of the
    slice times.

    The window is cut into slices of whole batches lasting at least
    ``slice_seconds``; throughput is reported as the median slice rate, so
    one stalled slice does not move it.

    Peak RSS is read once ``rss_runs`` runs have been read back, or at the
    end of the pass.
    """
    executions = 0
    rss_mb = None
    latencies: List[float] = []
    read_seconds: List[float] = []
    inner = store.inner
    slices: List[Tuple[float, int, int]] = []
    attempted = failed = 0
    registry = manager.registry
    started = slice_start = time.perf_counter()
    slice_runs = slice_executions = 0
    checking = 0.0
    index = 0
    while True:
        for _ in range(batch):
            step = plan(index)
            shape, workflow, overrides = step
            index += 1
            attempted += 1
            began = time.perf_counter()
            try:
                if tracer is None:
                    run = manager.run(workflow,
                                      parameter_overrides=overrides)
                else:
                    with tracer.request(f"run-{index}"):
                        run = _traced_run(manager, workflow, overrides,
                                          shape, tracer, registry)
            except Exception:
                failed += 1
                continue
            latencies.append(time.perf_counter() - began)
            began = time.perf_counter()
            try:
                stored = inner.load_run(run.id)
                count = provql.execute("COUNT EXECUTIONS", stored)
            except Exception:
                failed += 1
                continue
            read_seconds.append(time.perf_counter() - began)
            if len(read_seconds) == rss_runs:
                rss_mb = peak_rss_mb()
            executions += len(run.executions)
            slice_runs += 1
            slice_executions += len(run.executions)
            began = time.perf_counter()
            failed += not check(step, run, stored, count)
            del stored
            checking += time.perf_counter() - began
        now = time.perf_counter()
        if now - slice_start - checking >= slice_seconds:
            slices.append((now - slice_start - checking, slice_runs,
                           slice_executions))
            slice_start, slice_runs, slice_executions = now, 0, 0
            checking = 0.0
        if now - started >= seconds or (runs is not None
                                        and index >= runs):
            break
    if not slices:
        slices.append((now - slice_start - checking, slice_runs,
                       slice_executions))
    return Pass(executions, latencies, attempted, failed,
                list(store.save_seconds), store.executions_saved,
                read_seconds, batch, slices,
                peak_rss_mb() if rss_mb is None else rss_mb)


def _traced_run(manager: ProvenanceManager, workflow: Workflow,
                overrides: Any, shape: str, tracer: Tracer,
                registry: Any) -> Any:
    with tracer.span("validation.validate_workflow"):
        validate_workflow(workflow, registry)
    with tracer.span("spec.topological_order"):
        workflow.topological_order()
    with tracer.span("prospective.from_workflow"):
        ProspectiveProvenance.from_workflow(workflow, registry)
    with tracer.span("manager.run"):
        run = manager.run(workflow, parameter_overrides=overrides)
    with tracer.span(f"capture.run_from_result.{shape}"):
        run_from_result(manager.last_engine_result, registry=registry,
                        keep_values=manager.capture.keep_values)
    tracer.counters["modules"] += len(workflow.modules)
    tracer.counters[f"modules.{shape}"] += len(workflow.modules)
    tracer.counters["runs"] += 1
    return run


def same_provenance(step: Step, run: Any, stored: Any, count: Any) -> bool:
    """Whether a read is right: the run succeeded, every module of the
    workflow executed exactly once, the ProvQL count matches, and the
    reloaded provenance fingerprint equals the captured run's."""
    modules = sorted(e.module_id for e in stored.executions)
    return (run.status == "ok" and modules == sorted(step[1].modules)
            and count == len(modules)
            and fingerprint(stored) == fingerprint(run))


def _outputs(run: Any) -> Dict[str, tuple]:
    """Output (port, value hash) pairs per module of ``run``."""
    value = {a.id: a.value_hash for a in run.artifacts.values()}
    return {e.module_id: tuple(sorted((b.port, value[b.artifact_id])
                                      for b in e.outputs))
            for e in run.executions}


class _Discard:
    """A store that keeps nothing, for the uncached reference runs."""

    def save_run(self, run: Any) -> None:
        pass

    def save_workflow(self, prospective: Any) -> None:
        pass


class SweepCheck:
    """Checks each ``sweep_small`` run against what the workflow predicts.

    Each run sets one source to a value never used before and leaves the
    others at the values of the set-up's first run.  So every module
    outside that source's downstream cone (read from the workflow's
    connections) must be ``cached`` with the outputs it had in the first
    run, and a module inside the cone must recompute (``ok``) unless an
    earlier module of the same run had the same type, parameters and
    inputs, which makes it a hit on that module's result.  Every
    ``SWEEP_REFERENCE_EVERY``-th run is also compared, output by output,
    with an uncached run of the same parameters.
    """

    def __init__(self, workflow: Workflow, first: Any) -> None:
        downstream: Dict[str, List[str]] = {m: [] for m in workflow.modules}
        for connection in workflow.connections.values():
            downstream[connection.source_module].append(
                connection.target_module)
        self.cones: Dict[str, set] = {}
        for source in workflow.modules:
            cone, frontier = {source}, [source]
            while frontier:
                for target in downstream[frontier.pop()]:
                    if target not in cone:
                        cone.add(target)
                        frontier.append(target)
            self.cones[source] = cone
        self.first = _outputs(first)
        self.reference = ProvenanceManager(store=_Discard(), use_cache=False,
                                           keep_values=False)
        self.checked = 0

    def __call__(self, step: Step, run: Any, stored: Any,
                 count: Any) -> bool:
        _, workflow, overrides = step
        (source,) = overrides
        cone = self.cones[source]
        outputs = _outputs(stored)
        right = (same_provenance(step, run, stored, count)
                 and _statuses(stored, workflow, overrides, cone)
                 and all(outputs[module] == self.first.get(module)
                         for module in outputs if module not in cone))
        self.checked += 1
        if self.checked % SWEEP_REFERENCE_EVERY == 0:
            reference = self.reference.run(workflow,
                                           parameter_overrides=overrides)
            right = right and _outputs(reference) == outputs
        return right


def _statuses(run: Any, workflow: Workflow, overrides: Any,
              cone: set) -> bool:
    """Whether each execution of ``run`` is ``ok`` or ``cached`` as
    :class:`SweepCheck` predicts."""
    value = {a.id: a.value_hash for a in run.artifacts.values()}
    seen = set()
    for execution in run.executions:
        module = workflow.modules[execution.module_id]
        parameters = {**module.parameters,
                      **overrides.get(execution.module_id, {})}
        key = (module.type_name, repr(sorted(parameters.items())),
               tuple(sorted((b.port, value[b.artifact_id])
                            for b in execution.inputs)))
        hit = execution.module_id not in cone or key in seen
        if execution.status != ("cached" if hit else "ok"):
            return False
        seen.add(key)
    return True


def _per_batch(values: List[float], batch: int) -> List[float]:
    """Sums of consecutive ``batch`` values: one figure per batch.

    ``large_dag`` issues a DAG run and a chain run together; their costs
    differ by half, so per-run percentiles would fall between the two
    groups and swing with either.
    """
    return [sum(values[start:start + batch])
            for start in range(0, len(values), batch)]


def _end_to_end(result: Pass, setup_s: float) -> Dict[str, Any]:
    batch = result.batch
    latencies = _per_batch(result.latencies, batch)
    reads = _per_batch(result.read_seconds, batch)
    writes = _per_batch(result.save_seconds, batch)
    return {
        "setup_s": (setup_s, "s"),
        "modules_per_s": (statistics.median(
            executions / seconds for seconds, _, executions
            in result.slices), "1/s"),
        "runs_per_s": (statistics.median(
            runs / seconds for seconds, runs, _ in result.slices), "1/s"),
        "run_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "run_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "read_p50_ms": (percentile(reads, 50) * 1e3, "ms"),
        "read_p99_ms": (percentile(reads, 99) * 1e3, "ms"),
        "write_p50_ms": (percentile(writes, 50) * 1e3, "ms"),
        "write_p99_ms": (percentile(writes, 99) * 1e3, "ms"),
        "peak_rss_mb": (result.rss_mb, "MiB"),
    }


def _counters(manager: ProvenanceManager) -> Tuple[int, int, int, int]:
    """Cache hits, cache lookups, cache evictions and capture events so
    far."""
    stats = manager.cache.stats
    return (stats.hits, stats.lookups, stats.evictions,
            manager.capture.stats.events)


def _layers(result: Pass, tracer: Tracer, before: Tuple[int, int, int, int],
            after: Tuple[int, int, int, int], store_layer: str
            ) -> Dict[str, float]:
    """Per-layer numbers of one traced pass, given :func:`_counters`
    before and after it."""
    hits, lookups, evictions, events = (
        end - start for start, end in zip(before, after))
    modules = tracer.counters["modules"]
    runs = tracer.counters["runs"]
    executions = result.executions_saved
    listener = (tracer.get("capture.on_module_start").total
                + tracer.get("capture.on_module_finish").total)
    numbers = {
        "validation.us_per_module": us_per(
            tracer.get("validation.validate_workflow").total, modules),
        "spec.topo_us_per_module": us_per(
            tracer.get("spec.topological_order").total, modules),
        "engine.self_us_per_module": us_per(
            tracer.get("engine.execute").self_time, modules),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.get_us": tracer.get("cache.get").mean_us(),
        "cache.put_us": tracer.get("cache.put").mean_us(),
        "cache.evictions_per_run": evictions / runs if runs else 0.0,
        "prospective.snapshot_us_per_module": us_per(
            tracer.get("prospective.from_workflow").total, modules),
        "capture.listener_us_per_module": us_per(listener, modules),
        "capture.events_per_module": events / modules if modules else 0.0,
        f"{store_layer}.save_us_per_execution": us_per(
            tracer.get(f"{store_layer}.save_run").total, executions),
    }
    for shape in ("dag", "chain"):
        if tracer.counters[f"modules.{shape}"]:
            name = ("capture.convert_us_per_module" if shape == "dag"
                    else "capture.convert_chain_us_per_module")
            numbers[name] = us_per(
                tracer.get(f"capture.run_from_result.{shape}").total,
                tracer.counters[f"modules.{shape}"])
    return numbers


# ---------------------------------------------------------------------------
# large_dag
# ---------------------------------------------------------------------------

def _large_manager(workdir: Path, label: str,
                   tracer: Optional[Tracer] = None,
                   wrap_store: Optional[Callable] = None
                   ) -> Tuple[ProvenanceManager, TimedStore, Path]:
    path = workdir / f"{label}.db"
    inner = RelationalStore(str(path))
    store = TimedStore(wrap_store(inner) if wrap_store else inner,
                       "relational", tracer)
    return ProvenanceManager(store=store, keep_values=False), store, path


def large_dag(seed: int, seconds: float, workdir: Path, *,
              traced: bool = False, sizes: LargeDagSizes = LargeDagSizes(),
              wrap_store: Optional[Callable] = None) -> Dict[str, Any]:
    """Run the ``large_dag`` workload; see the module docstring."""
    workdir.mkdir(parents=True, exist_ok=True)
    opened: List[Any] = []

    def build(index: int):
        workflows = _large_workflows(seed, sizes.modules)
        manager, store, path = _large_manager(workdir, f"large-{index}",
                                              wrap_store=wrap_store)
        opened.append(store)
        return workflows, manager, store, path

    setup_times, (workflows, manager, store, path) = _timed_setups(
        sizes.setups, build)
    for earlier in opened[:-1]:
        earlier.close()
    order = [("dag", workflows["dag"]), ("chain", workflows["chain"])]

    def plan(index: int):
        shape, workflow = order[index % 2]
        return shape, workflow, None

    tracer = Tracer() if traced else None
    if tracer is not None:
        store.tracer = tracer
        _instrument(manager, tracer)
    before = _counters(manager)
    result = _drive(manager, store, seconds, plan, batch=2,
                    slice_seconds=0.0, check=same_provenance, tracer=tracer,
                    rss_runs=LARGE_RSS_RUNS)
    setup_times += _timed_setups(sizes.setups_after, build,
                                 first=sizes.setups)[0]
    for later in opened[sizes.setups:]:
        later.close()
    out = {"attempted": result.attempted,
           "failed": result.failed,
           "end_to_end": _end_to_end(result,
                                     statistics.median(setup_times)),
           "us_per_module": us_per(sum(result.latencies),
                                   result.executions)}
    if tracer is not None:
        layers = _layers(result, tracer, before, _counters(manager),
                         "relational")
        layers["relational.save_workflow_us"] = tracer.get(
            "relational.save_workflow").mean_us()
        stored_bytes = sum(part.stat().st_size
                           for part in workdir.glob(f"{path.name}*"))
        layers["relational.bytes_per_execution"] = (
            stored_bytes / store.executions_saved
            if store.executions_saved else 0.0)
        probe_tracers, probe_layers = _scaling_probe(seed, workdir, sizes)
        layers.update(probe_layers)
        out["layers"] = layers
        out["tracers"] = [tracer] + probe_tracers
    store.close()
    return out


def _scaling_probe(seed: int, workdir: Path, sizes: LargeDagSizes
                   ) -> Tuple[List[Tracer], Dict[str, float]]:
    """Run the DAG and the chain once each, cold, at n and 4n modules.

    Yields every ``*_scaling_4n`` ratio (per-unit cost at 4n over the cost
    at n) and the adjacency-call count of one execute at 4n.
    """
    per_unit: Dict[int, Dict[str, float]] = {}
    tracers = []
    adjacency = 0
    for size in (sizes.probe_modules, sizes.modules):
        tracer = Tracer()
        tracers.append(tracer)
        manager, store, _ = _large_manager(workdir, f"probe-{size}", tracer)
        _instrument(manager, tracer)
        workflows = {shape: CountingWorkflow.of(workflow) for shape, workflow
                     in _large_workflows(seed, size).items()}
        execute = manager.executor.execute
        calls = [0]

        def counted_execute(workflow, **kwargs):
            # only the engine's own calls (validation, scheduling,
            # dispatch, capture), not the benchmark's direct calls
            before = workflow.adjacency_calls
            try:
                return execute(workflow, **kwargs)
            finally:
                calls[0] += workflow.adjacency_calls - before

        manager.executor.execute = counted_execute
        with tracer.request(f"probe-{size}"):
            for shape, workflow in workflows.items():
                _traced_run(manager, workflow, None, shape, tracer,
                            manager.registry)
        store.close()
        adjacency = calls[0]
        modules = tracer.counters["modules"]
        per_unit[size] = {
            "validation": us_per(
                tracer.get("validation.validate_workflow").total, modules),
            "spec.topo": us_per(
                tracer.get("spec.topological_order").total, modules),
            "engine": us_per(tracer.get("engine.execute").self_time,
                             modules),
            "capture.convert": us_per(
                tracer.get("capture.run_from_result.chain").total,
                tracer.counters["modules.chain"]),
            "relational.save": us_per(
                tracer.get("relational.save_run").total,
                store.executions_saved),
        }
    small, large = per_unit[sizes.probe_modules], per_unit[sizes.modules]
    ratio = {key: large[key] / small[key] if small[key] else 0.0
             for key in small}
    return tracers, {
        "validation.scaling_4n": ratio["validation"],
        "spec.topo_scaling_4n": ratio["spec.topo"],
        "engine.scaling_4n": ratio["engine"],
        "capture.convert_scaling_4n": ratio["capture.convert"],
        "relational.save_scaling_4n": ratio["relational.save"],
        "spec.adjacency_calls_per_module": adjacency / sum(
            len(w.modules) for w in workflows.values()),
    }


# ---------------------------------------------------------------------------
# sweep_small
# ---------------------------------------------------------------------------

def sweep_small(seed: int, seconds: float, workdir: Path, *,
                traced: bool = False, sizes: SweepSizes = SweepSizes(),
                wrap_store: Optional[Callable] = None) -> Dict[str, Any]:
    """Run the ``sweep_small`` workload; see the module docstring."""
    workdir.mkdir(parents=True, exist_ok=True)

    def build(index: int):
        workflow = relabel(random_workflow(
            sizes.modules, width=SWEEP_WIDTH, seed=SHAPE_SEED,
            work=SWEEP_WORK, name=f"sweep-{sizes.modules}"), "sweep")
        _seed_sources(workflow, seed)
        inner = MemoryStore()
        store = TimedStore(wrap_store(inner) if wrap_store else inner,
                           "memory")
        manager = ProvenanceManager(store=store)
        # fill the cache: the window measures the sweep, not a cold start
        first = manager.run(workflow)
        store.save_seconds.clear()
        store.executions_saved = 0
        return workflow, manager, store, first

    setup_times, (workflow, manager, store, first) = _timed_setups(
        sizes.setups, build)
    check = SweepCheck(workflow, first)
    sources = sorted(module.id for module in workflow.modules.values()
                     if module.type_name == "NumberConstant")

    def plan(index: int):
        # a value no earlier run used, 1e9 apart from the others so that
        # no sum of it with the (far smaller) values derived from the
        # other sources meets another run's value: the source's
        # downstream cone recomputes, every other module is a cache hit
        return "dag", workflow, {sources[index % len(sources)]: {
            "value": 1e9 * (index + 1) + seed % 1000 + 0.5}}

    tracer = Tracer() if traced else None
    passes: List[Pass] = []
    counts = (0, 0, 0, 0)
    rss_mb = None
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            store.tracer = tracer
            _instrument(manager, tracer)
        before = _counters(manager)
        offset = sizes.round_runs * len(passes)
        passes.append(_drive(
            manager, store, deadline - time.perf_counter(),
            lambda index: plan(offset + index), batch=1, slice_seconds=0.5,
            check=check, tracer=tracer, runs=sizes.round_runs))
        counts = tuple(total + end - start for total, start, end
                       in zip(counts, before, _counters(manager)))
        if rss_mb is None and offset + sizes.round_runs >= SWEEP_RSS_RUNS:
            rss_mb = passes[-1].rss_mb
        if time.perf_counter() >= deadline:
            break
        times, (_, manager, store, _) = _timed_setups(1, build)
        setup_times += times
    result = Pass.merged(passes)
    if rss_mb is not None:
        result.rss_mb = rss_mb
    out = {"attempted": result.attempted,
           "failed": result.failed,
           "end_to_end": _end_to_end(result,
                                     statistics.median(setup_times)),
           "us_per_module": us_per(sum(result.latencies),
                                   result.executions)}
    if tracer is not None:
        out["layers"] = _layers(result, tracer, (0, 0, 0, 0), counts,
                                "memory")
        out["tracers"] = [tracer]
    return out
