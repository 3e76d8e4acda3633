"""E1 — provenance capture overhead vs. workflow size and module cost.

Regenerates: the §2.2 claim that engine-level instrumentation is cheap.
Shape: overhead percentage falls as per-module compute grows (capture cost
is per-event, compute cost is per-work-unit).

The high-rate section measures the batched capture pipeline at 10k
modules/run: batched capture must stay within a fixed overhead budget of
the uninstrumented engine on the hot path, and on a journal-heavy
firehose (listener events driven directly, no engine in the way) the
producer-side cost of batched capture must beat synchronous capture by
>= 3x while materializing byte-identical provenance.

When the ``BENCH_JSON`` environment variable names a file, the measured
numbers are dumped there so CI can archive a ``BENCH_*.json`` trajectory
across builds.
"""

import json
import os
import time

import pytest

from benchmarks.conftest import report_row
from repro.core import ProvenanceCapture, run_from_result
from repro.workflow import Executor
from repro.workflow.engine import ModuleResult, RunResult, ValueRecord
from repro.workflow.spec import Module, Workflow
from repro.workloads import chain_workflow, random_workflow

#: High-rate workload size (the ISSUE's 10k-modules/run scenario).
HIGH_RATE_MODULES = 10_000
#: Hot-path overhead budget for batched capture vs. no capture at all.
OVERHEAD_BUDGET_PCT = 15.0
#: Minimum producer-side speedup of batched over synchronous capture on
#: the journal-heavy firehose.
MIN_FIREHOSE_SPEEDUP = 3.0

_results = {}


def _record(**fields) -> None:
    """Accumulate measurements; mirror them to $BENCH_JSON when set."""
    _results.update(fields)
    path = os.environ.get("BENCH_JSON")
    if path:
        payload = {"experiment": "E1-capture", "host_cpus": os.cpu_count(),
                   "modules": HIGH_RATE_MODULES, **_results}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


@pytest.mark.parametrize("length", [10, 40])
def test_chain_no_capture(benchmark, registry, length):
    workflow = chain_workflow(length, work=200)
    executor = Executor(registry)
    benchmark(lambda: executor.execute(workflow))
    report_row("E1", variant="no-capture", modules=length + 1)


@pytest.mark.parametrize("length", [10, 40])
def test_chain_with_capture(benchmark, registry, length):
    workflow = chain_workflow(length, work=200)
    capture = ProvenanceCapture(registry=registry, keep_values=False)
    executor = Executor(registry, listeners=[capture])
    benchmark(lambda: executor.execute(workflow))
    report_row("E1", variant="with-capture", modules=length + 1)


@pytest.mark.parametrize("work", [0, 500, 5000])
def test_overhead_shrinks_with_module_cost(registry, work):
    workflow = random_workflow(modules=20, seed=1, work=work)
    plain = Executor(registry)
    capture = ProvenanceCapture(registry=registry, keep_values=False)
    captured = Executor(registry, listeners=[capture])

    def timed(executor, repeats=3):
        start = time.perf_counter()
        for _ in range(repeats):
            executor.execute(workflow)
        return (time.perf_counter() - start) / repeats

    baseline = timed(plain)
    instrumented = timed(captured)
    overhead = (instrumented - baseline) / baseline * 100.0
    report_row("E1", work_units=work,
               baseline_ms=f"{baseline * 1000:.2f}",
               capture_ms=f"{instrumented * 1000:.2f}",
               overhead_pct=f"{overhead:.1f}")


def test_value_retention_cost(benchmark, registry):
    """keep_values=True must only add copying, not change asymptotics."""
    workflow = random_workflow(modules=20, seed=2, work=50)
    capture = ProvenanceCapture(registry=registry, keep_values=True)
    executor = Executor(registry, listeners=[capture])
    benchmark(lambda: executor.execute(workflow))
    report_row("E1", variant="keep-values",
               values=len(capture.last_run().values))


# -- high-rate batched capture -------------------------------------------

def _provenance_fingerprint(run):
    """Provenance identity independent of generated artifact/run ids."""
    artifact_hash = {a.id: a.value_hash for a in run.artifacts.values()}
    return (run.status, tuple(
        (e.module_id, e.status,
         tuple(sorted((b.port, artifact_hash[b.artifact_id])
                      for b in e.inputs)),
         tuple(sorted((b.port, artifact_hash[b.artifact_id])
                      for b in e.outputs)))
        for e in run.executions),
        tuple(sorted(a.value_hash for a in run.artifacts.values())))


def _normalized_dict(run):
    """``run.to_dict()`` with artifact ids renamed in first-seen order, so
    two materializations of the same engine result compare byte-identical
    (artifact ids are the only generated component).  The rename walks the
    structure (ids only ever appear as whole strings) rather than
    string-replacing the dumped JSON, which is quadratic at 10k modules."""
    rename = {}
    for execution in run.executions:
        for binding in (*execution.inputs, *execution.outputs):
            rename.setdefault(binding.artifact_id, f"art-{len(rename):06d}")
    for artifact_id in run.artifacts:
        rename.setdefault(artifact_id, f"art-{len(rename):06d}")

    def rewrite(node):
        if isinstance(node, str):
            return rename.get(node, node)
        if isinstance(node, list):
            return [rewrite(item) for item in node]
        if isinstance(node, dict):
            return {rename.get(key, key): rewrite(value)
                    for key, value in node.items()}
        return node

    return json.dumps(rewrite(run.to_dict()), sort_keys=True)


def test_batched_capture_overhead_10k(registry):
    """At 10k modules/run, batched capture stays within the hot-path
    overhead budget of an uninstrumented engine."""
    workflow = chain_workflow(HIGH_RATE_MODULES - 1, work=5)

    def timed_execute(listeners):
        executor = Executor(registry, listeners=listeners)
        start = time.perf_counter()
        result = executor.execute(workflow)
        return result, time.perf_counter() - start

    _, plain = timed_execute([])
    sync_capture = ProvenanceCapture(registry=registry, keep_values=False)
    _, sync = timed_execute([sync_capture])
    batched_capture = ProvenanceCapture(registry=registry,
                                        keep_values=False,
                                        queue_size=8192)
    with batched_capture:
        _, batched = timed_execute([batched_capture])
        batched_capture.flush()
    overhead_sync = (sync - plain) / plain * 100.0
    overhead_batched = (batched - plain) / plain * 100.0
    _record(plain_ms=round(plain * 1000, 1),
            sync_ms=round(sync * 1000, 1),
            batched_ms=round(batched * 1000, 1),
            sync_overhead_pct=round(overhead_sync, 1),
            batched_overhead_pct=round(overhead_batched, 1))
    report_row("E1", variant="10k-hot-path",
               plain_ms=f"{plain * 1000:.0f}",
               sync_ms=f"{sync * 1000:.0f}",
               batched_ms=f"{batched * 1000:.0f}",
               batched_overhead_pct=f"{overhead_batched:.1f}")
    assert _provenance_fingerprint(sync_capture.last_run()) == \
        _provenance_fingerprint(batched_capture.last_run())
    assert overhead_batched <= OVERHEAD_BUDGET_PCT, (
        f"batched capture overhead {overhead_batched:.1f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget")


def _firehose_result(modules):
    """A synthetic 10k-execution engine result with prebuilt hashes, so
    the firehose measures capture cost, not hashing or module compute."""
    workflow = Workflow("firehose")
    results = {}
    order = []
    previous_record = ValueRecord(value=0, value_hash="h-source")
    for index in range(modules):
        module = workflow.add_module(Module("Identity",
                                            name=f"m{index:05d}"))
        record = ValueRecord(value=index, value_hash=f"h{index:06d}")
        results[module.id] = ModuleResult(
            module_id=module.id, execution_id=f"exec-{index:06d}",
            status="ok", inputs={"value": previous_record},
            outputs={"value": record}, started=float(index),
            finished=float(index) + 0.5)
        order.append(module.id)
        previous_record = record
    return RunResult(run_id="run-firehose", workflow=workflow,
                     status="ok", results=results, order=order,
                     environment={}, started=0.0, finished=float(modules))


def test_firehose_batched_vs_sync(registry):
    """Journal-heavy firehose: producer-side batched capture must be
    >= 3x cheaper than synchronous capture, byte-identical provenance."""
    result = _firehose_result(HIGH_RATE_MODULES)
    modules = [result.workflow.modules[module_id]
               for module_id in result.order]

    def produce(capture):
        start = time.perf_counter()
        capture.on_run_start(result.run_id, result.workflow, {}, {})
        for module in modules:
            capture.on_module_start(result.run_id, module, {})
            capture.on_module_finish(result.run_id, module,
                                     result.results[module.id])
        capture.on_run_finish(result)
        return time.perf_counter() - start

    sync_capture = ProvenanceCapture(registry=registry, keep_values=False)
    sync = produce(sync_capture)
    batched_capture = ProvenanceCapture(registry=registry,
                                        keep_values=False,
                                        queue_size=4 * HIGH_RATE_MODULES)
    with batched_capture:
        batched = produce(batched_capture)
        batched_capture.flush()
    speedup = sync / batched
    _record(firehose_sync_ms=round(sync * 1000, 1),
            firehose_batched_ms=round(batched * 1000, 1),
            firehose_speedup=round(speedup, 1),
            firehose_events=batched_capture.stats.events)
    report_row("E1", variant="firehose",
               sync_ms=f"{sync * 1000:.0f}",
               batched_ms=f"{batched * 1000:.0f}",
               speedup=f"{speedup:.1f}x")
    assert _normalized_dict(sync_capture.last_run()) == \
        _normalized_dict(batched_capture.last_run())
    assert speedup >= MIN_FIREHOSE_SPEEDUP, (
        f"batched producer path only {speedup:.1f}x faster than sync "
        f"(need >= {MIN_FIREHOSE_SPEEDUP}x)")
