"""Tests for the ready-set scheduler: serial/parallel determinism,
failure propagation on diamond DAGs, partial re-execution planning, and
the thread-safety of shared engine components."""

import threading

import pytest

from repro.core import (ProvenanceCapture, ProvenanceManager, ReplayError,
                        compute_replay_plan)
from repro.apps import partial_rerun, replay_invalidated
from repro.workflow import (CacheEntry, ExecutionError, Executor, Module,
                            PersistentResultCache, ResultCache, Workflow)
from repro.workflow.scheduler import (ProcessPoolBackend, ReadySetScheduler,
                                      SerialBackend, ThreadPoolBackend,
                                      make_backend)
from repro.workflow.serialization import ProcessJob
from repro.workloads import random_workflow, wide_workflow
from tests.conftest import (assert_each_key_computed_once,
                            build_chain_workflow, build_fig1_workflow,
                            module_by_name, run_pair_sharing_cache)


def build_diamond_workflow(fail_left: bool = False) -> Workflow:
    """source -> (left, right) -> join; left optionally fails."""
    workflow = Workflow("diamond")
    source = workflow.add_module(Module("Constant", name="src",
                                        parameters={"value": 2.0}))
    left = workflow.add_module(Module("FailIf", name="left",
                                      parameters={"fail": fail_left}))
    right = workflow.add_module(Module("Scale", name="right",
                                       parameters={"factor": 3.0}))
    join = workflow.add_module(Module("Add", name="join"))
    workflow.connect(source.id, "value", left.id, "value")
    workflow.connect(source.id, "value", right.id, "value")
    workflow.connect(left.id, "value", join.id, "a")
    workflow.connect(right.id, "result", join.id, "b")
    return workflow


class TestReadySetScheduler:
    def test_sources_ready_first_sorted(self):
        workflow = build_diamond_workflow()
        scheduler = ReadySetScheduler(workflow)
        sources = scheduler.take_ready()
        assert sources == sorted(workflow.sources())
        assert scheduler.take_ready() == []

    def test_resolution_promotes_dependents(self):
        workflow = build_diamond_workflow()
        scheduler = ReadySetScheduler(workflow)
        (source_id,) = scheduler.take_ready()
        promoted = scheduler.resolve(source_id)
        assert sorted(promoted) == sorted(
            workflow.successors(source_id))
        assert not scheduler.finished()

    def test_full_drive_resolves_everything(self):
        workflow = random_workflow(modules=15, seed=7)
        scheduler = ReadySetScheduler(workflow)
        resolved = []
        while not scheduler.finished():
            batch = scheduler.take_ready()
            assert batch, "scheduler stalled"
            for module_id in batch:
                scheduler.resolve(module_id)
                resolved.append(module_id)
        assert sorted(resolved) == sorted(workflow.modules)
        position = {m: i for i, m in enumerate(resolved)}
        for connection in workflow.connections.values():
            assert (position[connection.source_module]
                    < position[connection.target_module])

    def test_double_resolution_rejected(self):
        workflow = build_diamond_workflow()
        scheduler = ReadySetScheduler(workflow)
        (source_id,) = scheduler.take_ready()
        scheduler.resolve(source_id)
        with pytest.raises(ExecutionError):
            scheduler.resolve(source_id)


class TestBackends:
    def test_make_backend_selects(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)
        backend = make_backend(3)
        assert isinstance(backend, ThreadPoolBackend)
        backend.shutdown()

    def test_make_backend_kind_selects(self):
        assert isinstance(make_backend(4, "serial"), SerialBackend)
        assert isinstance(make_backend(None, "process"), SerialBackend)
        backend = make_backend(2, "process")
        try:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.out_of_process
        finally:
            backend.shutdown()
        thread = make_backend(2, "thread")
        assert isinstance(thread, ThreadPoolBackend)
        assert not thread.out_of_process
        thread.shutdown()

    def test_make_backend_rejects_unknown_kind(self):
        with pytest.raises(ExecutionError):
            make_backend(4, "quantum")

    def test_workers_must_be_positive(self):
        with pytest.raises(ExecutionError):
            ThreadPoolBackend(0)
        with pytest.raises(ExecutionError):
            ProcessPoolBackend(0)

    def test_process_backend_runs_jobs(self):
        backend = ProcessPoolBackend(2)
        try:
            for index in range(4):
                backend.submit(f"m{index}", ProcessJob(
                    module_id=f"m{index}", module_name="scale",
                    type_name="Scale",
                    parameters={"factor": float(index)},
                    inputs={"value": 10.0}))
            harvested = {}
            while backend.outstanding():
                harvested.update(dict(backend.wait()))
        finally:
            backend.shutdown()
        assert {m: o.status for m, o in harvested.items()} == \
            {f"m{i}": "ok" for i in range(4)}
        assert harvested["m3"].outputs == {"result": 30.0}

    def test_broken_pool_recreates_and_recovers(self):
        # killing every worker breaks the pool; the supervisor must
        # recreate it (bounded) so later submissions run on fresh
        # workers — never submitted to the dead executor, never raised
        # into the scheduling loop
        backend = ProcessPoolBackend(1)
        try:
            backend.submit("warm", ProcessJob(
                module_id="warm", module_name="c", type_name="Constant",
                parameters={"value": 1.0}))
            while backend.outstanding():
                backend.wait()
            for process in backend._pool._processes.values():
                process.kill()
                process.join()
            harvested = {}
            for index in range(3):
                backend.submit(f"m{index}", ProcessJob(
                    module_id=f"m{index}", module_name="c",
                    type_name="Constant", parameters={"value": 1.0}))
            while backend.outstanding():
                harvested.update(dict(backend.wait()))
            # jobs caught on the broken pool surface as worker-lost (the
            # engine re-dispatches those); the pool itself must be fresh
            lost = {m for m, o in harvested.items() if o.status != "ok"}
            assert all(harvested[m].worker_lost for m in lost)
            for module_id in lost:
                backend.submit(module_id, ProcessJob(
                    module_id=module_id, module_name="c",
                    type_name="Constant", parameters={"value": 1.0}))
            while backend.outstanding():
                harvested.update(dict(backend.wait()))
        finally:
            backend.shutdown()
        assert set(harvested) == {"m0", "m1", "m2"}
        assert all(outcome.status == "ok"
                   for outcome in harvested.values())
        assert backend.restarts >= 1

    def test_broken_pool_fails_fast_once_restarts_exhausted(self):
        backend = ProcessPoolBackend(1, max_restarts=0)
        try:
            backend.submit("boom", ProcessJob(
                module_id="boom", module_name="c", type_name="Constant",
                parameters={"value": 1.0}, inject="kill"))
            harvested = {}
            while backend.outstanding():
                harvested.update(dict(backend.wait()))
            # restart budget is 0: the backend is dead and must refuse
            # further submissions with terminal failures, immediately
            backend.submit("after", ProcessJob(
                module_id="after", module_name="c", type_name="Constant",
                parameters={"value": 1.0}))
            while backend.outstanding():
                harvested.update(dict(backend.wait()))
        finally:
            backend.shutdown()
        assert harvested["boom"].status == "failed"
        assert harvested["boom"].worker_lost
        assert harvested["after"].status == "failed"
        assert not harvested["after"].worker_lost
        assert "restart budget exhausted" in harvested["after"].error

    def test_process_backend_failures_come_back_as_outcomes(self):
        backend = ProcessPoolBackend(1)
        try:
            backend.submit("bad-type", ProcessJob(
                module_id="bad-type", module_name="x",
                type_name="NoSuchModule"))
            backend.submit("bad-provider", ProcessJob(
                module_id="bad-provider", module_name="x",
                type_name="Scale",
                registry_provider="no.such.module:factory"))
            harvested = {}
            while backend.outstanding():
                harvested.update(dict(backend.wait()))
        finally:
            backend.shutdown()
        assert harvested["bad-type"].status == "failed"
        assert "NoSuchModule" in harvested["bad-type"].error
        assert harvested["bad-provider"].status == "failed"

    def test_serial_wait_without_work_rejected(self):
        with pytest.raises(ExecutionError):
            SerialBackend().wait()

    def test_thread_backend_runs_jobs(self):
        backend = ThreadPoolBackend(2)
        try:
            for index in range(5):
                backend.submit(f"m{index}",
                               lambda index=index: index * 10)
            harvested = {}
            while backend.outstanding():
                harvested.update(dict(backend.wait()))
            assert harvested == {f"m{i}": i * 10 for i in range(5)}
        finally:
            backend.shutdown()


def _engine_fingerprint(result):
    """Timing-independent digest of an engine run."""
    statuses = {m: r.status for m, r in result.results.items()}
    hashes = {(m, port): record.value_hash
              for m, r in result.results.items()
              for port, record in r.outputs.items()}
    errors = {m: r.error for m, r in result.results.items()
              if r.status == "skipped"}
    return statuses, hashes, errors


def _provenance_fingerprint(run):
    """Timing-independent digest of a captured WorkflowRun."""
    executions = [(e.module_id, e.status,
                   sorted((b.port, run.artifacts[b.artifact_id].value_hash)
                          for b in e.outputs))
                  for e in run.executions]
    artifact_hashes = sorted(a.value_hash for a in run.artifacts.values())
    return run.status, executions, artifact_hashes


class TestSerialParallelDeterminism:
    @pytest.mark.parametrize("build", [
        lambda: build_fig1_workflow(size=8),
        lambda: random_workflow(modules=18, width=5, seed=3, work=10),
        lambda: wide_workflow(branches=6, depth=2, sleep=0.002),
    ])
    def test_results_identical_across_modes(self, registry, build):
        workflow = build()
        serial = Executor(registry).execute(workflow)
        parallel = Executor(registry, workers=4).execute(workflow)
        assert _engine_fingerprint(serial) == _engine_fingerprint(parallel)
        assert serial.order == parallel.order

    def test_captured_provenance_identical(self, registry):
        workflow = build_fig1_workflow(size=8)
        captures = {}
        for workers in (None, 4):
            capture = ProvenanceCapture(registry=registry)
            Executor(registry, listeners=[capture],
                     workers=workers).execute(workflow)
            captures[workers] = capture
        assert (_provenance_fingerprint(captures[None].last_run())
                == _provenance_fingerprint(captures[4].last_run()))

    def test_listener_events_identical_normalized(self, registry):
        workflow = build_fig1_workflow(size=8)
        journals = {}
        for workers in (None, 4):
            capture = ProvenanceCapture(registry=registry)
            executor = Executor(registry, listeners=[capture],
                                workers=workers)
            result = executor.execute(workflow)
            journals[workers] = capture.normalized_journal(result.run_id)
        assert journals[None] == journals[4]

    def test_diamond_failure_propagation_parity(self, registry):
        workflow = build_diamond_workflow(fail_left=True)
        serial = Executor(registry).execute(workflow)
        parallel = Executor(registry, workers=4).execute(workflow)
        assert _engine_fingerprint(serial) == _engine_fingerprint(parallel)
        names = {workflow.modules[m].name: r.status
                 for m, r in parallel.results.items()}
        assert names == {"src": "ok", "left": "failed",
                         "right": "ok", "join": "skipped"}
        left = module_by_name(workflow, "left")
        assert left.id in parallel.results[
            module_by_name(workflow, "join").id].error

    def test_wide_failure_only_kills_its_branch(self, registry):
        workflow = wide_workflow(branches=4, depth=3, sleep=0.001)
        bad = module_by_name(workflow, "b01s01")
        result = Executor(registry, workers=4).execute(
            workflow, parameter_overrides={})
        assert result.status == "ok"
        failing = Executor(registry, workers=4).execute(
            workflow,
            parameter_overrides={bad.id: {"seconds": "not-a-number"}})
        statuses = {workflow.modules[m].name: r.status
                    for m, r in failing.results.items()}
        assert statuses["b01s01"] == "failed"
        assert statuses["b01s02"] == "skipped"
        # every other branch is untouched
        assert all(status == "ok" for name, status in statuses.items()
                   if not name.startswith("b01s0") and name != "source")

    def test_parallel_cache_shared_safely(self, registry):
        cache = ResultCache()
        executor = Executor(registry, cache=cache, workers=4)
        workflow = wide_workflow(branches=8, depth=2, sleep=0.001)
        executor.execute(workflow)
        second = executor.execute(workflow)
        assert all(r.status == "cached"
                   for r in second.results.values())


#: (label, executor kwargs) for the serial / thread / process matrix.
BACKEND_MATRIX = [
    ("serial", {}),
    ("thread", {"workers": 4}),
    ("process", {"workers": 2, "backend": "process"}),
]

#: Workload generators the matrix runs: a wide fan-out (sleep-bound and
#: CPU-bound variants), a linear derivation chain (the executable shape of
#: the derivation_chain_corpus lineage workload), and a random layered DAG.
MATRIX_WORKLOADS = [
    ("wide-sleep", lambda: wide_workflow(branches=5, depth=2, sleep=0.002)),
    ("wide-cpu", lambda: wide_workflow(branches=5, depth=2, work=200)),
    ("derivation-chain", lambda: build_chain_workflow(length=4, work=10)),
    ("random-dag", lambda: random_workflow(modules=14, width=4, seed=11,
                                           work=10)),
]


class TestBackendDeterminismMatrix:
    """Serial, thread and process runs of one workflow must produce
    byte-identical retrospective provenance: statuses, output hashes,
    balanced listener events, and ``executions.seq`` reload order."""

    def _run_all(self, registry, build):
        workflow = build()
        outcomes = {}
        for label, kwargs in BACKEND_MATRIX:
            capture = ProvenanceCapture(registry=registry)
            executor = Executor(registry, listeners=[capture], **kwargs)
            result = executor.execute(workflow)
            outcomes[label] = (workflow, result, capture)
        return outcomes

    @pytest.mark.parametrize("name,build", MATRIX_WORKLOADS,
                             ids=[n for n, _ in MATRIX_WORKLOADS])
    def test_statuses_and_hashes_identical(self, registry, name, build):
        outcomes = self._run_all(registry, build)
        fingerprints = {label: _engine_fingerprint(result)
                        for label, (_, result, _) in outcomes.items()}
        assert fingerprints["serial"] == fingerprints["thread"]
        assert fingerprints["serial"] == fingerprints["process"]
        orders = {label: result.order
                  for label, (_, result, _) in outcomes.items()}
        assert orders["serial"] == orders["thread"] == orders["process"]

    @pytest.mark.parametrize("name,build", MATRIX_WORKLOADS,
                             ids=[n for n, _ in MATRIX_WORKLOADS])
    def test_captured_provenance_identical(self, registry, name, build):
        outcomes = self._run_all(registry, build)
        prints = {label: _provenance_fingerprint(capture.last_run())
                  for label, (_, _, capture) in outcomes.items()}
        assert prints["serial"] == prints["thread"] == prints["process"]

    def test_listener_events_balanced_and_identical(self, registry):
        workflow = wide_workflow(branches=5, depth=2, work=50)
        journals = {}
        for label, kwargs in BACKEND_MATRIX:
            capture = ProvenanceCapture(registry=registry)
            executor = Executor(registry, listeners=[capture], **kwargs)
            result = executor.execute(workflow)
            journal = capture.normalized_journal(result.run_id)
            kinds = [event for event, _, _ in journal]
            assert kinds.count("module-start") == len(workflow.modules)
            assert kinds.count("module-finish") == len(workflow.modules)
            journals[label] = journal
        assert journals["serial"] == journals["thread"]
        assert journals["serial"] == journals["process"]

    def test_executions_seq_reload_order_identical(self, registry,
                                                   tmp_path):
        from repro.storage import RelationalStore
        workflow = wide_workflow(branches=5, depth=2, work=50)
        reloaded_orders = {}
        for label, kwargs in BACKEND_MATRIX:
            store = RelationalStore(
                str(tmp_path / f"{label}.db"))
            capture = ProvenanceCapture(registry=registry, store=store)
            executor = Executor(registry, listeners=[capture], **kwargs)
            result = executor.execute(workflow)
            loaded = store.load_run(result.run_id)
            assert [e.module_id for e in loaded.executions] == result.order
            reloaded_orders[label] = [e.module_id
                                      for e in loaded.executions]
        assert (reloaded_orders["serial"] == reloaded_orders["thread"]
                == reloaded_orders["process"])

    def test_process_failure_propagation_parity(self, registry):
        workflow = build_diamond_workflow(fail_left=True)
        serial = Executor(registry).execute(workflow)
        process = Executor(registry, workers=2,
                           backend="process").execute(workflow)
        assert _engine_fingerprint(serial) == _engine_fingerprint(process)
        names = {workflow.modules[m].name: r.status
                 for m, r in process.results.items()}
        assert names == {"src": "ok", "left": "failed",
                         "right": "ok", "join": "skipped"}

    def test_process_run_memoizes_in_coordinator_cache(self, registry):
        cache = ResultCache()
        executor = Executor(registry, cache=cache, workers=2,
                            backend="process")
        workflow = wide_workflow(branches=4, depth=2, work=50)
        first = executor.execute(workflow)
        # stages repeat their branch's causal signature (SpinCompute
        # passes the value through), so the first run already mixes ok
        # and cached — every module of the second run must be cached
        assert first.executed_modules()
        second = executor.execute(workflow)
        assert all(r.status == "cached" for r in second.results.values())
        # the cached run's hashes match the computed run's exactly
        assert _engine_fingerprint(first)[1] == \
            _engine_fingerprint(second)[1]

    def test_process_unpicklable_output_fails_cleanly(self, registry):
        # a module whose output cannot cross the process boundary must
        # come back as an ordinary failed result, not an exception
        workflow = Workflow("unpicklable")
        module = workflow.add_module(Module(
            "BuildTable", name="t",
            parameters={"columns": {"a": [1, 2]}}))
        result = Executor(registry, workers=2,
                          backend="process").execute(workflow)
        assert result.results[module.id].status == "ok"  # tables pickle
        bad = Workflow("unpicklable-param")
        bad_module = bad.add_module(Module(
            "Constant", name="c", parameters={"value": lambda: None}))
        outcome = Executor(registry, workers=2, backend="process",
                           validate=False).execute(bad)
        assert outcome.results[bad_module.id].status == "failed"
        assert outcome.status == "failed"


class TestPersistentCacheWithEngine:
    def test_fresh_executor_reuses_persistent_results(self, registry,
                                                      tmp_path):
        path = str(tmp_path / "memo.db")
        workflow = build_fig1_workflow(size=8)
        first = Executor(registry,
                         cache=PersistentResultCache(path)).execute(workflow)
        assert all(r.status == "ok" for r in first.results.values())
        # a brand-new cache instance (as a fresh process would build)
        second = Executor(registry,
                          cache=PersistentResultCache(path)).execute(
                              workflow)
        assert all(r.status == "cached"
                   for r in second.results.values())
        assert _engine_fingerprint(first)[1] == \
            _engine_fingerprint(second)[1]

    def test_persistent_cache_serves_process_backend(self, registry,
                                                     tmp_path):
        path = str(tmp_path / "memo.db")
        workflow = wide_workflow(branches=4, depth=2, work=50)
        Executor(registry,
                 cache=PersistentResultCache(path)).execute(workflow)
        warm = Executor(registry, cache=PersistentResultCache(path),
                        workers=2, backend="process").execute(workflow)
        assert all(r.status == "cached" for r in warm.results.values())

    def test_manager_cache_path_round_trip(self, tmp_path):
        path = str(tmp_path / "memo.db")
        first = ProvenanceManager(cache_path=path)
        workflow = build_fig1_workflow(size=8)
        first.run(workflow)
        assert first.cache_stats()["hits"] == 0
        second = ProvenanceManager(cache_path=path)
        second.run(build_fig1_workflow(size=8))
        assert second.last_engine_result.executed_modules() == []
        assert second.cache_stats()["hits"] == len(workflow.modules)


class TestCacheLeasesWithEngine:
    """Concurrent runs sharing one cache compute each distinct causal
    signature exactly once (the winners), while the losers replay the
    published entry as ``"cached"`` executions with identical hashes."""

    @pytest.mark.parametrize("name,kwargs", BACKEND_MATRIX)
    def test_shared_file_runs_compute_each_key_once(self, registry,
                                                    tmp_path, name,
                                                    kwargs):
        path = str(tmp_path / "shared.db")
        workflow = wide_workflow(branches=3, depth=2, work=60_000)
        runs = run_pair_sharing_cache(
            registry, lambda: PersistentResultCache(path), workflow,
            **kwargs)
        assert_each_key_computed_once(runs)

    def test_shared_in_memory_cache_runs_compute_each_key_once(
            self, registry):
        cache = ResultCache()
        workflow = wide_workflow(branches=3, depth=2, work=60_000)
        runs = run_pair_sharing_cache(registry, lambda: cache, workflow,
                                      workers=2)
        assert_each_key_computed_once(runs)

    def test_duplicate_signatures_within_one_parallel_run(self, registry):
        """Two identical modules in one ready batch: one computes, the
        other replays it — same statuses a serial run records."""
        workflow = Workflow("twins")
        source = workflow.add_module(Module("Constant", name="src",
                                            parameters={"value": 7.0}))
        for index in range(2):
            twin = workflow.add_module(Module("SpinCompute",
                                              name=f"twin{index}",
                                              parameters={"work": 40_000}))
            workflow.connect(source.id, "value", twin.id, "value")
        result = Executor(registry, cache=ResultCache()).execute(
            workflow, workers=2)
        statuses = sorted(r.status for r in result.results.values()
                          if r.module_id != source.id)
        assert statuses == ["cached", "ok"]

    def test_heartbeat_outlives_short_lease_ttl(self, registry,
                                                monkeypatch):
        """A held lease is refreshed by the executor heartbeat, so slow
        computations are never stolen mid-compute by a waiter."""
        import time as time_module

        import repro.workflow.engine as engine_module
        monkeypatch.setattr(engine_module, "_HEARTBEAT_INTERVAL", 0.02)
        cache = ResultCache()
        executor = Executor(registry, cache=cache)
        assert cache.acquire_lease("k", "holder", ttl=0.1)
        executor._register_lease(cache, "k", "holder")
        time_module.sleep(0.5)   # >> the 0.1s TTL seeded above
        assert not cache.acquire_lease("k", "rival")
        executor._release_lease(cache, "k", "holder")
        assert cache.acquire_lease("k", "rival")

    def test_heartbeat_cannot_revive_a_lease_released_mid_refresh(
            self, registry):
        """A run that releases its lease while a heartbeat refresh is
        under way must leave it released; a revived lease would make the
        next run that misses on the key wait out the whole TTL."""
        executor_box = []
        releases = []

        class ReleaseDuringRefresh(ResultCache):
            def acquire_lease(self, key, owner, ttl=None):
                if key == "first" and not releases:
                    # the engine thread settles "second" just now
                    releases.append(threading.Thread(
                        target=executor_box[0]._release_lease,
                        args=(self, "second", "run-b")))
                    releases[0].start()
                    releases[0].join(timeout=0.3)
                return super().acquire_lease(key, owner, ttl)

        cache = ReleaseDuringRefresh()
        executor = Executor(registry, cache=cache)
        executor_box.append(executor)
        for key, owner in (("first", "run-a"), ("second", "run-b")):
            assert ResultCache.acquire_lease(cache, key, owner)
            executor._register_lease(cache, key, owner)
        assert executor._heartbeat_tick()
        releases[0].join()
        assert cache.acquire_lease("second", "rival")
        executor._release_lease(cache, "first", "run-a")

    def test_lease_losers_record_cached_from_winner(self, registry,
                                                    tmp_path):
        path = str(tmp_path / "prov.db")
        workflow = build_chain_workflow(length=3, work=40_000)
        runs = run_pair_sharing_cache(
            registry, lambda: PersistentResultCache(path), workflow)
        by_key = {}
        for run in runs:
            for result in run.results.values():
                if result.status == "ok":
                    by_key[result.cache_key] = result.execution_id
        for run in runs:
            for result in run.results.values():
                if result.status == "cached":
                    assert result.cached_from == by_key[result.cache_key]


class TestPayloadSpill:
    """Large process-job values travel as spill-file references."""

    @staticmethod
    def blob_workflow(size: int) -> Workflow:
        workflow = Workflow("blob")
        blob = workflow.add_module(Module("MakeBlob", name="blob",
                                          parameters={"size": size}))
        passthrough = workflow.add_module(Module("Identity", name="pass"))
        workflow.connect(blob.id, "value", passthrough.id, "value")
        return workflow

    def test_multi_mb_payload_roundtrip(self, registry):
        workflow = self.blob_workflow(3_000_000)
        executor = Executor(registry, payload_spill_threshold=64 * 1024)
        serial = executor.execute(workflow)
        process = executor.execute(workflow, workers=2, backend="process")
        assert process.status == "ok"
        assert {m: r.status for m, r in serial.results.items()} \
            == {m: r.status for m, r in process.results.items()}
        assert {m: {p: r.value_hash for p, r in res.outputs.items()}
                for m, res in serial.results.items()} \
            == {m: {p: r.value_hash for p, r in res.outputs.items()}
                for m, res in process.results.items()}
        final = next(iter(process.results[m] for m in process.results
                          if process.workflow.modules[m].name == "pass"))
        assert len(final.outputs["value"].value) == 3_000_000

    def test_spill_files_cleaned_after_run(self, registry, tmp_path,
                                           monkeypatch):
        import tempfile as real_tempfile

        import repro.workflow.engine as engine_module
        created = []
        original = real_tempfile.mkdtemp

        def tracking_mkdtemp(*args, **kwargs):
            kwargs["dir"] = str(tmp_path)
            path = original(*args, **kwargs)
            created.append(path)
            return path

        monkeypatch.setattr(engine_module.tempfile, "mkdtemp",
                            tracking_mkdtemp)
        workflow = self.blob_workflow(2_000_000)
        result = Executor(registry,
                          payload_spill_threshold=32 * 1024).execute(
            workflow, workers=2, backend="process")
        assert result.status == "ok"
        assert created, "spill directory was never created"
        import os
        assert not any(os.path.exists(path) for path in created)

    def test_zero_threshold_disables_spilling(self, registry,
                                              monkeypatch):
        import repro.workflow.engine as engine_module

        def forbidden_mkdtemp(*args, **kwargs):  # pragma: no cover
            raise AssertionError("spill dir created despite threshold=0")

        monkeypatch.setattr(engine_module.tempfile, "mkdtemp",
                            forbidden_mkdtemp)
        workflow = self.blob_workflow(200_000)
        result = Executor(registry, payload_spill_threshold=0).execute(
            workflow, workers=2, backend="process")
        assert result.status == "ok"

    def test_in_process_backends_never_spill(self, registry,
                                             monkeypatch):
        import repro.workflow.engine as engine_module

        def forbidden_mkdtemp(*args, **kwargs):  # pragma: no cover
            raise AssertionError("in-process run created a spill dir")

        monkeypatch.setattr(engine_module.tempfile, "mkdtemp",
                            forbidden_mkdtemp)
        workflow = self.blob_workflow(2_000_000)
        assert Executor(registry).execute(workflow).status == "ok"
        assert Executor(registry).execute(workflow,
                                          workers=2).status == "ok"


class TestExecutorEnvironmentCache:
    def test_probed_once_per_executor(self, registry, monkeypatch):
        import repro.workflow.engine as engine_module
        calls = []
        real = engine_module.capture_environment
        monkeypatch.setattr(engine_module, "capture_environment",
                            lambda: calls.append(1) or real())
        executor = Executor(registry)
        executor.execute(build_chain_workflow(length=1))
        executor.execute(build_chain_workflow(length=1))
        assert len(calls) == 1

    def test_refresh_reprobes(self, registry):
        executor = Executor(registry)
        first = executor.environment()
        assert executor.environment() is first
        refreshed = executor.refresh_environment()
        assert refreshed is not first
        assert executor.environment() is refreshed


class TestResultCacheThreadSafety:
    def test_concurrent_hammering_keeps_invariants(self):
        cache = ResultCache(max_entries=64)
        errors = []

        def hammer(worker: int):
            try:
                for index in range(500):
                    key = f"k{(worker * 31 + index) % 128}"
                    cache.put(key, CacheEntry(outputs={"v": index},
                                              output_hashes={"v": "h"}))
                    cache.get(key)
                    cache.get(f"k{index % 128}")
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
        assert cache.stats.lookups == cache.stats.hits + cache.stats.misses


class TestReplayPlan:
    @pytest.fixture()
    def recorded(self):
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        return manager, workflow, run

    def test_parameter_change_stales_exact_cone(self, recorded):
        manager, workflow, run = recorded
        iso = module_by_name(workflow, "iso")
        plan = manager.replay_plan(
            run.id, parameter_overrides={iso.id: {"level": 50.0}})
        stale_names = {workflow.modules[m].name for m in plan.stale}
        assert stale_names == {"iso", "render_mesh"}
        reused_names = {workflow.modules[m].name for m in plan.reused}
        assert reused_names == {"load", "hist", "render_hist"}
        assert plan.reasons[iso.id] == "parameter-change"

    def test_reuse_points_at_original_executions(self, recorded):
        manager, workflow, run = recorded
        iso = module_by_name(workflow, "iso")
        plan = manager.replay_plan(
            run.id, parameter_overrides={iso.id: {"level": 50.0}})
        originals = {e.module_id: e.id for e in run.executions}
        for module_id, record in plan.reuse_records.items():
            assert record.source_execution == originals[module_id]
            assert record.outputs  # every reused module carries its values

    def test_invalidated_hash_stales_consumers(self, recorded):
        manager, workflow, run = recorded
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        plan = manager.replay_plan(
            run.id, invalidated_hashes={volume.value_hash})
        stale_names = {workflow.modules[m].name for m in plan.stale}
        # the producer and every consumer of the bad bytes re-execute
        assert {"load", "hist", "iso"} <= stale_names
        assert "render_mesh" in stale_names  # downstream cone

    def test_force_stales_named_module(self, recorded):
        manager, workflow, run = recorded
        hist = module_by_name(workflow, "hist")
        plan = manager.replay_plan(run.id, force=[hist.id])
        assert plan.reasons[hist.id] == "forced"
        stale_names = {workflow.modules[m].name for m in plan.stale}
        assert stale_names == {"hist", "render_hist"}

    def test_no_change_reuses_everything(self, recorded):
        manager, workflow, run = recorded
        plan = manager.replay_plan(run.id)
        assert plan.stale == []
        assert len(plan.reused) == len(workflow.modules)

    def test_missing_values_force_full_replay(self):
        manager = ProvenanceManager(keep_values=False)
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        plan = compute_replay_plan(run)
        assert plan.is_full_replay()
        assert all(reason in ("missing-value", "upstream-stale")
                   for reason in plan.reasons.values())

    def test_connection_fed_changed_input_rejected(self, recorded):
        manager, workflow, run = recorded
        hist = module_by_name(workflow, "hist")
        with pytest.raises(ReplayError):
            manager.replay_plan(
                run.id, changed_inputs={(hist.id, "volume"): None})

    def test_unknown_module_rejected(self, recorded):
        manager, _, run = recorded
        with pytest.raises(ReplayError):
            manager.replay_plan(run.id, force=["mod-nonexistent"])

    def test_failed_run_replays_failed_modules(self, registry):
        manager = ProvenanceManager()
        workflow = build_diamond_workflow(fail_left=True)
        run = manager.run(workflow)
        assert run.status == "failed"
        plan = manager.replay_plan(run.id)
        stale_names = {plan.workflow.modules[m].name for m in plan.stale}
        assert {"left", "join"} <= stale_names
        assert {plan.workflow.modules[m].name
                for m in plan.reused} == {"src", "right"}


class TestManagerRerun:
    def test_only_stale_cone_executes(self):
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        new_run, plan = manager.rerun(
            run.id, parameter_overrides={iso.id: {"level": 50.0}})
        statuses = {e.module_name: e.status for e in new_run.executions}
        assert statuses == {"load": "cached", "hist": "cached",
                            "render_hist": "cached", "iso": "ok",
                            "render_mesh": "ok"}
        executed = manager.last_engine_result.executed_modules()
        assert {workflow.modules[m].name for m in executed} == \
            {"iso", "render_mesh"}
        assert new_run.tags["replay_of"] == run.id

    def test_reused_executions_link_to_originals(self):
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        new_run, _ = manager.rerun(
            run.id, parameter_overrides={iso.id: {"level": 50.0}})
        originals = {e.module_id: e.id for e in run.executions}
        for execution in new_run.executions:
            if execution.status == "cached":
                assert execution.cached_from == originals[
                    execution.module_id]

    def test_forced_module_recomputes_despite_result_cache(self):
        # force=[...] must bypass the memo cache: an unchanged causal
        # signature would otherwise serve the old result as "cached"
        manager = ProvenanceManager()  # cache enabled (the default)
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        new_run, plan = manager.rerun(run.id, force=[iso.id])
        assert plan.reasons[iso.id] == "forced"
        statuses = {e.module_name: e.status for e in new_run.executions}
        assert statuses["iso"] == "ok"  # genuinely recomputed
        assert statuses["load"] == "cached"

    def test_invalidated_rerun_recomputes_despite_result_cache(self):
        # the memo cache holds exactly the result being repudiated; an
        # invalidation-driven replay must not serve it back
        manager = ProvenanceManager()  # cache enabled (the default)
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        mesh_hash = run.artifacts_for_module(iso.id, "mesh").value_hash
        new_run, plan = manager.rerun(
            run.id, invalidated_hashes={mesh_hash})
        assert plan.stale  # iso + consumers
        executed = set(manager.last_engine_result.executed_modules())
        assert set(plan.stale) == executed  # genuinely recomputed

    def test_replay_run_is_stored(self):
        manager = ProvenanceManager()
        run = manager.run(build_fig1_workflow(size=8))
        before = len(manager.store.list_runs())
        new_run, _ = manager.rerun(run.id)
        assert len(manager.store.list_runs()) == before + 1
        assert manager.get_run(new_run.id).tags["replay_of"] == run.id

    def test_unchanged_outputs_hash_identical(self):
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        new_run, plan = manager.rerun(run.id)
        assert plan.stale == []
        original = {a.value_hash for a in run.artifacts.values()}
        replayed = {a.value_hash for a in new_run.artifacts.values()}
        assert replayed == original

    def test_same_session_rerun_reuses_despite_valueless_store(self,
                                                               tmp_path):
        # the DocumentStore persists metadata only by default; planning
        # must fall back to the in-session captured run, which has values
        from repro.storage import DocumentStore
        manager = ProvenanceManager(store=DocumentStore(tmp_path / "docs"))
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        _, plan = manager.rerun(
            run.id, parameter_overrides={iso.id: {"level": 50.0}})
        assert len(plan.reused) == 3
        assert len(plan.stale) == 2

    def test_parallel_rerun_matches_serial(self):
        manager = ProvenanceManager(use_cache=False)
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        serial_run, _ = manager.rerun(
            run.id, parameter_overrides={iso.id: {"level": 50.0}})
        parallel_run, _ = manager.rerun(
            run.id, parameter_overrides={iso.id: {"level": 50.0}},
            workers=4)
        assert ({e.module_name: e.status for e in serial_run.executions}
                == {e.module_name: e.status
                    for e in parallel_run.executions})


class TestPartialRerunApp:
    def test_standalone_partial_rerun(self, registry):
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        new_run, plan = partial_rerun(
            run, manager.registry,
            parameter_overrides={iso.id: {"level": 50.0}})
        assert len(plan.stale) == 2
        assert new_run.tags["replay_of"] == run.id
        assert new_run.tags["replay_reused"] == 3

    def test_replay_events_balanced_start_finish(self, registry):
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=8)
        run = manager.run(workflow)
        iso = module_by_name(workflow, "iso")
        manager.rerun(run.id, parameter_overrides={iso.id: {"level": 50.0}})
        replay_id = manager.last_engine_result.run_id
        events = manager.capture.normalized_journal(replay_id)
        kinds = [event for event, _, _ in events]
        # reused, cached and computed modules all emit start AND finish
        assert kinds.count("module-start") == len(workflow.modules)
        assert kinds.count("module-finish") == len(workflow.modules)

    def test_replay_invalidated_repairs_affected_only(self):
        manager = ProvenanceManager()
        vis = build_fig1_workflow(size=8)
        affected = manager.run(vis)
        clean = manager.run(build_chain_workflow(length=2))
        load = module_by_name(vis, "load")
        volume = affected.artifacts_for_module(load.id, "volume")
        repaired = replay_invalidated(
            manager.store, manager.registry, volume.value_hash)
        assert set(repaired) == {affected.id}
        new_run, plan = repaired[affected.id]
        assert clean.id not in repaired
        assert new_run.tags["replay_of"] == affected.id
        assert plan.stale  # the tainted cone actually re-executed

    def test_replay_invalidated_changed_inputs_scoped_per_run(self):
        # module ids are per-workflow-instance; a changed-input key for
        # one run must not abort the repair of the others
        manager = ProvenanceManager(use_cache=False)
        first_wf = Workflow("scripted")
        first_scale = first_wf.add_module(Module("Scale", name="s",
                                                 parameters={"factor": 2.0}))
        second_wf = Workflow("scripted")
        second_scale = second_wf.add_module(Module(
            "Scale", name="s", parameters={"factor": 2.0}))
        first = manager.run(first_wf,
                            inputs={(first_scale.id, "value"): 7.0})
        manager.run(second_wf, inputs={(second_scale.id, "value"): 7.0})
        bad = first.external_artifacts()[0].value_hash
        repaired = replay_invalidated(
            manager.store, manager.registry, bad,
            changed_inputs={(first_scale.id, "value"): 9.0,
                            (second_scale.id, "value"): 9.0})
        assert len(repaired) == 2
        for new_run, _ in repaired.values():
            values = set(new_run.values.values())
            assert 9.0 in values and 18.0 in values


class TestSerialOrderFidelity:
    def test_serial_timestamps_follow_canonical_order(self, registry):
        # the serial scheduler must execute in exactly run.order, so a
        # started-ordered reload reproduces the canonical execution list
        for seed in range(5):
            workflow = random_workflow(modules=16, width=4, seed=seed,
                                       work=5)
            result = Executor(registry).execute(workflow)
            started = sorted(result.order,
                             key=lambda m: (result.results[m].started,
                                            result.results[m].execution_id))
            assert started == result.order

    def test_relational_roundtrip_preserves_parallel_order(self, tmp_path):
        from repro.storage import RelationalStore
        store = RelationalStore(str(tmp_path / "prov.db"))
        manager = ProvenanceManager(store=store, use_cache=False)
        run = manager.run(wide_workflow(branches=6, depth=2, sleep=0.002),
                          workers=4)
        loaded = store.load_run(run.id)
        assert ([e.id for e in loaded.executions]
                == [e.id for e in run.executions])
        assert loaded.to_dict() == run.to_dict()
