"""Backend-conformance tests run against all four provenance stores."""

import contextlib
import dataclasses
import pickle
import sqlite3

import numpy as np
import pytest

from repro.core import ProspectiveProvenance, ProvenanceCapture
from repro.storage import (ArtifactValueStore, DocumentStore,
                           FileArtifactValueStore, MemoryStore,
                           ProvQuery, RelationalStore, StoreError,
                           TripleProvenanceStore, TripleStore,
                           run_to_triples)
from repro.workflow import (Executor, FaultPlan, Module, RetryPolicy,
                            Workflow)
from tests.conftest import (build_chain_workflow, build_fig1_workflow,
                            module_by_name)


def make_store(name, tmp_path):
    if name == "memory":
        return MemoryStore()
    if name == "relational":
        return RelationalStore()
    if name == "relational-values":
        return RelationalStore(store_values=True)
    if name == "triples":
        return TripleProvenanceStore()
    if name == "documents":
        return DocumentStore(tmp_path / "docs")
    raise ValueError(name)


BACKENDS = ["memory", "relational", "triples", "documents"]


@pytest.fixture()
def captured_run(registry):
    workflow = build_fig1_workflow(size=8)
    capture = ProvenanceCapture(registry=registry)
    Executor(registry, listeners=[capture]).execute(
        workflow, tags={"suite": "storage"})
    return workflow, capture.last_run()


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreConformance:
    def test_run_roundtrip(self, backend, tmp_path, captured_run):
        workflow, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)
        loaded = store.load_run(run.id)
        assert loaded.id == run.id
        assert loaded.status == "ok"
        assert loaded.workflow_signature == run.workflow_signature
        assert len(loaded.executions) == len(run.executions)
        assert set(loaded.artifacts) == set(run.artifacts)
        original = run.execution_for_module(
            module_by_name(workflow, "iso").id)
        restored = loaded.execution_for_module(
            module_by_name(workflow, "iso").id)
        assert restored.parameters == original.parameters
        assert restored.input_artifacts() == original.input_artifacts()

    def test_missing_run_raises(self, backend, tmp_path, captured_run):
        store = make_store(backend, tmp_path)
        with pytest.raises(StoreError):
            store.load_run("run-missing")

    def test_list_and_delete(self, backend, tmp_path, captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)
        assert [s.run_id for s in store.list_runs()] == [run.id]
        assert store.delete_run(run.id)
        assert store.list_runs() == []
        assert not store.delete_run(run.id)

    def test_save_is_idempotent_overwrite(self, backend, tmp_path,
                                          captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)
        store.save_run(run)
        assert len(store.list_runs()) == 1
        assert len(store.load_run(run.id).executions) == \
            len(run.executions)

    def test_workflow_roundtrip(self, backend, tmp_path, captured_run,
                                registry):
        workflow, _ = captured_run
        store = make_store(backend, tmp_path)
        prospective = ProspectiveProvenance.from_workflow(workflow,
                                                          registry)
        store.save_workflow(prospective)
        loaded = store.load_workflow(workflow.id)
        assert loaded.signature == prospective.signature
        assert loaded.to_workflow().signature() == workflow.signature()
        assert store.list_workflows() == [workflow.id]

    def test_annotation_roundtrip(self, backend, tmp_path, captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        from repro.core import Annotation
        store.save_annotation(Annotation(
            target_kind="run", target_id=run.id, key="grade",
            value={"score": 9}, author="dana", created=1.5))
        found = store.annotations_for("run", run.id)
        assert found[0].value == {"score": 9}
        assert found[0].author == "dana"
        assert len(store.all_annotations()) == 1

    def test_select_runs_by_status(self, backend, tmp_path, captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)

        def run_ids(**criteria):
            return [row["id"] for row in store.select(
                ProvQuery.runs().where(**criteria).project("id"))]

        assert run_ids(status="ok") == [run.id]
        assert run_ids(status="failed") == []
        assert run_ids(workflow_id=run.workflow_id) == [run.id]

    def test_select_artifacts_by_hash(self, backend, tmp_path,
                                      captured_run):
        workflow, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        rows = store.select(ProvQuery.artifacts()
                            .where(value_hash=volume.value_hash)).all()
        assert [(row["run_id"], row["id"]) for row in rows] == \
            [(run.id, volume.id)]

    def test_select_executions_by_type(self, backend, tmp_path,
                                       captured_run):
        _, run = captured_run
        store = make_store(backend, tmp_path)
        store.save_run(run)

        def executions(**criteria):
            return store.select(
                ProvQuery.executions().where(**criteria)).all()

        assert len(executions(module_type="IsosurfaceExtract")) == 1
        assert len(executions(module_type="IsosurfaceExtract",
                              param__level=90.0)) == 1
        assert executions(module_type="IsosurfaceExtract",
                          param__level=1.0) == []


class TestRelationalSpecifics:
    def test_raw_sql_queries(self, captured_run):
        _, run = captured_run
        store = RelationalStore()
        store.save_run(run)
        rows = store.sql("SELECT COUNT(*) FROM executions")
        assert rows[0][0] == 5
        rows = store.sql(
            "SELECT module_type FROM executions WHERE run_id = ?"
            " ORDER BY module_type", (run.id,))
        assert rows[0][0] == "ComputeHistogram"

    def test_sql_rejects_writes(self, captured_run):
        store = RelationalStore()
        with pytest.raises(StoreError):
            store.sql("DELETE FROM runs")
        with pytest.raises(StoreError):
            store.sql("SELECT 1; DROP TABLE runs")

    def test_values_persist_when_enabled(self, captured_run):
        workflow, run = captured_run
        store = RelationalStore(store_values=True)
        store.save_run(run)
        loaded = store.load_run(run.id)
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        assert np.array_equal(loaded.values[volume.id],
                              run.values[volume.id])

    def test_values_skipped_when_disabled(self, captured_run):
        _, run = captured_run
        store = RelationalStore(store_values=False)
        store.save_run(run)
        assert store.load_run(run.id).values == {}

    def test_resave_with_values_roundtrips(self, captured_run):
        _, run = captured_run
        store = RelationalStore(store_values=True)
        store.save_run(run)
        store.save_run(run)
        assert store.save_runs([run, run]) == 2
        loaded = store.load_run(run.id)
        assert set(loaded.artifacts) == set(run.artifacts)
        assert set(loaded.values) == set(run.values)
        for artifact_id, value in run.values.items():
            assert (pickle.dumps(loaded.values[artifact_id])
                    == pickle.dumps(value))
        assert store.sql("SELECT COUNT(*) FROM artifact_values") == \
            [(len(run.values),)]

    def test_failed_save_leaves_stored_run_intact(self, captured_run,
                                                  registry):
        workflow, run = captured_run
        store = RelationalStore(store_values=True)
        store.save_run(run)
        before = store.load_run(run.id)
        broken = dataclasses.replace(run, executions=[
            dataclasses.replace(execution, id=run.executions[0].id)
            for execution in run.executions])
        with pytest.raises(sqlite3.IntegrityError):
            store.save_run(broken)
        # an unrelated write commits; the failed save must not ride along
        store.save_workflow(ProspectiveProvenance.from_workflow(
            workflow, registry))
        _assert_same_run(store.load_run(run.id), before)
        assert len(before.executions) == len(run.executions)
        assert set(before.artifacts) == set(run.artifacts)

    def test_load_run_statement_count_independent_of_size(self, registry):
        counts = []
        for length in (9, 399):
            run = _captured(registry, build_chain_workflow(length, work=0))
            assert len(run.executions) == length + 1
            for store_values in (False, True):
                store = RelationalStore(store_values=store_values)
                store.save_run(run)
                with _traced(store) as statements:
                    store.load_run(run.id)
                counts.append(len(statements))
        assert counts[0] == counts[2] <= 4
        assert counts[1] == counts[3] <= 5

    def test_run_reads_and_deletes_use_indexes(self, captured_run):
        _, run = captured_run
        store = RelationalStore(store_values=True)
        other = dataclasses.replace(run, id="run-other", executions=[
            dataclasses.replace(execution, id=f"{execution.id}-other")
            for execution in run.executions])
        store.save_runs([run, other])
        with _traced(store) as statements:
            store.load_run(run.id)
            store.load_runs([other.id, run.id])
            assert store.delete_run(other.id)
            store.save_run_stream(dataclasses.replace(
                run, id="run-streamed", executions=[], artifacts={},
                values={})).abort()
        planned = [statement for statement in statements
                   if statement.split(None, 1)[0].upper()
                   in ("SELECT", "DELETE", "INSERT", "UPDATE")]
        assert any("artifact_values" in statement for statement in planned)
        scans = [(statement, detail) for statement in planned
                 for *_, detail in store._connection.execute(
                     "EXPLAIN QUERY PLAN " + statement)
                 if detail.startswith("SCAN")]
        assert scans == []
        assert [summary.run_id for summary in store.list_runs()] == [run.id]

    def test_load_run_matches_bulk_reader(self, registry, captured_run):
        fig1 = build_fig1_workflow(size=6)
        hist = module_by_name(fig1, "hist")
        retried = _captured(registry, fig1, retry=RetryPolicy(max_attempts=2),
                            fault_plan=FaultPlan().fail_module(hist.id))
        assert any(execution.attempt for execution in retried.executions)
        failing = _captured(registry, _failing_branch_workflow())
        assert {"failed", "skipped"} <= {
            execution.status for execution in failing.executions}
        chain = _captured(registry, build_chain_workflow(3, work=0))
        _, with_values = captured_run
        store = RelationalStore(store_values=True)
        store.save_runs([retried, failing, chain, with_values])
        streamed = _captured(registry, build_chain_workflow(3, work=0))
        writer = store.save_run_stream(dataclasses.replace(
            streamed, executions=[], artifacts={}, values={}))
        for artifact in streamed.artifacts.values():
            writer.add_artifact(artifact,
                                value=streamed.values.get(artifact.id))
        for index, execution in enumerate(streamed.executions):
            writer.add_execution(execution)
            if index % 2:
                writer.flush()
        writer.finish(status=streamed.status, finished=streamed.finished,
                      tags=streamed.tags)
        runs = [retried, failing, chain, with_values, streamed]
        bulk = store.load_runs([original.id for original in runs])
        for original, from_bulk in zip(runs, bulk):
            loaded = store.load_run(original.id)
            _assert_same_run(loaded, store.load_runs([original.id])[0])
            _assert_same_run(loaded, from_bulk)
            assert [(e.id, e.status, e.attempt, e.input_artifacts(),
                     e.output_artifacts()) for e in loaded.executions] == \
                [(e.id, e.status, e.attempt, e.input_artifacts(),
                  e.output_artifacts()) for e in original.executions]
            assert loaded.artifacts == original.artifacts
            assert set(loaded.values) == set(original.values)
        assert store.load_run(with_values.id).values


@contextlib.contextmanager
def _traced(store):
    """Collect the SQL statements ``store`` runs inside the block."""
    statements = []
    store._connection.set_trace_callback(statements.append)
    try:
        yield statements
    finally:
        store._connection.set_trace_callback(None)


def _assert_same_run(first, second):
    """Field-wise run equality; values compare by their pickled bytes
    (numpy arrays do not support a plain ``==`` inside a dict)."""
    assert dataclasses.replace(first, values={}) == \
        dataclasses.replace(second, values={})
    assert ({key: pickle.dumps(value) for key, value in first.values.items()}
            == {key: pickle.dumps(value)
                for key, value in second.values.items()})


def _captured(registry, workflow, **executor_kwargs):
    capture = ProvenanceCapture(registry=registry)
    Executor(registry, listeners=[capture], **executor_kwargs).execute(
        workflow)
    return capture.last_run()


def _failing_branch_workflow():
    workflow = Workflow("failing-branch")
    source = workflow.add_module(Module("Constant", name="src",
                                        parameters={"value": 1}))
    bad = workflow.add_module(Module("FailIf", name="bad",
                                     parameters={"fail": True}))
    after = workflow.add_module(Module("Identity", name="after"))
    healthy = workflow.add_module(Module("Identity", name="healthy"))
    workflow.connect(source.id, "value", bad.id, "value")
    workflow.connect(bad.id, "value", after.id, "value")
    workflow.connect(source.id, "value", healthy.id, "value")
    return workflow


class TestTripleStoreSpecifics:
    def test_pattern_matching(self):
        store = TripleStore()
        store.add("s1", "p1", "o1")
        store.add("s1", "p2", "o2")
        store.add("s2", "p1", "o1")
        assert len(store.match(None, "p1", None)) == 2
        assert len(store.match("s1", None, None)) == 2
        assert len(store.match(None, None, "o1")) == 2
        assert store.match("s1", "p1", "o1") == [("s1", "p1", "o1")]
        assert len(store.match()) == 3

    def test_duplicate_add_ignored(self):
        store = TripleStore()
        assert store.add("s", "p", "o")
        assert not store.add("s", "p", "o")
        assert len(store) == 1

    def test_discard_and_remove_subject(self):
        store = TripleStore()
        store.add("s", "p", "o")
        store.add("s", "q", "o2")
        assert store.discard("s", "p", "o")
        assert not store.discard("s", "p", "o")
        assert store.remove_subject("s") == 1
        assert len(store) == 0

    def test_run_triples_contain_lineage_edges(self, captured_run):
        workflow, run = captured_run
        triples = run_to_triples(run)
        predicates = {p for _, p, _ in triples}
        assert "prov:used" in predicates
        assert "prov:wasGeneratedBy" in predicates

    def test_triple_count_scales_with_run(self, captured_run):
        _, run = captured_run
        store = TripleProvenanceStore()
        store.save_run(run)
        assert len(store.triples) > 50
        store.delete_run(run.id)
        assert len(store.triples) == 0


class TestDocumentStoreSpecifics:
    def test_files_on_disk(self, tmp_path, captured_run):
        _, run = captured_run
        store = DocumentStore(tmp_path / "d")
        store.save_run(run)
        assert (tmp_path / "d" / "runs" / f"{run.id}.json").exists()

    def test_values_persist_when_enabled(self, tmp_path, captured_run):
        workflow, run = captured_run
        store = DocumentStore(tmp_path / "d", store_values=True)
        store.save_run(run)
        loaded = store.load_run(run.id)
        load = module_by_name(workflow, "load")
        volume = run.artifacts_for_module(load.id, "volume")
        assert np.array_equal(loaded.values[volume.id],
                              run.values[volume.id])


class TestArtifactValueStores:
    def test_memory_put_get(self):
        store = ArtifactValueStore()
        value_hash = store.put({"x": [1, 2]})
        assert store.get(value_hash) == {"x": [1, 2]}
        assert store.has(value_hash)
        assert len(store) == 1

    def test_memory_idempotent(self):
        store = ArtifactValueStore()
        first = store.put("same")
        second = store.put("same")
        assert first == second
        assert len(store) == 1

    def test_file_store_roundtrip(self, tmp_path):
        store = FileArtifactValueStore(tmp_path / "vals")
        array = np.arange(10.0)
        value_hash = store.put(array)
        assert np.array_equal(store.get(value_hash), array)
        assert store.has(value_hash)
        assert len(store) == 1

    def test_file_store_discard(self, tmp_path):
        store = FileArtifactValueStore(tmp_path / "vals")
        value_hash = store.put("x")
        assert store.discard(value_hash)
        assert not store.discard(value_hash)
        with pytest.raises(KeyError):
            store.get(value_hash)

    def test_file_store_hashes_parity_with_memory(self, tmp_path):
        memory = ArtifactValueStore()
        disk = FileArtifactValueStore(tmp_path / "vals")
        for value in ("alpha", [1, 2, 3], {"k": 9}, 3.5):
            assert memory.put(value) == disk.put(value)
        assert list(disk.hashes()) == list(memory.hashes())
        assert len(disk) == len(memory) == 4
        first = next(iter(memory.hashes()))
        disk.discard(first)
        memory.discard(first)
        assert list(disk.hashes()) == list(memory.hashes())
