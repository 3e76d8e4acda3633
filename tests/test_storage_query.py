"""Unified query API: cross-backend parity, pushdown, pagination, ingest.

Every ProvQuery shape in the catalog below is evaluated three ways —
natively by each of the four backends, by the generic fallback
(``ProvenanceStore.select``, the correctness oracle) on the same backend,
and cross-backend against the in-memory reference — and all must return
identical rows, including sort order and pagination boundaries.
"""

import json

import pytest

from repro.core import Annotation, ProvenanceCapture, ProvenanceManager
from repro.storage import (DocumentStore, MemoryStore, ProvQuery,
                           ProvenanceStore, QueryError, RelationalStore,
                           ResultCursor, StoreError, TripleProvenanceStore)
from repro.service import ShardedProvenanceStore
from repro.workflow import Executor
from repro.workloads import clone_run
from tests.conftest import build_fig1_workflow

#: "sharded" is the service layer's run-id-hash partitioned store (three
#: relational shards); it must satisfy the whole contract, so it joins
#: every parametrized parity case unchanged.
BACKENDS = ["memory", "relational", "triples", "documents", "sharded"]


@pytest.fixture(scope="module")
def corpus(registry):
    """Six runs with varied workflow, status, timing and parameters."""
    capture = ProvenanceCapture(registry=registry, keep_values=False)
    executor = Executor(registry, listeners=[capture])
    executor.execute(build_fig1_workflow(size=8, level=90.0))
    base = capture.last_run()
    runs = [base]
    runs.append(clone_run(base, "c1", status="failed"))
    runs.append(clone_run(base, "c2", workflow_id="wf-other",
                          workflow_name="other-flow",
                          started=base.started + 10,
                          finished=base.finished + 11))
    runs.append(clone_run(base, "c3", started=base.started - 10,
                          finished=base.finished - 9))
    runs.append(clone_run(base, "c4", status="failed",
                          workflow_id="wf-other",
                          workflow_name="other-flow"))
    runs.append(clone_run(base, "c5", started=base.started + 20,
                          finished=base.finished + 25))
    return runs


ANNOTATIONS = [
    Annotation(id="ann-1", target_kind="run", target_id="r1", key="grade",
               value={"score": 9}, author="dana", created=3.0),
    Annotation(id="ann-2", target_kind="run", target_id="r2", key="grade",
               value={"score": 4}, author="lee", created=1.0),
    Annotation(id="ann-3", target_kind="artifact", target_id="a1",
               key="note", value="suspicious", author="dana", created=2.0),
]


def make_store(name, tmp_path, corpus):
    store = {
        "memory": lambda: MemoryStore(),
        "relational": lambda: RelationalStore(),
        "triples": lambda: TripleProvenanceStore(),
        "documents": lambda: DocumentStore(tmp_path / "docs"),
        "sharded": lambda: ShardedProvenanceStore(
            [RelationalStore() for _ in range(3)]),
    }[name]()
    store.save_runs(corpus)
    for annotation in ANNOTATIONS:
        store.save_annotation(annotation)
    return store


#: (name, query builder) — builders take the corpus for data-driven values.
QUERY_CATALOG = [
    ("runs-all", lambda c: ProvQuery.runs()),
    ("runs-status", lambda c: ProvQuery.runs().where(status="ok")),
    ("runs-workflow-desc", lambda c: ProvQuery.runs()
     .where(workflow_id="wf-other").order_by("-started")),
    ("runs-started-ge", lambda c: ProvQuery.runs()
     .where_op("started", "ge", c[0].started)),
    ("runs-name-contains", lambda c: ProvQuery.runs()
     .where_op("workflow_name", "contains", "other")),
    ("runs-status-in-window", lambda c: ProvQuery.runs()
     .where_op("status", "in", ["ok", "failed"]).limit(3).offset(1)),
    ("runs-projected", lambda c: ProvQuery.runs().project("id", "status")),
    ("runs-multi-filter", lambda c: ProvQuery.runs()
     .where(status="failed", workflow_id="wf-other")),
    ("runs-none-match", lambda c: ProvQuery.runs().where(status="nope")),
    ("runs-limit-zero", lambda c: ProvQuery.runs().limit(0)),
    ("execs-by-type", lambda c: ProvQuery.executions()
     .where(module_type="IsosurfaceExtract")),
    ("execs-param", lambda c: ProvQuery.executions()
     .where(param__level=90.0)),
    ("execs-param-miss", lambda c: ProvQuery.executions()
     .where(param__level=1.25)),
    ("execs-in-paged", lambda c: ProvQuery.executions()
     .where_op("status", "in", ["ok"]).order_by("-started").page(2, 4)),
    ("execs-sort-type", lambda c: ProvQuery.executions()
     .order_by("-module_type", "run_id")),
    ("execs-run-scoped", lambda c: ProvQuery.executions()
     .where(run_id=c[2].id)),
    ("arts-by-hash", lambda c: ProvQuery.artifacts()
     .where(value_hash=next(iter(c[0].artifacts.values())).value_hash)),
    ("arts-external", lambda c: ProvQuery.artifacts()
     .where(created_by="")),
    ("arts-size-top", lambda c: ProvQuery.artifacts()
     .where_op("size_hint", "gt", 0).order_by("-size_hint", "id")
     .limit(5)),
    ("arts-ne-role", lambda c: ProvQuery.artifacts()
     .where_op("role", "ne", "")),
    ("anns-by-kind", lambda c: ProvQuery.annotations()
     .where(target_kind="run")),
    ("anns-by-author", lambda c: ProvQuery.annotations()
     .where(author="dana").order_by("-created")),
    ("anns-value", lambda c: ProvQuery.annotations()
     .where(value="suspicious")),
    # affinity/semantics edge cases: every backend must agree with the
    # pure-Python oracle, not with its index's coercion rules
    ("runs-in-string", lambda c: ProvQuery.runs()
     .where_op("status", "in", "okfailed")),
    ("runs-started-eq-str", lambda c: ProvQuery.runs()
     .where_op("started", "eq", str(c[0].started))),
    ("runs-name-gt-number", lambda c: ProvQuery.runs()
     .where_op("workflow_name", "gt", 5)),
    ("arts-size-gt-str", lambda c: ProvQuery.artifacts()
     .where_op("size_hint", "gt", "10")),
    ("runs-name-eq-number", lambda c: ProvQuery.runs()
     .where_op("workflow_name", "eq", 1)),
    ("runs-name-ne-number", lambda c: ProvQuery.runs()
     .where_op("workflow_name", "ne", 1)),
    ("runs-status-in-number", lambda c: ProvQuery.runs()
     .where_op("status", "in", ["ok", 1])),
    ("runs-id-eq-list", lambda c: ProvQuery.runs()
     .where_op("id", "eq", ["x"])),
    ("runs-id-in-mixed", lambda c: ProvQuery.runs()
     .where_op("id", "in", [c[0].id, ["y"]])),
    ("runs-id-in-huge", lambda c: ProvQuery.runs()
     .where_op("id", "in",
               [c[0].id] + [f"bogus-{i}" for i in range(2000)])),
    # lineage operators: transitive ancestry joined across runs on shared
    # content hashes, answered from each backend's lineage index (the
    # relational path is a single recursive CTE) — never by loading runs
    ("lineage-upstream", lambda c: ProvQuery.artifacts()
     .upstream_of(_final_hash(c))),
    ("lineage-upstream-depth1", lambda c: ProvQuery.artifacts()
     .upstream_of(_final_hash(c), max_depth=1)),
    ("lineage-downstream", lambda c: ProvQuery.artifacts()
     .downstream_of(_volume_hash(c))),
    ("lineage-downstream-depth2", lambda c: ProvQuery.artifacts()
     .downstream_of(_volume_hash(c), max_depth=2)),
    ("lineage-artifact-id-seed", lambda c: ProvQuery.artifacts()
     .upstream_of(_final_id(c[2]))),
    ("lineage-run-scoped", lambda c: ProvQuery.artifacts()
     .downstream_of(_volume_hash(c), within_runs=[c[0].id, c[2].id])),
    ("lineage-run-scoped-empty", lambda c: ProvQuery.artifacts()
     .downstream_of(_volume_hash(c), within_runs=[])),
    ("lineage-unknown-seed", lambda c: ProvQuery.artifacts()
     .upstream_of("no-such-hash-or-id")),
    ("lineage-run-node-miss", lambda c: ProvQuery.artifacts()
     .upstream_of("run:absent-run")),
    ("lineage-composed", lambda c: ProvQuery.artifacts()
     .upstream_of(_final_hash(c)).where(run_id=c[1].id)
     .order_by("-size_hint", "id").limit(3)),
    ("lineage-projected-paged", lambda c: ProvQuery.artifacts()
     .downstream_of(_volume_hash(c)).order_by("run_id", "id")
     .project("run_id", "id", "value_hash").page(2, 4)),
]


def _final_hash(corpus):
    """Hash of a *derived* final product of the base run (shared by every
    clone) — one whose creating execution consumed inputs, so it has a
    non-empty ancestry."""
    run = corpus[0]
    for artifact in run.final_artifacts():
        if run.execution(artifact.created_by).inputs:
            return artifact.value_hash
    raise AssertionError("corpus has no derived final artifact")


def _final_id(run):
    """Id of a derived final product of ``run``: ids are time-ordered, so
    ``final_artifacts()[0]`` is always the earliest product, which in the
    Figure 1 run has no ancestry at all."""
    for artifact in run.final_artifacts():
        if run.execution(artifact.created_by).inputs:
            return artifact.id
    raise AssertionError(f"run {run.id} has no derived final artifact")


def _volume_hash(corpus):
    """Hash of the consumed volume artifact (an upstream interior node)."""
    run = corpus[0]
    return run.artifacts[run.executions[1].inputs[0].artifact_id].value_hash


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,build",
                         QUERY_CATALOG, ids=[n for n, _ in QUERY_CATALOG])
class TestSelectParity:
    def test_native_matches_generic_and_reference(self, backend, name,
                                                  build, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        reference = make_store("memory", tmp_path, corpus)
        query = build(corpus)
        native = store.select(query).all()
        oracle = ProvenanceStore.select(store, query).all()
        assert native == oracle, "native pushdown diverges from fallback"
        assert native == reference.select(query).all(), \
            "backend diverges from in-memory reference"


@pytest.mark.parametrize("backend", BACKENDS)
class TestPagination:
    def test_pages_partition_full_result(self, backend, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        base = ProvQuery.executions().where(status="ok")
        everything = store.select(base).all()
        assert everything
        for size in (1, 3, 4, len(everything), len(everything) + 5):
            paged = []
            page_number = 1
            while True:
                batch = store.select(base.page(page_number, size)).all()
                if not batch:
                    break
                assert len(batch) <= size
                paged.extend(batch)
                page_number += 1
            assert paged == everything

    def test_offset_beyond_end_is_empty(self, backend, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        assert store.select(ProvQuery.runs().offset(10_000)).all() == []


@pytest.mark.parametrize("backend", BACKENDS)
class TestBulkIngestAndExists:
    def test_save_runs_roundtrip(self, backend, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        assert len(store.list_runs()) == len(corpus)
        loaded = store.load_run(corpus[1].id)
        assert loaded.status == "failed"
        assert len(loaded.executions) == len(corpus[1].executions)

    def test_save_runs_overwrites(self, backend, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        assert store.save_runs(corpus[:2]) == 2
        assert len(store.list_runs()) == len(corpus)

    def test_has_run_without_load(self, backend, tmp_path, corpus,
                                  monkeypatch):
        store = make_store(backend, tmp_path, corpus)
        monkeypatch.setattr(
            store, "load_run",
            lambda run_id: pytest.fail("has_run must not load runs"))
        assert store.has_run(corpus[0].id)
        assert not store.has_run("run-missing")


class TestRelationalPushdown:
    def test_filter_queries_never_call_load_run(self, tmp_path, corpus,
                                                monkeypatch):
        store = make_store("relational", tmp_path, corpus)
        monkeypatch.setattr(
            store, "load_run",
            lambda run_id: pytest.fail("select must not call load_run"))
        catalog = [build(corpus) for _, build in QUERY_CATALOG]
        for query in catalog:
            store.select(query).all()

    def test_select_streams_lazily(self, tmp_path, corpus):
        store = make_store("relational", tmp_path, corpus)
        cursor = store.select(ProvQuery.executions())
        first_two = cursor.fetchmany(2)
        assert len(first_two) == 2
        assert cursor.consumed == 2
        rest = cursor.all()
        assert first_two + rest == \
            store.select(ProvQuery.executions()).all()


class TestDocumentSidecarIndex:
    def test_select_does_not_reparse_indexed_docs(self, tmp_path, corpus,
                                                  monkeypatch):
        store = make_store("documents", tmp_path, corpus)
        store.select(ProvQuery.runs()).all()  # index warm
        import repro.storage.documents as documents_module
        monkeypatch.setattr(
            documents_module.WorkflowRun, "from_dict",
            classmethod(lambda cls, data: pytest.fail(
                "select must answer from the sidecar index")))
        rows = store.select(ProvQuery.runs().where(status="ok")).all()
        assert rows

    def test_write_behind_index_survives_process_boundary(self, tmp_path,
                                                          corpus):
        # one-at-a-time saves defer the index write; a later query (or
        # close) flushes it, and a stale on-disk index self-heals anyway
        store = DocumentStore(tmp_path / "wb")
        for run in corpus[:2]:
            store.save_run(run)
        assert len(store.select(ProvQuery.runs()).all()) == 2
        reopened = DocumentStore(tmp_path / "wb")
        assert len(reopened.select(ProvQuery.runs()).all()) == 2
        assert reopened.load_run(corpus[0].id).id == corpus[0].id

    def test_index_rows_match_json_roundtrip(self, tmp_path, corpus):
        # a tuple parameter persists as a JSON list; the cached index rows
        # must reflect the persisted form, same as the oracle and a reopen
        run = clone_run(corpus[0], "tup")
        run.executions[0].parameters["shape"] = (4, 5)
        store = DocumentStore(tmp_path / "tup")
        store.save_run(run)
        query = ProvQuery.executions().where(param__shape=[4, 5])
        native = store.select(query).all()
        assert native == ProvenanceStore.select(store, query).all()
        assert len(native) == 1
        reopened = DocumentStore(tmp_path / "tup")
        assert reopened.select(query).all() == native

    def test_read_only_store_still_answers_queries(self, tmp_path,
                                                   corpus):
        import os
        import shutil
        store = make_store("documents", tmp_path, corpus)
        store.select(ProvQuery.runs()).all()
        # simulate an archived store: drop the index, freeze the tree
        (store.root / "index" / "summaries.json").unlink()
        for dirpath, _, _ in os.walk(store.root):
            os.chmod(dirpath, 0o555)
        try:
            frozen = DocumentStore(store.root)
            rows = frozen.select(
                ProvQuery.runs().where(status="ok")).all()
            assert rows  # heals in memory; flush degrades to no-op
            assert len(frozen.list_runs()) == len(corpus)
        finally:
            for dirpath, _, _ in os.walk(store.root):
                os.chmod(dirpath, 0o755)

    def test_corrupt_index_self_heals(self, tmp_path, corpus):
        store = make_store("documents", tmp_path, corpus)
        index_path = store.root / "index" / "summaries.json"
        for garbage in ("[]", "not json", '{"bad-entry": 42}'):
            index_path.write_text(garbage)
            healed = DocumentStore(tmp_path / "docs")
            rows = healed.select(ProvQuery.runs()).all()
            assert len(rows) == len(corpus)

    def test_index_detects_external_rewrite(self, tmp_path, corpus):
        store = make_store("documents", tmp_path, corpus)
        store.select(ProvQuery.runs()).all()
        path = store.root / "runs" / f"{corpus[0].id}.json"
        data = json.loads(path.read_text())
        data["status"] = "failed-externally"
        path.write_text(json.dumps(data, sort_keys=True, indent=1))
        rows = store.select(
            ProvQuery.runs().where(id=corpus[0].id)).all()
        assert rows[0]["status"] == "failed-externally"

    def test_select_rows_do_not_alias_index(self, tmp_path, corpus):
        store = make_store("documents", tmp_path, corpus)
        row = store.select(ProvQuery.executions()).first()
        row["parameters"]["evil"] = 1
        assert store.select(
            ProvQuery.executions().where(param__evil=1)).all() == []

    def test_fresh_instance_reuses_index(self, tmp_path, corpus,
                                         monkeypatch):
        first = make_store("documents", tmp_path, corpus)
        first.select(ProvQuery.runs()).all()
        again = DocumentStore(tmp_path / "docs")
        import repro.storage.documents as documents_module
        monkeypatch.setattr(
            documents_module.WorkflowRun, "from_dict",
            classmethod(lambda cls, data: pytest.fail(
                "fresh instance should reuse the persisted index")))
        assert len(again.select(ProvQuery.runs()).all()) == len(corpus)


class TestFinderShimsRemoved:
    """The deprecated finder shims are gone; ``select`` is the only door."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finders_are_gone(self, backend, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        for legacy in ("find_runs", "find_artifacts_by_hash",
                       "find_executions"):
            assert not hasattr(store, legacy)


class TestBulkLoadRuns:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_runs_matches_per_run_loads(self, backend, tmp_path,
                                             corpus):
        store = make_store(backend, tmp_path, corpus)
        ids = [summary.run_id for summary in store.list_runs()]
        bulk = store.load_runs(ids)
        assert [run.id for run in bulk] == ids
        for run in bulk:
            single = store.load_run(run.id)
            assert run.to_dict() == single.to_dict()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_runs_defaults_to_everything(self, backend, tmp_path,
                                              corpus):
        store = make_store(backend, tmp_path, corpus)
        assert ([run.id for run in store.load_runs()]
                == [s.run_id for s in store.list_runs()])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_runs_unknown_id_raises(self, backend, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        with pytest.raises(StoreError):
            store.load_runs([corpus[0].id, "run-missing"])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_runs_preserves_request_order(self, backend, tmp_path,
                                               corpus):
        store = make_store(backend, tmp_path, corpus)
        ids = [summary.run_id for summary in store.list_runs()]
        reversed_ids = list(reversed(ids))
        assert ([run.id for run in store.load_runs(reversed_ids)]
                == reversed_ids)


#: lineage query shapes reused by the consistency tests below.
LINEAGE_QUERIES = [name for name, _ in QUERY_CATALOG
                   if name.startswith("lineage-")]


def _lineage_catalog(corpus):
    return [build(corpus) for name, build in QUERY_CATALOG
            if name.startswith("lineage-")]


def _assert_lineage_parity(store, corpus):
    for query in _lineage_catalog(corpus):
        assert store.select(query).all() == \
            ProvenanceStore.select(store, query).all()


@pytest.mark.parametrize("backend", BACKENDS)
class TestLineageIndexConsistency:
    """The edge index must track every mutation path of the store."""

    def test_consistent_after_bulk_ingest(self, backend, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        _assert_lineage_parity(store, corpus)

    def test_consistent_after_resave_without_delete(self, backend,
                                                    tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        store.select(_lineage_catalog(corpus)[0]).all()  # warm any caches
        assert store.save_runs(corpus[:3]) == 3  # overwrite in place
        store.save_run(corpus[4])
        _assert_lineage_parity(store, corpus)

    def test_consistent_after_delete(self, backend, tmp_path, corpus):
        store = make_store(backend, tmp_path, corpus)
        assert store.delete_run(corpus[3].id)
        _assert_lineage_parity(store, corpus)
        store.save_run(corpus[3])  # and after restoring it
        _assert_lineage_parity(store, corpus)

    def test_save_after_warm_query_is_visible(self, backend, tmp_path,
                                              corpus):
        store = make_store(backend, tmp_path, corpus)
        query = ProvQuery.artifacts().upstream_of(_final_hash(corpus))
        before = store.select(query).all()
        extra = clone_run(corpus[0], "warm")
        store.save_run(extra)
        after = store.select(query).all()
        assert len(after) > len(before)
        assert after == ProvenanceStore.select(store, query).all()


@pytest.fixture(scope="module")
def chain_corpus(corpus):
    """Four structurally identical runs forming a 3-hop replay chain.

    ``g1`` replays ``g0``, ``g2`` replays ``g1``, ``g3`` replays ``g2`` —
    exactly the tag trail ``manager.rerun`` leaves behind on
    replay-of-replay, synthesized here so every backend ingests one."""
    generations = [clone_run(corpus[0], "g0")]
    for number in (1, 2, 3):
        generations.append(clone_run(
            corpus[0], f"g{number}",
            tags={"replay_of": generations[-1].id,
                  "derived_from_run": generations[-1].id}))
    return generations


@pytest.mark.parametrize("backend", BACKENDS)
class TestReplayChainLineage:
    """replay chains are lineage-index content on every backend."""

    def test_chain_of_depth_k_yields_k_hops(self, backend, tmp_path,
                                            chain_corpus):
        store = make_store(backend, tmp_path, chain_corpus)
        g0, g1, g2, g3 = [run.id for run in chain_corpus]
        up = store.lineage_closure(f"run:{g3}", direction="up")
        assert up == frozenset({f"run:{g0}", f"run:{g1}", f"run:{g2}"})
        down = store.lineage_closure(f"run:{g0}", direction="down")
        assert down == frozenset({f"run:{g1}", f"run:{g2}", f"run:{g3}"})

    def test_native_closure_matches_generic_oracle(self, backend,
                                                   tmp_path, chain_corpus):
        store = make_store(backend, tmp_path, chain_corpus)
        tip = f"run:{chain_corpus[-1].id}"
        for direction in ("up", "down"):
            for depth in (None, 1, 2):
                native = store.lineage_closure(tip, direction=direction,
                                               max_depth=depth)
                oracle = ProvenanceStore.lineage_closure(
                    store, tip, direction=direction, max_depth=depth)
                assert native == oracle

    def test_depth_bound_counts_run_hops(self, backend, tmp_path,
                                         chain_corpus):
        store = make_store(backend, tmp_path, chain_corpus)
        tip = chain_corpus[-1].id
        assert store.lineage_closure(f"run:{tip}", direction="up",
                                     max_depth=1) == \
            frozenset({f"run:{chain_corpus[-2].id}"})

    def test_deleting_a_generation_breaks_the_chain(self, backend,
                                                    tmp_path,
                                                    chain_corpus):
        store = make_store(backend, tmp_path, chain_corpus)
        g0, g1, g2, g3 = [run.id for run in chain_corpus]
        assert store.delete_run(g2)
        up = store.lineage_closure(f"run:{g3}", direction="up")
        # g3's own edge still names g2 as parent, but the walk cannot
        # continue past the deleted generation's contribution
        assert up == frozenset({f"run:{g2}"})
        store.save_run(chain_corpus[2])
        assert store.lineage_closure(f"run:{g3}", direction="up") == \
            frozenset({f"run:{g0}", f"run:{g1}", f"run:{g2}"})

    def test_run_chain_stays_out_of_artifact_queries(self, backend,
                                                     tmp_path,
                                                     chain_corpus):
        # run-level nodes share the index with hash-level edges but can
        # never leak into artifact ancestry: the namespaces are disjoint
        store = make_store(backend, tmp_path, chain_corpus)
        rows = store.select(ProvQuery.artifacts()
                            .upstream_of(_final_hash(chain_corpus))).all()
        assert rows
        assert all(not row["value_hash"].startswith("run:")
                   for row in rows)

    def test_manager_lineage_returns_run_rows(self, backend, tmp_path,
                                              chain_corpus):
        manager = ProvenanceManager(
            store=make_store(backend, tmp_path, chain_corpus))
        chain = manager.lineage(chain_corpus[-1].id)
        assert [row["id"] for row in chain] == \
            [run.id for run in chain_corpus[:-1]]
        assert all("workflow_name" in row for row in chain)
        derived = manager.lineage(chain_corpus[0].id, direction="down")
        assert [row["id"] for row in derived] == \
            [run.id for run in chain_corpus[1:]]

    def test_provql_lineage_of_run_walks_chain(self, backend, tmp_path,
                                               chain_corpus):
        from repro.query.provql import execute_on_store
        store = make_store(backend, tmp_path, chain_corpus)
        g2 = chain_corpus[2].id
        result = execute_on_store(f"LINEAGE OF '{g2}'", store)
        assert result["run"] == g2
        assert result["derived_from"] == sorted(
            run.id for run in chain_corpus[:2])
        assert result["derives"] == [chain_corpus[3].id]
        assert execute_on_store(f"COUNT LINEAGE OF '{g2}'", store) == 3


class TestRelationalReplayChainPersistence:
    def test_chain_survives_reopen_and_backfill(self, tmp_path,
                                                chain_corpus):
        path = str(tmp_path / "chain.db")
        with RelationalStore(path) as store:
            store.save_runs(chain_corpus)
            expected = store.lineage_closure(
                f"run:{chain_corpus[-1].id}", direction="up")
        assert len(expected) == 3
        reopened = RelationalStore(path)
        assert reopened.lineage_closure(
            f"run:{chain_corpus[-1].id}", direction="up") == expected
        # simulate a pre-chain-index database: edges vanish, backfill
        # reconstructs them (hash edges in SQL, run edges from tags)
        reopened._connection.execute("DELETE FROM lineage")
        reopened._connection.commit()
        reopened.close()
        healed = RelationalStore(path)
        assert healed.lineage_closure(
            f"run:{chain_corpus[-1].id}", direction="up") == expected
        assert healed.select(ProvQuery.artifacts().upstream_of(
            _final_hash(chain_corpus))).all()


class TestRelationalLineagePersistence:
    def test_index_survives_reopen(self, tmp_path, corpus):
        path = str(tmp_path / "lineage.db")
        with RelationalStore(path) as store:
            store.save_runs(corpus)
            expected = store.select(
                ProvQuery.artifacts()
                .upstream_of(_final_hash(corpus))).all()
        reopened = RelationalStore(path)
        _assert_lineage_parity(reopened, corpus)
        assert reopened.select(
            ProvQuery.artifacts()
            .upstream_of(_final_hash(corpus))).all() == expected

    def test_backfill_from_pre_index_database(self, tmp_path, corpus,
                                              monkeypatch):
        # simulate a database written before the lineage table existed
        path = str(tmp_path / "legacy.db")
        store = RelationalStore(path)
        store.save_runs(corpus)
        expected = [ProvenanceStore.select(store, query).all()
                    for query in _lineage_catalog(corpus)]
        store._connection.execute("DELETE FROM lineage")
        store._connection.commit()
        store.close()
        healed = RelationalStore(path)
        monkeypatch.setattr(
            healed, "load_run",
            lambda run_id: pytest.fail("backfill must stay inside SQL"))
        native = [healed.select(query).all()
                  for query in _lineage_catalog(corpus)]
        assert native == expected

    def test_ancestry_without_load_run_single_statement(self, tmp_path,
                                                        corpus,
                                                        monkeypatch):
        store = make_store("relational", tmp_path, corpus)
        monkeypatch.setattr(
            store, "load_run",
            lambda run_id: pytest.fail("ancestry must not load runs"))
        executed = []
        store._connection.set_trace_callback(executed.append)
        try:
            rows = store.select(ProvQuery.artifacts()
                                .upstream_of(_final_hash(corpus))).all()
        finally:
            store._connection.set_trace_callback(None)
        assert rows
        recursive = [sql for sql in executed if "WITH RECURSIVE" in sql]
        assert len(recursive) == 1, \
            "transitive ancestry should be one recursive CTE statement"


class TestDocumentLineageSidecar:
    def test_pre_lineage_index_self_heals(self, tmp_path, corpus):
        store = make_store("documents", tmp_path, corpus)
        store.select(ProvQuery.runs()).all()
        store.close()
        # strip the lineage edges, as an index written by an older
        # version would be
        index_path = store.root / "index" / "summaries.json"
        stale = json.loads(index_path.read_text())
        for entry in stale.values():
            entry.pop("lineage", None)
        index_path.write_text(json.dumps(stale, sort_keys=True))
        healed = DocumentStore(tmp_path / "docs")
        _assert_lineage_parity(healed, corpus)

    def test_lineage_answered_from_sidecar_not_documents(self, tmp_path,
                                                         corpus,
                                                         monkeypatch):
        store = make_store("documents", tmp_path, corpus)
        store.select(ProvQuery.runs()).all()  # index warm
        import repro.storage.documents as documents_module
        monkeypatch.setattr(
            documents_module.WorkflowRun, "from_dict",
            classmethod(lambda cls, data: pytest.fail(
                "lineage must be answered from the sidecar index")))
        rows = store.select(ProvQuery.artifacts()
                            .upstream_of(_final_hash(corpus))).all()
        assert rows


class TestLineageValidation:
    def test_lineage_only_on_artifacts(self):
        with pytest.raises(QueryError):
            ProvQuery.runs().upstream_of("h")
        with pytest.raises(QueryError):
            ProvQuery.executions().downstream_of("h")

    def test_single_clause_per_query(self):
        query = ProvQuery.artifacts().upstream_of("h")
        with pytest.raises(QueryError):
            query.downstream_of("h2")

    def test_bad_clause_arguments(self):
        with pytest.raises(QueryError):
            ProvQuery.artifacts().upstream_of("")
        with pytest.raises(QueryError):
            ProvQuery.artifacts().upstream_of("h", max_depth=0)
        with pytest.raises(QueryError):
            ProvQuery.artifacts().upstream_of("h", max_depth=True)

    def test_clause_is_immutable_refinement(self):
        base = ProvQuery.artifacts()
        refined = base.upstream_of("h", max_depth=2)
        assert base.lineage is None
        assert refined.lineage is not None
        assert refined.lineage.max_depth == 2
        assert "upstream_of" in repr(refined)


class TestManagerLineage:
    def test_manager_lineage_both_directions(self, tmp_path, corpus):
        manager = ProvenanceManager(store=make_store("relational",
                                                     tmp_path, corpus))
        up = manager.lineage(_final_hash(corpus))
        assert up
        assert up == sorted(up, key=lambda r: (r["run_id"], r["id"]))
        down = manager.lineage(_volume_hash(corpus), direction="down",
                               max_depth=1)
        assert down
        with pytest.raises(ValueError):
            manager.lineage("h", direction="sideways")


class TestResultCursor:
    def test_cursor_is_lazy_and_one_shot(self):
        produced = []

        def rows():
            for index in range(10):
                produced.append(index)
                yield {"id": index}

        cursor = ResultCursor(rows(), page_size=3)
        assert cursor.first() == {"id": 0}
        assert produced == [0]
        assert [row["id"] for row in cursor.fetchmany()] == [1, 2, 3]
        pages = list(cursor.pages(4))
        assert [[r["id"] for r in page] for page in pages] == \
            [[4, 5, 6, 7], [8, 9]]
        assert cursor.all() == []
        assert cursor.consumed == 10

    def test_fetchmany_zero_returns_nothing(self):
        cursor = ResultCursor(iter([{"a": 1}, {"a": 2}]))
        assert cursor.fetchmany(0) == []
        assert cursor.consumed == 0
        assert list(cursor.pages(0)) == []
        assert cursor.fetchmany(2) == [{"a": 1}, {"a": 2}]


class TestProvQueryValidation:
    def test_unknown_entity_field_and_op(self):
        with pytest.raises(QueryError):
            ProvQuery("bogus")
        with pytest.raises(QueryError):
            ProvQuery.runs().where(bogus_field=1)
        with pytest.raises(QueryError):
            ProvQuery.runs().where_op("status", "matches", "x")
        with pytest.raises(QueryError):
            ProvQuery.executions().order_by("parameters")
        with pytest.raises(QueryError):
            ProvQuery.executions().order_by("param.level")
        with pytest.raises(QueryError):
            ProvQuery.runs().project("bogus")
        with pytest.raises(QueryError):
            ProvQuery.runs().page(0, 10)
        with pytest.raises(QueryError):
            ProvQuery.runs().offset(-2)
        with pytest.raises(QueryError):
            ProvQuery.runs().limit(-1)

    def test_param_fields_only_on_executions(self):
        ProvQuery.executions().where(param__level=1)
        with pytest.raises(QueryError):
            ProvQuery.runs().where(param__level=1)

    def test_queries_are_immutable(self):
        base = ProvQuery.runs()
        refined = base.where(status="ok").limit(1)
        assert base.filters == ()
        assert base.limit_count is None
        assert refined.limit_count == 1


class TestManagerIntegration:
    def test_last_engine_result_defaults_to_none(self):
        manager = ProvenanceManager()
        assert manager.last_engine_result is None

    def test_manager_select_round_trip(self):
        manager = ProvenanceManager()
        run = manager.run(build_fig1_workflow(size=8))
        assert manager.last_engine_result is not None
        rows = manager.select(
            ProvQuery.runs().where(status="ok").project("id")).all()
        assert rows == [{"id": run.id}]
        executions = manager.select(
            ProvQuery.executions().where(run_id=run.id)).all()
        assert len(executions) == len(run.executions)


class TestStoreLevelQueryLanguages:
    def test_provql_execute_on_store_pushdown(self, tmp_path, corpus,
                                              monkeypatch):
        from repro.query.provql import execute_on_store
        store = make_store("relational", tmp_path, corpus)
        monkeypatch.setattr(
            store, "load_run",
            lambda run_id: pytest.fail("pushdown path must not load runs"))
        rows = execute_on_store(
            "EXECUTIONS WHERE module.type = 'IsosurfaceExtract'"
            " AND param.level = 90.0", store)
        assert len(rows) == len(corpus)
        count = execute_on_store(
            "COUNT ARTIFACTS WHERE external = false", store)
        assert count == sum(len(run.artifacts) for run in corpus)

    def test_provql_store_matches_per_run_union(self, tmp_path, corpus):
        from repro.query.provql import execute, execute_on_store
        store = make_store("relational", tmp_path, corpus)
        store_rows = execute_on_store(
            "EXECUTIONS WHERE status = 'ok'", store)
        merged = []
        for summary in store.list_runs():
            merged.extend(execute("EXECUTIONS WHERE status = 'ok'",
                                  store.load_run(summary.run_id)))
        assert sorted(r["id"] for r in store_rows) == \
            sorted(r["id"] for r in merged)

    def test_provql_store_artifact_rows_resolve_creators(self, tmp_path,
                                                         corpus,
                                                         monkeypatch):
        from repro.query.provql import execute, execute_on_store
        store = make_store("relational", tmp_path, corpus)
        monkeypatch.setattr(
            store, "load_run",
            lambda run_id: pytest.fail("creator resolution must not "
                                       "deserialize runs"))
        store_rows = {row["id"]: row for row in execute_on_store(
            "ARTIFACTS WHERE creator.type = 'IsosurfaceExtract'", store)}
        assert len(store_rows) == len(corpus)
        per_run = execute("ARTIFACTS WHERE creator.type ="
                          " 'IsosurfaceExtract'", corpus[0])
        assert per_run[0]["id"] in store_rows
        assert store_rows[per_run[0]["id"]] == per_run[0]

    def test_provql_creator_resolution_is_run_scoped(self):
        # two runs reuse the execution id 'exec-1' (legal for externally
        # ingested provenance) with different module types; each artifact
        # must resolve its creator within its own run
        from repro.query.provql import execute_on_store
        from repro.core.retrospective import WorkflowRun
        store = MemoryStore()
        for run_no, module_type in (("r1", "Alpha"), ("r2", "Beta")):
            store.save_run(WorkflowRun.from_dict({
                "id": run_no, "workflow_id": f"wf-{run_no}",
                "workflow_name": "ext", "workflow_signature": "s",
                "status": "ok", "started": 1.0, "finished": 2.0,
                "executions": [{
                    "id": "exec-1", "module_id": "m1",
                    "module_type": module_type, "status": "ok",
                    "outputs": [{"port": "out",
                                 "artifact_id": f"art-{run_no}"}],
                }],
                "artifacts": {f"art-{run_no}": {
                    "id": f"art-{run_no}", "value_hash": f"h-{run_no}",
                    "created_by": "exec-1", "role": "out"}},
            }))
        rows = execute_on_store(
            "ARTIFACTS WHERE creator.type = 'Alpha'", store)
        assert [(r["id"], r["creator.type"]) for r in rows] == \
            [("art-r1", "Alpha")]

    def test_provql_numeric_coercion_matches_per_run(self, corpus):
        # ProvQL's ordering ops coerce both sides numerically ('90' > 50
        # matches); the store path must not push them into an index that
        # compares raw types
        from repro.query.provql import execute, execute_on_store
        run = clone_run(corpus[0], "coerce")
        for execution in run.executions:
            if "level" in execution.parameters:
                execution.parameters["level"] = "90"
        store = MemoryStore()
        store.save_run(run)
        text = "EXECUTIONS WHERE param.level > 50"
        per_run = execute(text, run)
        assert per_run, "expected the coerced comparison to match"
        assert [r["id"] for r in execute_on_store(text, store)] == \
            [r["id"] for r in per_run]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_provql_upstream_matches_select_lineage(self, backend,
                                                    tmp_path, corpus):
        from repro.query.provql import execute_on_store
        store = make_store(backend, tmp_path, corpus)
        key = _final_hash(corpus)
        rows = execute_on_store(f"UPSTREAM OF '{key}'", store)
        reference = store.select(
            ProvQuery.artifacts().upstream_of(key)
            .order_by("run_id", "id")).all()
        assert [row["id"] for row in rows] == \
            [row["id"] for row in reference]
        assert rows and all(row["hash"] != key for row in rows)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_provql_downstream_matches_select_lineage(self, backend,
                                                      tmp_path, corpus):
        from repro.query.provql import execute_on_store
        store = make_store(backend, tmp_path, corpus)
        key = _volume_hash(corpus)
        rows = execute_on_store(f"DOWNSTREAM OF '{key}'", store)
        reference = store.select(
            ProvQuery.artifacts().downstream_of(key)
            .order_by("run_id", "id")).all()
        assert [row["id"] for row in rows] == \
            [row["id"] for row in reference]

    def test_provql_lineage_commands_push_down(self, tmp_path, corpus,
                                               monkeypatch):
        from repro.query.provql import execute_on_store
        store = make_store("relational", tmp_path, corpus)
        monkeypatch.setattr(
            store, "load_run",
            lambda run_id: pytest.fail("cross-run lineage must answer "
                                       "from the index"))
        rows = execute_on_store(
            f"UPSTREAM OF '{_final_hash(corpus)}' WHERE size > 0", store)
        assert rows
        lineage = execute_on_store(
            f"LINEAGE OF '{_final_hash(corpus)}'", store)
        assert lineage["artifacts"] and lineage["executions"]
        count = execute_on_store(
            f"COUNT LINEAGE OF '{_final_hash(corpus)}'", store)
        assert count == (len(lineage["artifacts"])
                         + len(lineage["executions"]))

    def test_provql_paths_still_requires_single_run(self, tmp_path,
                                                    corpus):
        from repro.query.provql import ProvQLError, execute_on_store
        store = make_store("memory", tmp_path, corpus)
        with pytest.raises(ProvQLError):
            execute_on_store("PATHS FROM a TO b", store)

    def test_datalog_store_to_facts_filters_runs(self, tmp_path, corpus):
        from repro.query.facts import store_to_facts
        store = make_store("relational", tmp_path, corpus)
        everything = store_to_facts(store)
        failed_only = store_to_facts(
            store, ProvQuery.runs().where(status="failed"))
        failed_run_ids = {fact[1] for fact
                          in failed_only.rows("in_run")}
        assert failed_run_ids == {corpus[1].id, corpus[4].id}
        assert len(everything.rows("in_run")) > \
            len(failed_only.rows("in_run"))

    def test_qbe_find_in_store(self, registry):
        from repro.query.qbe import find_in_store
        from repro.workflow import Module, Workflow
        manager = ProvenanceManager()
        workflow = build_fig1_workflow(size=8)
        manager.run(workflow)
        pattern = Workflow("pattern")
        pattern.add_module(Module("IsosurfaceExtract"))
        assert find_in_store(pattern, manager.store) == [workflow.id]
