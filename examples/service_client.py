"""Provenance as a service: a shared store behind `repro serve`.

One long-lived server owns a sharded provenance store; every tool in the
lab talks to it over a local socket instead of opening the database
files directly.  This example starts the server in-process (the CLI
equivalent is ``python -m repro serve --root ./prov --shards 4``), then
plays three clients:

* an *ingesting* client that streams a captured workflow run in batches
  (each batch is acknowledged only once it is durable on its shard);
* an *observing* client that records a shell command as an
  observed-process run, straight into the service;
* a *querying* client that runs declarative selects and lineage walks
  over everything the other two wrote.

Run with:  python examples/service_client.py
"""

import tempfile

from repro.core import ProvenanceCapture
from repro.service import (ProvenanceClient, ProvenanceService,
                           ShardedProvenanceStore)
from repro.storage import ProvQuery
from repro.workflow import Executor
from repro.workflow.modules import standard_registry
from repro.workflow.modules.observed import ObservedProcessSession
from repro.workloads import build_vis_workflow

root = tempfile.mkdtemp(prefix="repro-service-")
store = ShardedProvenanceStore.open(root, shards=4)
server = ProvenanceService(store, close_store=True).start()
address = f"{server.host}:{server.port}"
print(f"=== Serving {root} (4 shards) on {address} ===")

# --- client 1: stream a captured run into the service --------------------
registry = standard_registry()
capture = ProvenanceCapture(registry=registry, keep_values=False)
Executor(registry, listeners=[capture]).execute(
    build_vis_workflow(size=16, level=90.0))
run = capture.last_run()

ingest = ProvenanceClient(server.host, server.port)
writer = ingest.save_run_stream(run)
for artifact in run.artifacts.values():
    writer.add_artifact(artifact)
for index, execution in enumerate(run.executions, 1):
    writer.add_execution(execution)
    if index % 2 == 0:
        writer.flush()  # ack = this batch is durable on its shard
writer.finish(status=run.status, finished=run.finished, tags=run.tags)
print(f"streamed run {run.id} "
      f"({len(run.executions)} executions) to shard "
      f"{store.shard_index(run.id)}")
ingest.close()

# --- client 2: observe a shell command straight into the service ---------
with ProvenanceClient.connect(address) as observer:
    session = ObservedProcessSession(name="example", store=observer,
                                     stream_batch=1)
    session.observe(["python", "-c", "print('hello from a tool')"])
    observed = session.finish()
    print(f"observed run {observed.id}: "
          f"{observed.executions[0].module_name} -> {observed.status}")

# --- client 3: query everything the others wrote -------------------------
with ProvenanceClient.connect(address) as query:
    print(f"\n=== {len(query.list_runs())} runs on the server ===")
    for summary in query.list_runs():
        print(f"  {summary.run_id}  [{summary.status}] "
              f"{summary.workflow_name}")

    rows = query.select(ProvQuery.executions()
                        .where(run_id=run.id, status="ok")
                        .order_by("started")
                        .project("module_name", "id")).all()
    print(f"\n=== {len(rows)} ok executions in the streamed run ===")
    for row in rows:
        print(f"  {row['module_name']:12s} {row['id']}")

    # a data product derived from inputs, not a source's unconsumed output
    product = next(artifact for artifact in run.final_artifacts()
                   if run.execution(artifact.created_by).inputs)
    upstream = query.lineage_closure(product.value_hash, direction="up")
    print(f"\nfinal artifact {product.id} derives from "
          f"{len(upstream) - 1} upstream values (cross-shard walk)")

    print("\nserver counters:", query.stats()["counters"])

server.close()
print("server closed.")
