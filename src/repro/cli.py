"""Command-line interface: inspect and demonstrate the system.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro demo            # run the Figure 1 pipeline, print report
    python -m repro demo --workers 4        # same, parallel scheduler
    python -m repro demo --workers 4 --backend process
                                    # same, process-pool scheduler (CPU-bound)
    python -m repro recipe          # print the Figure 1 prospective recipe
    python -m repro challenge       # run the First Provenance Challenge
    python -m repro challenge2      # run the Second (multi-system) Challenge
    python -m repro modules         # list every registered module type
    python -m repro query "COUNT EXECUTIONS"   # ProvQL against a demo run
    python -m repro runs --demo 4 --status ok --sort=-started --limit 3
                                    # ProvQuery select over stored runs
    python -m repro rerun --level 55 --workers 4
                                    # provenance-driven partial re-execution
    python -m repro rerun --chain 3 # replay-of-replay: record a 3-deep
                                    # derived_from_run chain and print it
    python -m repro lineage --demo 3           # cross-run ancestry of a
                                    # demo product, from the lineage index
    python -m repro lineage <hash> --down --depth 2
    python -m repro fsck prov.db --cache cache.db --repair
                                    # detect & repair crash damage
    python -m repro fsck prov.db --resume run.json
                                    # finish an interrupted ingest
    python -m repro lint --examples # static-analyze the example workflows
    python -m repro lint --store prov.db --run <id> --format json
                                    # lint stored provenance + conformance
    python -m repro serve --root ./prov --shards 4 --port 7643
                                    # share the store with many clients
    python -m repro observe --server 127.0.0.1:7643 -- make all
    python -m repro runs --server 127.0.0.1:7643 --demo 2
    python -m repro lineage --server 127.0.0.1:7643 --demo 2
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.analytics import run_report
    from repro.core import ProvenanceManager
    from repro.workloads import build_vis_workflow
    retry = None
    if args.retries > 1 or args.module_timeout > 0:
        from repro.workflow.faults import RetryPolicy
        retry = RetryPolicy(max_attempts=max(1, args.retries),
                            timeout=args.module_timeout or None)
    manager = ProvenanceManager(workers=args.workers, backend=args.backend,
                                cache_path=args.cache or None,
                                cache_max_bytes=args.cache_max_bytes
                                or None,
                                capture_queue=args.capture_queue,
                                capture_policy=args.capture_policy,
                                retry=retry)
    run = manager.run(build_vis_workflow(size=args.size))
    manager.close()
    print(run_report(run))
    return 0 if run.status == "ok" else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ProvenanceService, ShardedProvenanceStore
    store = ShardedProvenanceStore.open(
        args.root, shards=args.shards, store_values=args.store_values,
        scatter_workers=args.shards)
    service = ProvenanceService(store, host=args.host, port=args.port,
                                read_pool=args.read_pool,
                                close_store=True)
    print(f"serving {args.root} ({args.shards} shard(s)) "
          f"on {service.host}:{service.port}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    from repro.workflow.modules.observed import ObservedProcessSession
    store = None
    if args.server:
        from repro.service import ProvenanceClient
        store = ProvenanceClient.connect(args.server)
    elif args.store:
        from repro.storage.relational import RelationalStore
        store = RelationalStore(args.store)
    session = ObservedProcessSession(
        name=args.name, store=store,
        stream_batch=args.stream_batch or None)
    execution = session.observe(args.argv, reads=args.read,
                                writes=args.write)
    run = session.finish()
    print(f"observed run {run.id}: {execution.module_name} "
          f"-> {execution.status}"
          + (f" ({execution.error})" if execution.error else ""))
    for binding in (*execution.inputs, *execution.outputs):
        artifact = run.artifacts[binding.artifact_id]
        print(f"  {binding.port:24s} {artifact.value_hash[:16]} "
              f"({artifact.size_hint} bytes)")
    if store is not None:
        print(f"saved to {args.server or args.store}")
        store.close()
    return 0 if run.status == "ok" else 1


def _cmd_rerun(args: argparse.Namespace) -> int:
    from repro.core import ProvenanceManager
    from repro.workloads import build_vis_workflow
    manager = ProvenanceManager(workers=args.workers, backend=args.backend)
    workflow = build_vis_workflow(size=args.size)
    original = manager.run(workflow)
    print(f"original run {original.id}: "
          f"{len(original.executions)} modules executed")
    iso = next(module for module in workflow.modules.values()
               if module.name == "iso")
    new_run, plan = manager.rerun(
        original.id,
        parameter_overrides={iso.id: {"level": args.level}})
    print(plan.summary())
    for module_id in plan.stale:
        print(f"  re-execute {workflow.modules[module_id].name:12s} "
              f"({plan.reasons[module_id]})")
    statuses = {}
    for execution in new_run.executions:
        statuses[execution.status] = statuses.get(execution.status, 0) + 1
    rendered = ", ".join(f"{count} {status}"
                         for status, count in sorted(statuses.items()))
    print(f"replay run {new_run.id}: {rendered}")
    # replay-of-replay: each further rerun replays the previous rerun,
    # extending the derived_from_run chain in the lineage index
    for _ in range(max(0, args.chain - 1)):
        new_run, _ = manager.rerun(new_run.id)
    if args.chain > 1:
        chain = manager.lineage(new_run.id)
        hops = " <- ".join(row["id"] for row in chain + [
            {"id": new_run.id}])
        print(f"replay chain ({len(chain)} derived_from_run hops): {hops}")
    return 0 if new_run.status == "ok" else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json
    from repro.storage.fsck import fsck_cache, fsck_store, resume_run
    store = None
    if args.path:
        if args.store_backend == "documents":
            from repro.storage.documents import DocumentStore
            store = DocumentStore(args.path)
        else:
            from repro.storage.relational import RelationalStore
            store = RelationalStore(args.path)
    issues = []
    if store is not None and args.resume:
        from repro.core.retrospective import WorkflowRun
        with open(args.resume) as handle:
            run = WorkflowRun.from_dict(json.load(handle))
        run_id = resume_run(store, run)
        print(f"resumed run {run_id}: ingest completed "
              f"({len(run.executions)} executions stored)")
    if store is not None:
        issues.extend(fsck_store(store, repair=args.repair))
    if args.cache:
        issues.extend(fsck_cache(args.cache, repair=args.repair))
    for issue in issues:
        print(issue)
    if not issues:
        print("clean: no issues found")
    return 1 if any(not issue.repaired for issue in issues) else 0


def _example_workflows():
    """The built-in example workflows, name -> Workflow."""
    from repro.workloads import (build_enviro_workflow, build_fig2_pair,
                                 build_fmri_workflow, build_genomics_workflow,
                                 build_vis_workflow, chain_workflow,
                                 wide_workflow)
    fig2_before, fig2_after = build_fig2_pair()
    return {
        "figure1-visualization": build_vis_workflow(),
        "figure2-before": fig2_before,
        "figure2-after": fig2_after,
        "fmri-challenge": build_fmri_workflow(),
        "genomics": build_genomics_workflow(),
        "environmental": build_enviro_workflow(),
        "chain": chain_workflow(6),
        "wide": wide_workflow(),
    }


def _lint_open_store(args: argparse.Namespace):
    """The store named by --store/--server (None when neither given)."""
    if args.server:
        from repro.service import ProvenanceClient
        return ProvenanceClient.connect(args.server)
    if not args.store:
        return None
    if args.store_backend == "documents":
        from repro.storage.documents import DocumentStore
        return DocumentStore(args.store)
    if args.store_backend == "sharded":
        from repro.service import ShardedProvenanceStore
        return ShardedProvenanceStore.open(args.store, shards=args.shards)
    from repro.storage.relational import RelationalStore
    return RelationalStore(args.store)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: workflows, stored provenance, conformance.

    Exit codes are lint-style: 0 clean, 1 findings reported, 2 usage or
    load error.
    """
    import dataclasses
    import json
    from repro.analysis import (LintConfig, check_conformance, lint_store,
                                lint_workflow, render_json, render_text)
    from repro.storage import StoreError
    from repro.workflow.modules import standard_registry
    from repro.workflow.serialization import load_workflow

    config = LintConfig.from_codes(args.select, args.ignore)
    registry = standard_registry()
    retry = None
    if args.retries > 1 or args.module_timeout > 0:
        from repro.workflow.faults import RetryPolicy
        retry = RetryPolicy(max_attempts=max(1, args.retries),
                            timeout=args.module_timeout or None)
    diagnostics = []
    targets = []
    try:
        for path in args.workflow:
            with open(path) as handle:
                targets.append((path, load_workflow(handle)))
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot load workflow: {error}", file=sys.stderr)
        return 2
    if args.examples:
        targets.extend(_example_workflows().items())
    for name, workflow in targets:
        for diagnostic in lint_workflow(workflow, registry, retry=retry,
                                        backend=args.backend,
                                        config=config):
            if not diagnostic.location:
                diagnostic = dataclasses.replace(
                    diagnostic, location=f"workflow {name}")
            diagnostics.append(diagnostic)
    store = None
    try:
        store = _lint_open_store(args)
    except (StoreError, OSError) as error:
        print(f"cannot open store: {error}", file=sys.stderr)
        return 2
    if args.run and store is None:
        print("--run requires --store or --server", file=sys.stderr)
        return 2
    try:
        if store is not None:
            location = args.server or args.store
            diagnostics.extend(lint_store(store, config=config,
                                          location=location))
            for run_id in args.run:
                try:
                    run = store.load_run(run_id)
                except StoreError as error:
                    print(f"cannot load run: {error}", file=sys.stderr)
                    return 2
                workflow = targets[0][1] if targets else None
                diagnostics.extend(check_conformance(
                    run, workflow=workflow, registry=registry,
                    config=config))
    finally:
        if store is not None and hasattr(store, "close"):
            store.close()
    report = (render_json(diagnostics) if args.format == "json"
              else render_text(diagnostics))
    print(report)
    if args.output:
        payload = report if args.format == "json" else json.dumps(
            {"diagnostics": [d.to_dict() for d in diagnostics]}, indent=2)
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")
    return 1 if diagnostics else 0


def _cmd_recipe(args: argparse.Namespace) -> int:
    from repro.core import ProvenanceManager
    from repro.workloads import build_vis_workflow
    manager = ProvenanceManager()
    print(manager.prospective(build_vis_workflow(size=args.size))
          .describe())
    return 0


def _cmd_challenge(args: argparse.Namespace) -> int:
    from repro.workloads import CHALLENGE_QUERIES, ChallengeSession
    session = ChallengeSession.create(size=args.size)
    results = session.all_queries()
    for name in sorted(CHALLENGE_QUERIES):
        result = results[name]
        size = len(result) if isinstance(result, (list, dict)) else result
        print(f"{name}: {CHALLENGE_QUERIES[name][:60]}... -> {size}")
    return 0


def _cmd_challenge2(args: argparse.Namespace) -> int:
    from repro.interop import cross_system_lineage, run_challenge2
    result = run_challenge2(size=args.size)
    print(f"integrated {result.report.systems} systems, "
          f"{result.report.crossings()} cross-system artifacts, "
          f"{len(result.report.conflicts)} conflicts")
    lineage = cross_system_lineage(result, "atlas-x.graphic")
    systems = sorted({process.split(':')[0]
                      for process in lineage['processes']})
    print(f"lineage of atlas-x.graphic spans: {', '.join(systems)}")
    return 0


def _cmd_modules(args: argparse.Namespace) -> int:
    from repro.workflow.modules import standard_registry
    registry = standard_registry()
    for type_name in registry.type_names():
        definition = registry.get(type_name)
        inputs = ",".join(p.name for p in definition.input_ports)
        outputs = ",".join(p.name for p in definition.output_ports)
        print(f"{type_name:22s} [{definition.category:9s}] "
              f"({inputs}) -> ({outputs})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core import ProvenanceManager
    from repro.analytics import ascii_table
    from repro.workloads import build_vis_workflow
    manager = ProvenanceManager()
    run = manager.run(build_vis_workflow(size=10))
    result = manager.query(args.text, run)
    if isinstance(result, list) and result \
            and isinstance(result[0], dict):
        print(ascii_table(result))
    else:
        print(result)
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.analytics import ascii_table
    from repro.core import ProvenanceManager
    from repro.storage import ProvQuery, QueryError
    from repro.workloads import build_vis_workflow

    manager = ProvenanceManager(store=_server_store(args))
    for index in range(args.demo):
        manager.run(build_vis_workflow(size=8 + 2 * index))
    queries = {
        "runs": ProvQuery.runs(),
        "executions": ProvQuery.executions().project(
            "run_id", "id", "module_type", "status", "started"),
        "artifacts": ProvQuery.artifacts().project(
            "run_id", "id", "type_name", "created_by", "size_hint"),
    }
    query = queries[args.entity]
    try:
        if args.status:
            query = query.where(status=args.status)
        if args.sort:
            query = query.order_by(*args.sort.split(","))
        if args.limit:
            query = query.limit(args.limit)
        rows = manager.select(query.offset(args.offset)).all()
    except QueryError as error:
        print(f"invalid query: {error}", file=sys.stderr)
        return 2
    if rows:
        print(ascii_table(rows))
    print(f"{len(rows)} {args.entity}")
    return 0


def _server_store(args: argparse.Namespace):
    """A ProvenanceClient when ``--server host:port`` was given, else
    None (the manager then uses its default in-memory store)."""
    if not getattr(args, "server", ""):
        return None
    from repro.service import ProvenanceClient
    return ProvenanceClient.connect(args.server)


def _cmd_lineage(args: argparse.Namespace) -> int:
    from repro.analytics import ascii_table
    from repro.core import ProvenanceManager
    from repro.workloads import build_vis_workflow

    manager = ProvenanceManager(store=_server_store(args))
    last = None
    for _ in range(args.demo):
        # identical parameters on purpose: repeated runs share content
        # hashes, which is exactly what cross-run lineage joins on
        last = manager.run(build_vis_workflow(size=args.size))
    key = args.key
    if not key:
        if last is None:
            print("no key given and --demo 0: nothing to trace",
                  file=sys.stderr)
            return 2
        if args.down:
            # descendants demo: start from a produced artifact that some
            # later stage actually consumed
            consumed = {binding.artifact_id
                        for execution in last.executions
                        for binding in execution.inputs}
            key = next(
                (last.artifacts[binding.artifact_id].value_hash
                 for execution in last.executions
                 for binding in execution.outputs
                 if binding.artifact_id in consumed),
                last.final_artifacts()[0].value_hash)
        else:
            # ancestry demo: a data product some stage derived from its
            # inputs (ids are time-ordered, so the first final artifact is
            # the earliest, which may be a source's unconsumed output)
            products = last.final_artifacts()
            key = next((artifact.value_hash for artifact in products
                        if last.execution(artifact.created_by).inputs),
                       products[0].value_hash)
    direction = "down" if args.down else "up"
    rows = manager.lineage(key, direction=direction,
                           max_depth=args.depth or None)
    if rows and "value_hash" not in rows[0]:
        # run-chain rows (the key named a stored run)
        shown = [{"run_id": row["id"], "workflow": row["workflow_name"],
                  "status": row["status"]} for row in rows]
        print(ascii_table(shown))
        arrow = ("derived from" if direction == "up"
                 else "derived into")
        print(f"{key} {arrow} a replay chain of {len(rows)} runs")
        return 0
    shown = [{"run_id": row["run_id"], "id": row["id"],
              "type": row["type_name"],
              "value_hash": row["value_hash"][:16]} for row in rows]
    if shown:
        print(ascii_table(shown))
    arrow = "derived from" if direction == "up" else "derived into"
    print(f"{key[:16]}... {arrow} {len(rows)} artifacts "
          f"across {len({row['run_id'] for row in rows})} runs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="provenance-enabled scientific workflow system "
                    "(Davidson & Freire, SIGMOD 2008)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="run the Figure 1 pipeline and print its "
                     "retrospective provenance")
    demo.add_argument("--size", type=int, default=16,
                      help="volume edge length")
    demo.add_argument("--workers", type=int, default=None,
                      help="scheduler parallelism (default: serial)")
    demo.add_argument("--backend", choices=["serial", "thread", "process"],
                      default=None,
                      help="worker pool kind: threads (default) for "
                           "blocking work, processes for CPU-bound "
                           "modules")
    demo.add_argument("--cache", default="",
                      help="path of a persistent result-cache database; "
                           "repeated demos then reuse results across "
                           "process restarts")
    demo.add_argument("--cache-max-bytes", type=int, default=0,
                      help="total payload-byte budget for the result "
                           "cache (LRU eviction past it; 0 = unbounded)")
    demo.add_argument("--capture-queue", type=int, default=0,
                      help="batched-capture queue size (0 = synchronous "
                           "capture on the engine thread)")
    demo.add_argument("--capture-policy",
                      choices=["block", "drop-detail", "sample"],
                      default="block",
                      help="back-pressure policy when the capture queue "
                           "fills (drop-detail/sample thin journal "
                           "detail only; executions are never lost)")
    demo.add_argument("--retries", type=int, default=1,
                      help="attempts per module (1 = no retry); failed "
                           "attempts are recorded in provenance")
    demo.add_argument("--module-timeout", type=float, default=0.0,
                      help="per-module attempt timeout in seconds "
                           "(0 = unlimited); deadline-killed on the "
                           "process backend, cooperative elsewhere")
    demo.set_defaults(handler=_cmd_demo)

    serve = subparsers.add_parser(
        "serve", help="serve a sharded provenance store to concurrent "
                      "clients over a local socket")
    serve.add_argument("--root", required=True,
                       help="directory of the sharded store "
                            "(<root>/shard-NN.db; created if missing)")
    serve.add_argument("--shards", type=int, default=4,
                       help="shard count (must match an existing root)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind")
    serve.add_argument("--port", type=int, default=7643,
                       help="port to bind (0 = ephemeral)")
    serve.add_argument("--read-pool", type=int, default=2,
                       help="pooled read-only shard connections serving "
                            "queries concurrently with ingest")
    serve.add_argument("--store-values", action="store_true",
                       help="retain pickled artifact values in the shards")
    serve.set_defaults(handler=_cmd_serve)

    observe = subparsers.add_parser(
        "observe", help="run one shell command and record it as an "
                        "observed-process provenance run")
    observe.add_argument("argv", nargs="+",
                         help="command and arguments to observe")
    observe.add_argument("--read", action="append", default=[],
                         metavar="PATH",
                         help="declare a file the command reads "
                              "(repeatable; digested as an input artifact)")
    observe.add_argument("--write", action="append", default=[],
                         metavar="PATH",
                         help="declare a file the command writes "
                              "(repeatable; digested as an output artifact)")
    observe.add_argument("--name", default="cli",
                         help="session name recorded on the run")
    observe.add_argument("--store", default="",
                         help="path of a relational store to save the "
                              "run into")
    observe.add_argument("--stream-batch", type=int, default=0,
                         help="stream executions to the store every N "
                              "commands (0 = one save at the end)")
    observe.add_argument("--server", default="",
                         help="host:port of a running `repro serve`; the "
                              "run is ingested there instead of --store")
    observe.set_defaults(handler=_cmd_observe)

    rerun = subparsers.add_parser(
        "rerun", help="demonstrate provenance-driven partial "
                      "re-execution: run a pipeline, change one "
                      "parameter, re-execute only the stale cone")
    rerun.add_argument("--size", type=int, default=16,
                       help="volume edge length")
    rerun.add_argument("--level", type=float, default=55.0,
                       help="new isosurface level for the replay")
    rerun.add_argument("--workers", type=int, default=None,
                       help="scheduler parallelism (default: serial)")
    rerun.add_argument("--backend", choices=["serial", "thread", "process"],
                       default=None,
                       help="worker pool kind for the replay")
    rerun.add_argument("--chain", type=int, default=1,
                       help="rerun the rerun N-1 more times and print the "
                            "recorded derived_from_run chain")
    rerun.set_defaults(handler=_cmd_rerun)

    fsck = subparsers.add_parser(
        "fsck", help="detect (and repair) crash damage in a provenance "
                     "store and/or a persistent result cache")
    fsck.add_argument("path", nargs="?", default="",
                      help="provenance store path (sqlite file or "
                           "document directory)")
    fsck.add_argument("--store-backend",
                      choices=["relational", "documents"],
                      default="relational",
                      help="which backend the store path holds")
    fsck.add_argument("--cache", default="",
                      help="persistent result-cache database to check "
                           "for torn payloads and expired leases")
    fsck.add_argument("--repair", action="store_true",
                      help="fix what was found: mark partial runs "
                           "interrupted, sweep stale journals, delete "
                           "torn entries")
    fsck.add_argument("--resume", default="",
                      help="JSON export of the interrupted run "
                           "(run.to_dict()); re-attach its stream and "
                           "ingest the missing tail before checking")
    fsck.set_defaults(handler=_cmd_fsck)

    lint = subparsers.add_parser(
        "lint", help="static analysis: lint workflow specs, stored "
                     "provenance, and run-vs-spec conformance "
                     "(exit 0 clean / 1 findings / 2 error)")
    lint.add_argument("--workflow", action="append", default=[],
                      metavar="PATH",
                      help="workflow JSON file to analyze (repeatable)")
    lint.add_argument("--examples", action="store_true",
                      help="lint every built-in example workflow")
    lint.add_argument("--store", default="",
                      help="provenance store path to lint read-only")
    lint.add_argument("--store-backend",
                      choices=["relational", "documents", "sharded"],
                      default="relational",
                      help="which backend the store path holds")
    lint.add_argument("--shards", type=int, default=4,
                      help="shard count for --store-backend sharded")
    lint.add_argument("--server", default="",
                      help="host:port of a running `repro serve`; the "
                           "store is linted over the wire")
    lint.add_argument("--run", action="append", default=[], metavar="ID",
                      help="stored run to conformance-check against its "
                           "recorded spec (or the first --workflow); "
                           "repeatable")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="report format")
    lint.add_argument("--output", default="", metavar="PATH",
                      help="also write the JSON diagnostics to a file "
                           "(for CI artifacts)")
    lint.add_argument("--select", default="",
                      help="comma-separated code prefixes to enable "
                           "(default: all; e.g. E1,W00)")
    lint.add_argument("--ignore", default="",
                      help="comma-separated code prefixes to disable")
    lint.add_argument("--retries", type=int, default=1,
                      help="intended attempts per module; enables the "
                           "retry-policy rules")
    lint.add_argument("--module-timeout", type=float, default=0.0,
                      help="intended per-attempt timeout in seconds; "
                           "enables the timeout-policy rules")
    lint.add_argument("--backend", choices=["serial", "thread", "process"],
                      default=None,
                      help="intended execution backend for the policy "
                           "rules")
    lint.set_defaults(handler=_cmd_lint)

    recipe = subparsers.add_parser(
        "recipe", help="print the Figure 1 prospective recipe")
    recipe.add_argument("--size", type=int, default=16)
    recipe.set_defaults(handler=_cmd_recipe)

    challenge = subparsers.add_parser(
        "challenge", help="run the First Provenance Challenge queries")
    challenge.add_argument("--size", type=int, default=12)
    challenge.set_defaults(handler=_cmd_challenge)

    challenge2 = subparsers.add_parser(
        "challenge2", help="run the multi-system integration challenge")
    challenge2.add_argument("--size", type=int, default=12)
    challenge2.set_defaults(handler=_cmd_challenge2)

    modules = subparsers.add_parser(
        "modules", help="list registered module types")
    modules.set_defaults(handler=_cmd_modules)

    query = subparsers.add_parser(
        "query", help="evaluate a ProvQL query against a demo run")
    query.add_argument("text", help="ProvQL query text")
    query.set_defaults(handler=_cmd_query)

    runs = subparsers.add_parser(
        "runs", help="select stored provenance with the unified query API")
    runs.add_argument("--entity", choices=["runs", "executions",
                                           "artifacts"],
                      default="runs", help="entity kind to list")
    runs.add_argument("--demo", type=int, default=3,
                      help="how many demo runs to execute first")
    runs.add_argument("--status", default="",
                      help="filter by status (runs/executions)")
    runs.add_argument("--sort", default="",
                      help="comma-separated sort keys; use --sort=-field "
                           "for descending")
    runs.add_argument("--limit", type=int, default=0,
                      help="page size (0 = unlimited)")
    runs.add_argument("--offset", type=int, default=0,
                      help="rows to skip")
    runs.add_argument("--server", default="",
                      help="host:port of a running `repro serve`; demo "
                           "runs are ingested there and the select is "
                           "answered by the service")
    runs.set_defaults(handler=_cmd_runs)

    lineage = subparsers.add_parser(
        "lineage", help="trace cross-run ancestry of a value hash (or "
                        "artifact id) through the store's lineage index")
    lineage.add_argument("key", nargs="?", default="",
                         help="value hash or artifact id (default: a "
                              "final product of the last demo run)")
    lineage.add_argument("--demo", type=int, default=3,
                         help="how many demo runs to execute first")
    lineage.add_argument("--size", type=int, default=12,
                         help="demo volume edge length")
    lineage.add_argument("--down", action="store_true",
                         help="trace downstream (descendants) instead of "
                              "upstream (ancestors)")
    lineage.add_argument("--depth", type=int, default=0,
                         help="bound the traversal in derivation hops "
                              "(0 = unbounded)")
    lineage.add_argument("--server", default="",
                         help="host:port of a running `repro serve`; the "
                              "closure is answered by the service")
    lineage.set_defaults(handler=_cmd_lineage)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
