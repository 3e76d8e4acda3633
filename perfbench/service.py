"""The ``service_mixed`` workload: reads beside streamed writes, over the wire.

``python -m repro serve --shards 4`` runs as a child process.  Set-up
preloads a derivation-chain corpus (20 chains of 60 runs, 4 steps, 2 side
products each; every 7th run marked failed so the status filter has work).
Then two connections run open loops at fixed rates for the measured
window, both sent from one thread in the order they fall due (so the
client adds no thread switching of its own, and the server handles one
request at a time; a request due while the other is in flight waits, and
the wait counts in its latency):

* connection 1 sends reads in equal thirds: ``select`` of runs with
  ``status=ok`` ordered ``-started`` limit 20; artifacts
  ``upstream_of(<link hash>, max_depth=8)``; and ``load_run``;
* connection 2 streams new runs of a separate chain through
  ``stream_run_to_store(run, client, batch=2)``.

Every request is timed from when it was due.  The open loops fix how many
runs are written per second, so ``runs_per_s`` and ``modules_per_s`` are
what one connection could stream back to back at the window's load: one
over the median time to stream a run, and the median over the window's
runs of executions over streaming time.

Every answer is checked: a lineage result against a reference closure
computed from the corpus itself, a ``select`` against its filter, order
and limit, a ``load_run`` against its execution count, and after the
window every acked run must be listed and reload equal to the record sent.

A traced pass adds spans around the client calls, then measures the wire
overhead on the idle server, and after the server stops runs the same read
mix in process on ``ShardedProvenanceStore.open(root)`` and on a one-shard
copy of the same runs.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core.capture import stream_run_to_store
from repro.service import ProvenanceClient, ShardedProvenanceStore
from repro.storage import ProvQuery
from repro.workloads import derivation_chain_corpus

from perfbench.probes import child_peak_rss_mb, percentile
from perfbench.tracing import Tracer, maybe_request, maybe_span

__all__ = ["ServiceSizes", "service_mixed", "READ_RATE", "WRITE_RATE"]

#: Fixed open-loop rates (requests per second), a little under half of
#: what one reader and one writer connection sustained together on a
#: 2-core host (156 reads/s beside 85 streamed runs/s).  Never derived
#: from a run.
READ_RATE = 64.0
WRITE_RATE = 32.0
#: Writes fall due this share of a write period after the reads' schedule
#: starts: midway between two reads, so that at these rates no write is
#: due at the same moment as a read.
WRITE_PHASE = 0.25
SHARDS = 4
#: Shape of each derivation-chain run: steps and side products per step.
STEPS = 4
SIDES = 2
READ_KINDS = ("select", "lineage", "load_run")
RUNS_QUERY = ProvQuery.runs().where(status="ok").order_by("-started") \
    .limit(20)
LINEAGE_DEPTH = 8


@dataclass(frozen=True)
class ServiceSizes:
    chains: int = 20
    runs_per_chain: int = 60
    #: set-ups timed before and after the window; ``setup_s`` is their
    #: median, so a host that is slower at one end of the run moves it less
    setups: int = 2
    setups_after: int = 1
    idle_reads: int = 150   #: closed-loop reads per kind, traced pass only


# ---------------------------------------------------------------------------
# inputs and the reference model
# ---------------------------------------------------------------------------

def _corpus(seed: int, sizes: ServiceSizes) -> List[Any]:
    runs = []
    for chain in range(sizes.chains):
        runs.extend(derivation_chain_corpus(
            sizes.runs_per_chain, steps=STEPS, sides=SIDES,
            seed=seed * 100 + chain))
    for index, run in enumerate(runs):
        if index % 7 == 3:
            run.status = "failed"
    return runs


def _writes(seed: int, count: int, sizes: ServiceSizes) -> List[Any]:
    return derivation_chain_corpus(count, steps=STEPS, sides=SIDES,
                                   seed=seed * 100 + sizes.chains)


class LineageReference:
    """Reference answers for ``upstream_of`` reads, by breadth-first search
    over the runs' own executions (no store involved)."""

    def __init__(self, runs: List[Any]) -> None:
        self.sources: Dict[str, set] = defaultdict(set)
        self.copies: Dict[str, int] = defaultdict(int)
        for run in runs:
            value = {a.id: a.value_hash for a in run.artifacts.values()}
            for artifact in run.artifacts.values():
                self.copies[artifact.value_hash] += 1
            for execution in run.executions:
                if execution.status not in ("ok", "cached"):
                    continue
                for out in execution.outputs:
                    for inp in execution.inputs:
                        self.sources[value[out.artifact_id]].add(
                            value[inp.artifact_id])

    def upstream_rows(self, key: str, max_depth: int) -> int:
        """How many stored artifacts lie upstream of ``key`` within
        ``max_depth`` hops."""
        seen: set = set()
        frontier = {key}
        for _ in range(max_depth):
            frontier = {source for node in frontier
                        for source in self.sources.get(node, ())} \
                - seen - {key}
            seen |= frontier
        return sum(self.copies[value_hash] for value_hash in seen)


def _read_plan(seed: int, corpus: List[Any], count: int,
               sizes: ServiceSizes) -> List[Tuple[str, Any, Any]]:
    """``count`` reads as (kind, argument, expected answer)."""
    rng = random.Random(seed)
    keys = sorted({f"link-{seed * 100 + chain}-{k:04d}"
                   for chain in range(sizes.chains)
                   for k in range(1, sizes.runs_per_chain + 1)})
    reference = LineageReference(corpus)
    plan = []
    for index in range(count):
        kind = READ_KINDS[index % 3]
        if kind == "select":
            plan.append((kind, None, None))
        elif kind == "lineage":
            key = rng.choice(keys)
            plan.append((kind, key,
                         reference.upstream_rows(key, LINEAGE_DEPTH)))
        else:
            run = rng.choice(corpus)
            plan.append((kind, run.id, len(run.executions)))
    return plan


def _read(store: Any, kind: str, argument: Any) -> Any:
    if kind == "select":
        return store.select(RUNS_QUERY).all()
    if kind == "lineage":
        return store.select(ProvQuery.artifacts().upstream_of(
            argument, max_depth=LINEAGE_DEPTH)).all()
    return store.load_run(argument)


def _read_ok(kind: str, answer: Any, expected: Any) -> bool:
    if kind == "select":
        started = [row["started"] for row in answer]
        return (len(answer) == RUNS_QUERY.limit_count
                and all(row["status"] == "ok" for row in answer)
                and started == sorted(started, reverse=True))
    if kind == "lineage":
        return len(answer) == expected
    return len(answer.executions) == expected


def _reply_bytes(kind: str, answer: Any) -> int:
    """Encoded size of the wire reply carrying ``answer``."""
    result = ({"run": answer.to_dict()} if kind == "load_run"
              else {"rows": answer})
    return len(json.dumps({"id": 1, "ok": True, "result": result},
                          separators=(",", ":"),
                          ensure_ascii=False).encode("utf-8")) + 1


# ---------------------------------------------------------------------------
# the server child
# ---------------------------------------------------------------------------

class Server:
    """``python -m repro serve`` as a child process on a fresh root."""

    def __init__(self, root: Path, shards: int) -> None:
        self.root = root
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root),
             "--shards", str(shards), "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env)
        line = self.process.stdout.readline().strip()
        if not line.startswith("serving"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def client(self) -> ProvenanceClient:
        return ProvenanceClient("127.0.0.1", self.port)

    def peak_rss_mb(self) -> float:
        return child_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ---------------------------------------------------------------------------
# the open loops
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    latencies: List[float]
    service_times: List[float]
    lateness: List[float]
    failed: int
    attempted: int


def _open_loops(t0: float, loops: Sequence[Tuple[float, float, int,
                                                 Callable[[int], bool]]]
                ) -> List[Loop]:
    """For each ``(rate, phase, count, op)`` of ``loops``, send ``op(i)``
    at ``t0 + (i + phase) / rate`` and time it from that moment.

    All sends come from this thread, in the order they fall due.
    """
    schedule = sorted(((index + phase) / rate, which, index)
                      for which, (rate, phase, count, _) in enumerate(loops)
                      for index in range(count))
    results = [Loop([], [], [], 0, 0) for _ in loops]
    for offset, which, index in schedule:
        loop, op = results[which], loops[which][3]
        due = t0 + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        loop.attempted += 1
        try:
            ok = op(index)
        except Exception:
            ok = False
        done = time.perf_counter()
        if not ok:
            loop.failed += 1
        loop.latencies.append(done - due)
        loop.service_times.append(done - sent)
        loop.lateness.append(sent - due)
    return results


def _setup(seed: int, sizes: ServiceSizes, root: Path,
           times: List[float]) -> Tuple[List[Any], Server]:
    """Generate the corpus, start a server on ``root`` and preload it;
    append the time taken to ``times``."""
    started = time.perf_counter()
    corpus = _corpus(seed, sizes)
    server = Server(root, SHARDS)
    try:
        with server.client() as loader:
            loader.save_runs(corpus)
    except BaseException:
        server.stop()
        raise
    times.append(time.perf_counter() - started)
    return corpus, server


def service_mixed(seed: int, seconds: float, workdir: Path, *,
                  traced: bool = False,
                  sizes: ServiceSizes = ServiceSizes(),
                  wrap_client: Optional[Callable] = None) -> Dict[str, Any]:
    """Run the ``service_mixed`` workload; see the module docstring."""
    workdir.mkdir(parents=True, exist_ok=True)
    reads = max(3, int(seconds * READ_RATE))
    writes = max(1, int(seconds * WRITE_RATE))
    setup_times = []
    server = None
    for index in range(sizes.setups):
        if server is not None:
            server.stop()
        corpus, server = _setup(seed, sizes, workdir / f"serve-{index}",
                                setup_times)
    tracer = Tracer() if traced else None
    try:
        out = _measure(seed, seconds, server, corpus, reads, writes, sizes,
                       tracer, wrap_client)
    finally:
        server.stop()
    for index in range(sizes.setups, sizes.setups + sizes.setups_after):
        _setup(seed, sizes, workdir / f"serve-{index}",
               setup_times)[1].stop()
    out["end_to_end"]["setup_s"] = (statistics.median(setup_times), "s")
    acked, plan = out.pop("acked_runs"), out.pop("plan")
    if tracer is not None:
        out["layers"].update(_in_process(server.root, workdir, corpus,
                                         acked, plan, out, sizes, tracer))
        out["tracers"] = [tracer]
    return out


def _measure(seed: int, seconds: float, server: Server, corpus: List[Any],
             reads: int, writes: int, sizes: ServiceSizes,
             tracer: Optional[Tracer],
             wrap_client: Optional[Callable]) -> Dict[str, Any]:
    plan = _read_plan(seed, corpus, reads, sizes)
    new_runs = _writes(seed, writes, sizes)
    reader = server.client()
    writer = server.client()
    control = server.client()
    read_client = wrap_client(reader) if wrap_client else reader
    acked: List[Any] = []
    try:
        requests0 = control.stats()["counters"]["requests"]

        def read(index: int) -> bool:
            kind, argument, expected = plan[index]
            with maybe_request(tracer, f"read-{index}"), \
                    maybe_span(tracer, f"wire.{kind}"):
                answer = _read(read_client, kind, argument)
            return _read_ok(kind, answer, expected)

        def write(index: int) -> bool:
            run = new_runs[index]
            with maybe_request(tracer, f"write-{index}"), \
                    maybe_span(tracer, "wire.stream_run"):
                stream_run_to_store(run, writer, batch=2)
            acked.append(run)
            return True

        read_loop, write_loop = _open_loops(
            time.perf_counter() + 0.05,
            [(READ_RATE, 0.0, reads, read),
             (WRITE_RATE, WRITE_PHASE, writes, write)])
        requests = control.stats()["counters"]["requests"] - requests0 - 1
        wrong_acked = _verify_acked(control, acked)
        rss = server.peak_rss_mb()
        layers: Dict[str, float] = {}
        if tracer is not None:
            layers = _idle_wire(control, plan, sizes, tracer)
            layers["server.requests_per_written_run"] = (
                (requests - reads) / len(acked) if acked else 0.0)
    finally:
        for client in (reader, writer, control):
            client.close()
    out = {
        "attempted": read_loop.attempted + write_loop.attempted,
        "failed": read_loop.failed + write_loop.failed + wrong_acked,
        "end_to_end": {
            "modules_per_s": (statistics.median(
                len(run.executions) / service for run, service
                in zip(new_runs, write_loop.service_times)), "1/s"),
            "runs_per_s": (1.0 / statistics.median(
                write_loop.service_times), "1/s"),
            "run_p50_ms": (percentile(write_loop.service_times, 50) * 1e3,
                           "ms"),
            "run_p90_ms": (percentile(write_loop.service_times, 90) * 1e3,
                           "ms"),
            "read_p50_ms": (percentile(read_loop.latencies, 50) * 1e3, "ms"),
            "read_p99_ms": (percentile(read_loop.latencies, 99) * 1e3, "ms"),
            "write_p50_ms": (percentile(write_loop.latencies, 50) * 1e3,
                             "ms"),
            "write_p99_ms": (percentile(write_loop.latencies, 99) * 1e3,
                             "ms"),
            "peak_rss_mb": (rss, "MiB"),
        },
        "layers": layers,
        "acked_runs": acked,
        "plan": plan,
    }
    layers["loadgen.late_p99_ms"] = percentile(
        read_loop.lateness + write_loop.lateness, 99) * 1e3
    return out


def _verify_acked(client: ProvenanceClient, acked: List[Any]) -> int:
    """Count acked runs that are not listed or reload differently."""
    listed = {summary.run_id for summary in client.list_runs()}
    wrong = sum(run.id not in listed for run in acked)
    present = [run for run in acked if run.id in listed]
    stored = {run.id: run for run in client.load_runs(
        [run.id for run in present])} if present else {}
    for run in present:
        reloaded = stored.get(run.id)
        if reloaded is None or reloaded.to_dict() != run.to_dict():
            wrong += 1
    return wrong


def _mix(plan: List[Tuple[str, Any, Any]], per_kind: int
         ) -> List[Tuple[str, Any, Any]]:
    """The first ``per_kind`` reads of each kind from ``plan``."""
    picked = []
    for kind in READ_KINDS:
        picked.extend([read for read in plan if read[0] == kind][:per_kind])
    return picked


def _timed_mix(store: Any, mix: List[Tuple[str, Any, Any]], tracer: Tracer,
               prefix: str) -> Tuple[Dict[str, float], int, List[int]]:
    """Run ``mix`` closed-loop against ``store``; mean seconds per kind,
    wrong answers, and encoded reply sizes."""
    times: Dict[str, List[float]] = defaultdict(list)
    wrong = 0
    sizes = []
    for index, (kind, argument, expected) in enumerate(mix):
        with tracer.request(f"{prefix}-{index}"):
            started = time.perf_counter()
            with tracer.span(f"{prefix}.{kind}"):
                answer = _read(store, kind, argument)
            times[kind].append(time.perf_counter() - started)
        wrong += not _read_ok(kind, answer, expected)
        sizes.append(_reply_bytes(kind, answer))
    return ({kind: statistics.fmean(values)
             for kind, values in times.items()}, wrong, sizes)


def _idle_wire(client: ProvenanceClient, plan: List[Tuple[str, Any, Any]],
               sizes: ServiceSizes, tracer: Tracer) -> Dict[str, float]:
    mix = _mix(plan, sizes.idle_reads)
    means, wrong, _ = _timed_mix(client, mix, tracer, "idle")
    tracer.counters["idle.wrong"] += wrong
    return {f"idle.{kind}": value for kind, value in means.items()}


def _in_process(root: Path, workdir: Path, corpus: List[Any],
                acked: List[Any], plan: List[Tuple[str, Any, Any]],
                out: Dict[str, Any], sizes: ServiceSizes,
                tracer: Tracer) -> Dict[str, float]:
    """The read mix in process on the server's shards and on a one-shard
    copy, after the server has stopped."""
    mix = _mix(plan, sizes.idle_reads)
    layers = out["layers"]
    sharded = ShardedProvenanceStore.open(root, shards=SHARDS)
    try:
        means, wrong, reply_sizes = _timed_mix(sharded, mix, tracer, "query")
    finally:
        sharded.close()
    single = ShardedProvenanceStore.open(workdir / "one-shard", shards=1)
    try:
        single.save_runs(corpus + acked)
        one, wrong_one, _ = _timed_mix(single, mix, tracer, "sharded1")
    finally:
        single.close()
    wrong += wrong_one + tracer.counters["idle.wrong"]
    out["failed"] += wrong
    out["attempted"] += 3 * len(mix)
    result = {
        "query.select_us": means["select"] * 1e6,
        "query.lineage_us": means["lineage"] * 1e6,
        "query.load_run_us": means["load_run"] * 1e6,
        "sharded.fanout_ratio": sum(means.values()) / sum(one.values()),
        "wire.response_bytes_per_read": statistics.fmean(reply_sizes),
    }
    overheads = []
    for kind in READ_KINDS:
        overhead = (layers.pop(f"idle.{kind}") - means[kind]) * 1e6
        result[f"wire.read_overhead_us.{kind}"] = overhead
        overheads.append(overhead)
    result["wire.read_overhead_us"] = statistics.fmean(overheads)
    return result
