"""Runs one workload and prints its result line; see ``perfbench/run.py``."""

from __future__ import annotations

import argparse
import json
import os
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from perfbench.inproc import large_dag, sweep_small
from perfbench.probes import us_per
from perfbench.service import service_mixed
from perfbench.tracing import merged

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS: Dict[str, Callable] = {"large_dag": large_dag,
                                  "sweep_small": sweep_small,
                                  "service_mixed": service_mixed}
#: Seconds of each short traced pass over a workload not being measured.
SHORT_PASS_SECONDS = 3.0
#: Latency tails every workload measures but that are too unsteady on a
#: shared host to bound; traced runs report them as per-layer metrics.
TAILS = ("run_p90_ms", "read_p99_ms", "write_p99_ms")


def _load(name: str) -> Dict[str, Any]:
    with open(ROOT / name) as handle:
        return json.load(handle)


def _result(attempted: int, failed: int, values: Dict[str, float],
            metrics: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The result line, with exactly the metrics ``metrics`` names."""
    missing = sorted(m["name"] for m in metrics if m["name"] not in values)
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                    "unit": m["unit"]} for m in metrics}}


def end_to_end(workload: Callable, seed: int, seconds: float,
               workdir: Path) -> Dict[str, Any]:
    """One untraced run: every end-to-end metric."""
    result = workload(seed, seconds, workdir)
    values = {name: value
              for name, (value, _) in result["end_to_end"].items()}
    return _result(result["attempted"], result["failed"], values,
                   _load("BENCHMARK.json")["end_to_end"])


def per_layer(name: str, workloads: Dict[str, Callable], seed: int,
              seconds: float, workdir: Path,
              short_seconds: float = SHORT_PASS_SECONDS) -> Dict[str, Any]:
    """The traced run: every per-layer metric, spans exported.

    Each per-layer metric comes from the chosen workload when that
    workload reaches the layer, else from the workload ``metrics.json``
    says it is measured on.
    """
    plain = workloads[name](seed, seconds, workdir / "plain")
    # the overhead compares per-module (per-read) figures, so half the
    # window is enough for the traced pass
    passes = {name: workloads[name](seed, seconds / 2, workdir / "traced",
                                    traced=True)}
    for other, workload in workloads.items():
        if other != name:
            passes[other] = workload(seed, short_seconds,
                                     workdir / other, traced=True)
    # the tails kept out of end_to_end come from the untraced pass
    values: Dict[str, float] = {
        metric: plain["end_to_end"][metric][0] for metric in TAILS}
    for metric, where in _load("perfbench/metrics.json")["per_layer"] \
            .items():
        source = name if metric in passes[name]["layers"] \
            else where["measured_on"]
        if metric in passes.get(source, {}).get("layers", {}):
            values[metric] = passes[source]["layers"][metric]
    attempted = plain["attempted"] + sum(p["attempted"]
                                         for p in passes.values())
    failed = plain["failed"] + sum(p["failed"] for p in passes.values())
    values["error_ratio"] = failed / attempted
    values["trace.overhead_pct"] = _overhead_pct(name, plain, passes[name])
    merged([t for p in passes.values() for t in p["tracers"]]).export(
        ROOT / ".perfbench" / "traces" / f"{name}-{seed}")
    return _result(attempted, failed, values,
                   _load("BENCHMARK.json")["per_layer"])


def _overhead_pct(name: str, plain: Dict[str, Any],
                  traced: Dict[str, Any]) -> float:
    """How much slower the traced pass ran the same work, in percent.

    In process: time per module inside ``ProvenanceManager.run`` (the
    benchmark's direct per-layer calls are outside that span).  Service:
    the median read latency.
    """
    if name == "service_mixed":
        key = "read_p50_ms"
        return (traced["end_to_end"][key][0] / plain["end_to_end"][key][0]
                - 1.0) * 100.0
    tracer = traced["tracers"][0]
    traced_us = us_per(tracer.get("manager.run").total,
                       tracer.counters["modules"])
    return (traced_us / plain["us_per_module"] - 1.0) * 100.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result = per_layer(args.workload, WORKLOADS, args.seed,
                               args.seconds, workdir)
        else:
            result = end_to_end(WORKLOADS[args.workload], args.seed,
                                args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


