"""The benchmark's own tests.

Run from the repository root with::

    python3 -m pytest perfbench/selftest.py -q

Tiny sizes of every workload must print every metric ``BENCHMARK.json``
names, with its unit, and planted faults must show up as failed operations.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.storage import MemoryStore, ProvQuery  # noqa: E402
from repro.storage.query import ResultCursor  # noqa: E402
from repro.core.retrospective import WorkflowRun  # noqa: E402

from perfbench import bench, service  # noqa: E402
from perfbench.inproc import (LargeDagSizes, SweepSizes,  # noqa: E402
                              large_dag, sweep_small)

TINY = {
    "large_dag": functools.partial(
        large_dag, sizes=LargeDagSizes(modules=40, probe_modules=10,
                                       setups=1, setups_after=1)),
    "sweep_small": functools.partial(
        sweep_small, sizes=SweepSizes(modules=12, round_runs=20,
                                      setups=1)),
    "service_mixed": functools.partial(
        service.service_mixed, sizes=service.ServiceSizes(
            chains=4, runs_per_chain=8, setups=1, setups_after=1,
            idle_reads=3)),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((ROOT / "perfbench" / "metrics.json").read_text())


class DroppingStore:
    """Planted fault: saves every run without its last execution."""

    def __init__(self, inner):
        self.inner = inner

    def save_run(self, run):
        data = run.to_dict()
        data["executions"] = data["executions"][:-1]
        self.inner.save_run(WorkflowRun.from_dict(data))

    def __getattr__(self, name):
        return getattr(self.inner, name)


class CorruptingStore:
    """Planted fault: records a wrong hash for one output of each run, on
    the captured run itself, as a faulty capture would."""

    def __init__(self, inner):
        self.inner = inner

    def save_run(self, run):
        binding = run.executions[-1].outputs[0]
        run.artifacts[binding.artifact_id].value_hash = "0" * 64
        self.inner.save_run(run)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TruncatingClient:
    """Planted fault: drops the last row of the first lineage answer."""

    def __init__(self, inner):
        self.inner = inner
        self.truncated = False

    def select(self, query):
        cursor = self.inner.select(query)
        if query.lineage is None or self.truncated:
            return cursor
        self.truncated = True
        return ResultCursor(iter(cursor.all()[:-1]))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _assert_metrics(result, wanted):
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == {m["name"]: m["unit"]
                                           for m in wanted}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_tiny_end_to_end_runs_print_every_metric(tmp_path):
    for name, workload in TINY.items():
        result = bench.end_to_end(workload, 3, 0.3, tmp_path / name)
        _assert_metrics(result, SPEC["end_to_end"])
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, metric


def test_tiny_traced_runs_print_every_layer_metric(tmp_path):
    for name in TINY:
        result = bench.per_layer(name, TINY, 3, 0.3, tmp_path / name,
                                 short_seconds=0.2)
        _assert_metrics(result, SPEC["per_layer"])
        assert result["metrics"]["error_ratio"]["value"] == 0.0
        traces = ROOT / ".perfbench" / "traces"
        chrome = json.loads((traces / f"{name}-3.trace.json").read_text())
        assert chrome["traceEvents"]
        lines = (traces / f"{name}-3.jsonl").read_text().splitlines()
        assert set(json.loads(lines[0])) == {"name", "start_us", "end_us",
                                             "span", "parent", "request",
                                             "thread"}


def test_dropped_execution_is_counted_as_failed(tmp_path):
    for name in ("large_dag", "sweep_small"):
        result = TINY[name](3, 0.3, tmp_path / name,
                            wrap_store=DroppingStore)
        assert result["failed"] >= 1, name


def test_wrong_capture_is_counted_as_failed(tmp_path):
    # the MemoryStore returns the captured object, so only the sweep's
    # own expectations can catch this
    result = TINY["sweep_small"](3, 0.3, tmp_path, wrap_store=CorruptingStore)
    assert result["failed"] >= 1


def test_truncated_lineage_answer_is_counted_as_failed(tmp_path):
    result = TINY["service_mixed"](3, 0.3, tmp_path,
                                   wrap_client=TruncatingClient)
    assert result["failed"] == 1


def test_lineage_reference_agrees_with_a_store():
    corpus = service._corpus(5, service.ServiceSizes(chains=2,
                                                     runs_per_chain=12))
    store = MemoryStore()
    for run in corpus:
        store.save_run(run)
    reference = service.LineageReference(corpus)
    for key in ("link-500-0001", "link-500-0007", "link-501-0012",
                "mid-501-0005-2"):
        rows = store.select(ProvQuery.artifacts().upstream_of(
            key, max_depth=service.LINEAGE_DEPTH)).all()
        assert len(rows) == reference.upstream_rows(
            key, service.LINEAGE_DEPTH) > 0, key


def test_benchmark_json_matches_its_contract_and_notes():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(bench.WORKLOADS)
    # a runnable workload left out of BENCHMARK.json is named in the notes
    for name in set(bench.WORKLOADS) - set(listed):
        assert any(name in dropped for dropped in NOTES["dropped"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])
    assert list(NOTES["per_layer"]) == [m["name"]
                                        for m in SPEC["per_layer"]]
    assert list(NOTES["end_to_end"]) == [m["name"]
                                         for m in SPEC["end_to_end"]]
    rates = NOTES["service_mixed_rates"]
    assert (rates["reads_per_s"], rates["writes_per_s"]) == (
        service.READ_RATE, service.WRITE_RATE)


def test_command_prints_one_result_line():
    done = subprocess.run(
        SPEC["command"] + ["--workload", "sweep_small", "--seed", "2",
                           "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    _assert_metrics(result, SPEC["end_to_end"])


def test_command_fails_without_the_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "sweep_small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
