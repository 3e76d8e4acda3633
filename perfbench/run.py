"""The repository benchmark: one command, answers checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload large_dag --seed 1 --seconds 30 \
        --trace 0

Workloads: ``large_dag`` and ``sweep_small`` (in process, see
``perfbench/inproc.py``) and ``service_mixed`` (a ``repro serve`` child, see
``perfbench/service.py``; run by name and in every traced run, but not
listed in ``BENCHMARK.json``).  The inputs come from ``--seed`` alone.

``--trace 0`` prints the end-to-end metrics of one untraced run.
``--trace 1`` prints the per-layer metrics: it runs the chosen workload once
untraced and once traced for half the window (the difference is
``trace.overhead_pct``), runs short traced passes of the other two
workloads for the layers only they reach, and writes every span to
``.perfbench/traces/<workload>-<seed>.jsonl`` and ``.trace.json`` (Chrome
trace-event format; opens in Perfetto).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when a result was printed.  Metric definitions, the layer each
per-layer metric belongs to and the end-to-end metric it should move are
listed in ``perfbench/metrics.json``; their names and units in
``BENCHMARK.json``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main
    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
