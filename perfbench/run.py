"""Repo benchmark: one workload, one serial process, every metric.

    python3 perfbench/run.py --workload mesh-be-saturation --seed 0 \
        --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
gives the per-layer metrics.  Each metric is printed as a line
``name value unit``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check prints its reasons on standard error and reports
``"correct": false``.

``--record`` reruns the default and the held-out seed of every workload
and rewrites ``expected.json`` with their flit hops, fingerprints and
metrics; only do that when the simulated work is meant to change.

Workloads, metrics and the reasons behind them: ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The seed later claims are checked on; never used for tuning.
HELD_OUT_SEED = 7


def load_cellbench():
    """Import the harness against this checkout's simulator source."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator source under {src}; run "
                         "from a full checkout of the repository")
    sys.path.insert(0, str(src))
    import cellbench
    return cellbench


def record(cellbench) -> None:
    """Rewrite ``expected.json`` from fresh runs of the recorded seeds."""
    expected = {}
    for workload in cellbench.WORKLOADS.values():
        expected[workload.name] = {}
        for seed in (0, HELD_OUT_SEED):
            cells = [cellbench.run_cell(workload, seed, k)
                     for k in range(workload.replicas)]
            problems = cellbench.check_cells(workload, seed, cells, {})
            if problems:
                raise SystemExit("\n".join(problems))
            expected[workload.name][str(seed)] = {
                "cells": [[c.result["flit_hops"], c.result["fingerprint"]]
                          for c in cells],
                "metrics": cellbench.simulated_metrics(cells),
            }
            print(workload.name, seed, expected[workload.name][str(seed)],
                  flush=True)
    with open(cellbench.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json and exit")
    args = parser.parse_args(argv)
    cellbench = load_cellbench()
    if args.record:
        record(cellbench)
        return 0
    if args.workload not in cellbench.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(cellbench.WORKLOADS)}")
    workload = cellbench.WORKLOADS[args.workload]
    expected = cellbench.load_expected()
    if args.trace:
        metrics, cells, problems = cellbench.measure_traced(
            workload, args.seed, args.seconds, expected)
        units = cellbench.PER_LAYER
    else:
        metrics, cells, problems = cellbench.measure(
            workload, args.seed, args.seconds, expected)
        units = cellbench.END_TO_END
    attempted, failed = cellbench.operations(cells)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    speed = statistics.median(cell.phases["run_s"][1] for cell in cells)
    print(f"# {workload.name}: {workload.cell} on {workload.backend}, "
          f"seed {args.seed}, {len(cells)} cells, host speed {speed:.3f}, "
          f"ops_failed_frac {failed / attempted:.6g}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.9g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
