"""Self-tests of the repo benchmark.

Run from the repository root:  python3 -m pytest perfbench/tests -q
(about a minute: every workload is traced at full duration).
"""

import json
import shutil
import subprocess
import sys

import pytest

import cellbench
from repro.scenarios import registry

BENCH = cellbench.HERE
ROOT = BENCH.parent


def routers(workload):
    spec = workload.spec(0, 0)
    return spec.cols * spec.rows


@pytest.fixture(scope="module")
def traced():
    """Two traced rounds of every workload's default-seed cell."""
    expected = cellbench.load_expected()
    return {name: cellbench.measure_traced(workload, 0, 0.0, expected)
            for name, workload in cellbench.WORKLOADS.items()}


def test_default_seed_is_the_registry_cell():
    for workload in cellbench.WORKLOADS.values():
        assert workload.spec(0, 0) == registry.get(workload.cell)
        specs = {(workload.spec(seed, k).be.seed,
                  workload.spec(seed, k).be.pattern_seed)
                 for seed in (0, 1) for k in range(workload.replicas)}
        assert len(specs) == 2 * workload.replicas


def test_traced_call_counts_repeat_exactly(traced):
    for name, (metrics, cells, problems) in traced.items():
        assert problems == [], name
        rounds = [cell for cell in cells if cell.run_profile is not None]
        assert len(rounds) >= 2
        first, *rest = [
            cellbench.layer_counts(cell, routers(cellbench.WORKLOADS[name]))
            for cell in rounds]
        assert all(counts == first for counts in rest), name
        assert set(metrics) == set(cellbench.PER_LAYER), name


def test_core_calls_separate_the_workloads(traced):
    core = {name: metrics["core.run.calls_per_hop"]
            for name, (metrics, _, _) in traced.items()}
    assert core["fabric-routerless"] == 0
    assert core["mesh-be-saturation"] > 0
    assert core["mesh-gs-16x16"] > 0


class CountingInt(int):
    """A traversal counter whose ``+= 1`` is one extra Python call."""

    def __add__(self, other):
        return CountingInt(int.__add__(self, other))


def add_call_per_hop(network):
    for link in network.links.values():
        link.gs_flits = CountingInt(link.gs_flits)
        link.be_flits = CountingInt(link.be_flits)


def test_an_extra_call_per_hop_is_caught(traced):
    for name, workload in cellbench.WORKLOADS.items():
        base = traced[name][0]["total.run.calls_per_hop"]
        cell = cellbench.run_cell(workload, 0, 0, profile=True,
                                  after_build=add_call_per_hop)
        patched = cellbench.layer_counts(cell, routers(workload))
        assert cell.failures == []
        assert patched["total.run.calls_per_hop"] - base >= 1 - 1e-9, name


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", cellbench.END_TO_END),
                       ("per_layer", cellbench.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in bench[key]] \
            == list(units.items())
    assert sorted(w["name"] for w in bench["workloads"]) \
        == sorted(cellbench.WORKLOADS)


def test_end_to_end_run_prints_every_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "fabric-routerless", "--seed", "0", "--seconds", "0", "--trace",
         "0"], cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(cellbench.END_TO_END)
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    assert printed == cellbench.END_TO_END


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "fabric-routerless", "--seed", "0", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
