"""Tests for the cProfile harness (``repro.obs.profile``)."""

import gc
import heapq
import os
from dataclasses import dataclass

import pytest

from repro.obs.profile import (by_layer, calls_to, layer_of, profile_run,
                               profiled)
from repro.scenarios import ScenarioRunner, get
from repro.sim.kernel import Simulator


def _never_called():
    pass


def _tick(sim):
    for _ in range(5):
        yield sim.timeout(1.0)


def _forever():
    while True:
        yield


def _run_ticks():
    sim = Simulator()
    for _ in range(3):
        sim.process(_tick(sim))
    sim.run()
    return sim.now


class TestLayerOf:
    def test_sim_function(self):
        code = Simulator.process.__code__
        assert layer_of(code.co_filename) == "sim"

    def test_builtin(self):
        assert layer_of("~") == "python"

    def test_generated_code_is_python(self):
        assert layer_of("<string>") == "python"

    def test_stdlib_module(self):
        assert layer_of(heapq.__file__) == "python"

    def test_non_repro_file(self):
        assert layer_of(__file__) == "other"
        assert layer_of(pytest.__file__) == "other"

    def test_top_level_repro_module(self):
        import repro.bench
        assert layer_of(repro.bench.__file__) == "other"

    def test_relative_path_is_resolved(self):
        code = Simulator.process.__code__
        relative = os.path.relpath(code.co_filename)
        assert layer_of(relative) == "sim"


class TestHarness:
    def test_profiled_returns_the_result(self):
        now, stats = profiled(_run_ticks)
        assert now == 5.0
        assert calls_to(stats, _run_ticks) == 1
        # Every resume of a generator counts: 3 processes x 6 steps.
        assert calls_to(stats, _tick) == 3 * 6

    def test_calls_to_uncalled_function_is_zero(self):
        _now, stats = profiled(_run_ticks)
        assert calls_to(stats, _never_called) == 0

    def test_by_layer_sums_to_total_calls(self):
        _now, stats = profiled(_run_ticks)
        layers = by_layer(stats)
        assert sum(calls for calls, _ in layers.values()) == \
            stats.total_calls
        assert list(layers) == sorted(layers)
        assert layers["sim"][0] > 0
        # This test module's own functions are outside the package.
        assert layers["other"][0] >= 1 + 3 * 6

    def test_earlier_garbage_is_collected_first(self):
        # Collecting a suspended generator resumes it to close it,
        # which cProfile counts as a call to the generator function.
        cycle = [_forever()]
        next(cycle[0])
        cycle.append(cycle)
        del cycle
        _none, stats = profiled(gc.collect)
        assert calls_to(stats, _forever) == 0

    @pytest.mark.parametrize("busy", ["first", "second"])
    def test_shared_label_counts_the_busiest_code_object(self, busy):
        # Both generated __init__s carry the label <string>:2(__init__);
        # the count must not depend on which one cProfile lists last.
        @dataclass
        class First:
            x: int = 0

        @dataclass
        class Second:
            y: int = 0

        def build():
            for _ in range(5):
                First() if busy == "first" else Second()
            for _ in range(2):
                Second() if busy == "first" else First()

        _none, stats = profiled(build)
        assert calls_to(stats, First.__init__) == 5

    def test_profile_run_profiles_the_run_phase_only(self):
        made = []

        def make():
            made.append(ScenarioRunner(get("be-uniform-4x4").smoke()))
            return made[-1]

        result, stats = profile_run(make)
        assert len(made) == 2
        assert made[1].network is not None
        assert calls_to(stats, ScenarioRunner.build) == 0
        assert calls_to(stats, ScenarioRunner.run) == 1
        assert result.flit_hops > 0


class TestKernelIntegration:
    def test_scenario_profile_does_not_perturb(self):
        spec = get("be-uniform-4x4").smoke()
        off = ScenarioRunner(spec).run()
        runs = [profile_run(lambda: ScenarioRunner(spec)) for _ in range(2)]
        (first, first_stats), (second, second_stats) = runs
        assert first.fingerprint == second.fingerprint == off.fingerprint
        assert first.events == off.events
        # Exact work: two profiled runs count identical calls per layer.
        counts = [{layer: calls for layer, (calls, _) in
                   by_layer(stats).items()}
                  for stats in (first_stats, second_stats)]
        assert counts[0] == counts[1]
        assert counts[0]["core"] > 0
        assert first_stats.total_calls == second_stats.total_calls
