"""K1 — Simulation-kernel throughput and exact work per flit hop.

Not a paper experiment: this guards the *simulator's* hot path, the
substrate every router/link/traffic model spins on.  It drives the
``corner-streams-6x6`` / ``corner-streams-8x8`` registry scenarios —
corner GS streams plus a uniform-random Bernoulli BE storm, the same
mixed workload the large-mesh integration tests use — through the
:class:`~repro.scenarios.runner.ScenarioRunner` and reports the
run-phase (construction excluded) rates:

* kernel events/sec — informational only: ``Simulator.events_processed``
  counts kernel traffic (heap entries, synchronous deliveries, inline
  resumes), which a faster model legitimately removes;
* flit-hops/sec — physical link traversals per second, a
  kernel-version-independent measure of simulated work.

Wall-clock rates swing with the host, so the gates are exact work
counters instead (cProfile call counts are identical from run to run):

* ``test_calls_per_hop_ceiling`` profiles the run phase of
  ``corner-streams-8x8`` and ``gs-under-saturation-8x8`` (the MANGO
  router stages) and ``routerless-cbr-8x8`` (the fair-share fabric
  transport in ``backends/graphnet.py``) and asserts the Python calls
  per flit hop stay within ``CEILING_SLACK`` of ``CALLS_PER_HOP``;
* ``test_build_work_ceiling`` profiles the build phase (network,
  connections, sources) of ``gs-cbr-16x16-corners`` and
  ``gs-under-saturation-8x8`` and asserts the Python calls and the
  ``Simulator.process`` calls per router stay within ``CEILING_SLACK``
  of ``BUILD_WORK`` — construction builds only what the traffic
  touches, so a stage built eagerly again turns it red.

An extra call per hop (or per router) anywhere turns a gate red; a real
speedup lowers the count, after which the constants are re-recorded
from the new code.

The absolute rates are machine-dependent; the flit-hop counts are not
(asserted below, stable since the scenarios were hand-rolled here — the
runner reproduces the original construction order exactly).
"""

import cProfile
import pstats

from repro.analysis.report import Table
from repro.scenarios import ScenarioRunner, get
from repro.sim.kernel import Simulator

from .common import record, run_once, run_scenario

#: (registry scenario, expected full-duration flit hops).  The totals
#: predate the scenario engine: any drift means the workload itself
#: changed, not just the kernel.
SCENARIOS = (("corner-streams-6x6", 18_484),
             ("corner-streams-8x8", 29_396))

#: Run-phase Python calls per flit hop at full duration, recorded from
#: the callback-driven router stages and the per-hop fair-share
#: transport, with the cell's flit hops.
CALLS_PER_HOP = {
    "corner-streams-8x8": (80.05, 29_396),
    "gs-under-saturation-8x8": (75.08, 56_565),
    "routerless-cbr-8x8": (29.44, 42_936),
}

#: Build-phase Python calls and ``Simulator.process`` calls per router
#: at full duration, recorded from the on-demand VC slots and bind-time
#: NA processes, with the cell's flit hops.
BUILD_WORK = {
    "gs-cbr-16x16-corners": (506.59, 4.023, 10_659),
    "gs-under-saturation-8x8": (498.78, 4.094, 56_565),
}

#: Red above this multiple of a recorded work count.
CEILING_SLACK = 1.02


def run_experiment():
    table = Table(["mesh", "kernel events", "flit hops", "wall s",
                   "events/s", "flit-hops/s", "sim ns/wall s"],
                  title="Kernel throughput, mixed GS+BE workload "
                        "(run phase, construction excluded)")
    results = []
    for name, _expected in SCENARIOS:
        result = run_scenario(name)
        results.append(result)
        table.add_row(f"{result.cols}x{result.rows}", result.events,
                      result.flit_hops, round(result.wall_s, 3),
                      round(result.events / result.wall_s),
                      round(result.flit_hops / result.wall_s),
                      round(result.sim_ns / result.wall_s))
    return results, table


def test_kernel_throughput(benchmark):
    results, table = run_once(benchmark, run_experiment)
    record("K1", "simulation-kernel event throughput", table.render())

    for (name, expected), result in zip(SCENARIOS, results):
        assert result.passed, f"{name}: {result.failures()}"
        # Real progress was simulated and measured.
        assert result.events > 50_000
        assert result.events / result.wall_s > 0
        # The workload is deterministic: flit-hop totals are exact
        # machine-independent fingerprints of the simulated work (a
        # change here means the workload — not just the kernel —
        # changed).
        assert result.flit_hops == expected, name


def profiled_calls_per_hop(name: str):
    """Run-phase calls per flit hop of one full-duration cell, after an
    unprofiled warm-up run (lazy imports and caches are then hot)."""
    ScenarioRunner(get(name)).run()
    runner = ScenarioRunner(get(name))
    runner.build()
    profile = cProfile.Profile()
    profile.enable()
    result = runner.run()
    profile.disable()
    return pstats.Stats(profile).total_calls / result.flit_hops, result


def run_ceiling():
    table = Table(["scenario", "flit hops", "calls/hop", "recorded",
                   "ceiling"],
                  title="Run-phase Python calls per flit hop (cProfile)")
    measured = {}
    for name, (recorded, _hops) in CALLS_PER_HOP.items():
        per_hop, result = profiled_calls_per_hop(name)
        measured[name] = (per_hop, result)
        table.add_row(name, result.flit_hops, round(per_hop, 2), recorded,
                      round(recorded * CEILING_SLACK, 2))
    return measured, table


def test_calls_per_hop_ceiling(benchmark):
    measured, table = run_once(benchmark, run_ceiling)
    record("K1b", "run-phase calls per flit hop", table.render())

    for name, (per_hop, result) in measured.items():
        recorded, hops = CALLS_PER_HOP[name]
        assert result.passed, f"{name}: {result.failures()}"
        assert result.flit_hops == hops, name
        assert per_hop <= recorded * CEILING_SLACK, (
            f"{name}: {per_hop:.2f} calls per flit hop exceeds "
            f"{CEILING_SLACK}x the recorded {recorded}")


def profiled_build(name: str):
    """Build-phase calls and processes per router of one full-duration
    cell, after an unprofiled warm-up build; the profiled build is then
    run unprofiled for its flit hops."""
    ScenarioRunner(get(name)).build()
    profile = cProfile.Profile()
    profile.enable()
    runner = ScenarioRunner(get(name))
    runner.build()
    profile.disable()
    stats = pstats.Stats(profile)
    code = Simulator.process.__code__
    entry = stats.stats.get((code.co_filename, code.co_firstlineno,
                             code.co_name))
    routers = runner.spec.cols * runner.spec.rows
    result = runner.run()
    return (stats.total_calls / routers,
            (entry[1] if entry else 0) / routers, result)


def run_build_ceiling():
    table = Table(["scenario", "flit hops", "calls/router", "recorded",
                   "processes/router", "recorded"],
                  title="Build-phase work per router (cProfile)")
    measured = {}
    for name, (calls, procs, _hops) in BUILD_WORK.items():
        per_router, procs_per_router, result = profiled_build(name)
        measured[name] = (per_router, procs_per_router, result)
        table.add_row(name, result.flit_hops, round(per_router, 2), calls,
                      round(procs_per_router, 3), procs)
    return measured, table


def test_build_work_ceiling(benchmark):
    measured, table = run_once(benchmark, run_build_ceiling)
    record("K1c", "build-phase work per router", table.render())

    for name, (per_router, procs_per_router, result) in measured.items():
        calls, procs, hops = BUILD_WORK[name]
        assert result.passed, f"{name}: {result.failures()}"
        assert result.flit_hops == hops, name
        assert per_router <= calls * CEILING_SLACK, (
            f"{name}: {per_router:.2f} build calls per router exceeds "
            f"{CEILING_SLACK}x the recorded {calls}")
        assert procs_per_router <= procs * CEILING_SLACK, (
            f"{name}: {procs_per_router:.3f} processes per router "
            f"exceeds {CEILING_SLACK}x the recorded {procs}")
