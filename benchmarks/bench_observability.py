"""O1 — Observability overhead: telemetry must be free when off.

Not a paper experiment: it gates the telemetry layer (``repro.obs``,
PR 10) the way K1 gates the kernel.  The layer's contract is

* **off is free** — with no :class:`~repro.obs.ObsConfig` the only
  residue on the hot path is the emit-point guards (``if
  tracer.enabled:`` against the shared ``NULL_TRACER``).  A wall-clock
  A/B at the ~1% scale is hostile to CI (noisier than the signal), so
  the gate *models* the cost: measured per-guard seconds x a generous
  count of guard sites hit (every trace emit the run would take, plus
  one per kernel event as margin) must stay under ``OVERHEAD_BUDGET``
  of the plain run's wall time;
* **on is honest** — metrics and tracing may tax events/sec (recorded
  here as the "tax vs off" column so the trajectory shows what enabling
  each mode costs) but must never perturb the simulation: fingerprints
  are asserted byte-identical across all three modes.
"""

import time

from repro.analysis.report import Table
from repro.obs import ObsConfig
from repro.scenarios import ScenarioRunner, get
from repro.sim.tracing import NULL_TRACER, Tracer

from .common import record, run_once

#: Full-length mixed GS+BE cell (same family K1 guards) — long enough
#: that per-mode wall times mean something.
CELL = "corner-streams-6x6"

#: Modelled disabled-path budget as a fraction of the plain run's wall.
OVERHEAD_BUDGET = 0.03


def _guard_cost_s(iters: int = 200_000) -> float:
    """Measured seconds per disabled emit-point guard.

    Times the exact hot-path pattern (attribute load + truthiness test
    on the shared ``NULL_TRACER``) in a plain loop; the loop's own
    bookkeeping is included, so the figure *over*states the guard —
    conservative in the direction the assertion cares about.
    """
    tracer = NULL_TRACER
    taken = 0
    start = time.perf_counter()
    for _ in range(iters):
        if tracer.enabled:
            taken += 1
    elapsed = time.perf_counter() - start
    assert taken == 0
    return elapsed / iters


def run_modes():
    emitted = [0]

    def counting_sink(rec):
        emitted[0] += 1

    modes = (
        ("off", None),
        ("metrics", ObsConfig(metrics=True)),
        ("trace", ObsConfig(tracer=Tracer(enabled=True,
                                          sink=counting_sink))),
    )
    table = Table(["mode", "kernel events", "wall s", "events/s",
                   "tax vs off", "fingerprint"],
                  title=f"Observability modes, {CELL} "
                        "(identical simulated work asserted)")
    results = {}
    off_rate = None
    for mode, obs in modes:
        result = ScenarioRunner(get(CELL), obs=obs).run()
        results[mode] = result
        rate = result.events / result.wall_s
        if mode == "off":
            off_rate = rate
        tax = "-" if mode == "off" else f"{1.0 - rate / off_rate:+.1%}"
        table.add_row(mode, result.events, round(result.wall_s, 3),
                      round(rate), tax, result.fingerprint)
    return results, emitted[0], table


def test_observability_modes(benchmark):
    results, emits, table = run_once(benchmark, run_modes)
    record("O1", "observability on/off A/B", table.render())

    off = results["off"]
    assert off.passed, off.failures()
    # Telemetry observes; it never steers.  Byte-identical simulated
    # work in every mode.
    for mode, result in results.items():
        assert result.fingerprint == off.fingerprint, mode
        assert result.events == off.events, mode
        assert result.flit_hops == off.flit_hops, mode
        assert result.passed, mode

    # The modes actually did their jobs.
    assert results["metrics"].metrics is not None
    assert results["metrics"].metrics["counters"]
    assert emits > 0

    # The disabled-path gate: every guard the traced run proved it
    # would hit (emits), at the measured per-guard cost, must be noise.
    # The per-kernel-event term guards nothing; it is kept as
    # conservative margin.
    per_guard = _guard_cost_s()
    modelled = (emits + off.events) * per_guard
    budget = OVERHEAD_BUDGET * off.wall_s
    assert modelled < budget, (
        f"disabled-path guards modelled at {modelled * 1e3:.2f}ms "
        f"({emits + off.events} sites x {per_guard * 1e9:.1f}ns) "
        f"exceed {OVERHEAD_BUDGET:.0%} of the {off.wall_s:.3f}s run")
    record("O1b", "disabled-path modelled overhead",
           f"{emits + off.events} guard sites x {per_guard * 1e9:.1f}ns "
           f"= {modelled * 1e3:.2f}ms, budget {budget * 1e3:.2f}ms "
           f"({OVERHEAD_BUDGET:.0%} of {off.wall_s:.3f}s wall): PASS")
