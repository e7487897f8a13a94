"""Trace exports are byte-deterministic across every equivalent drive.

The Chrome export's contract (``repro.obs.trace``): the same scenario
produces the *same bytes* whether or not the kernel was pumped in
``run_batch`` slices, and across repeated runs in one process (trace
tags are run-relative, never process-global ids).  Any drift here means
emission order or float arithmetic leaked into the artifact.
"""

import pytest

from repro.obs import ChromeTraceSink, ObsConfig
from repro.scenarios import ScenarioRunner, get
from repro.sim.tracing import Tracer

#: One mango mesh cell, one fair-share graph-fabric cell.
CELLS = ("be-uniform-4x4", "ring-cbr-8x8")


def _export(name, drive=ScenarioRunner.run):
    sink = ChromeTraceSink()
    tracer = Tracer(enabled=True, sink=sink)
    result = drive(ScenarioRunner(get(name).smoke(),
                                  obs=ObsConfig(tracer=tracer)))
    assert result.passed, result.failures()
    return sink.to_json(), result.fingerprint


@pytest.mark.parametrize("cell", CELLS)
def test_rerun_in_one_process(cell):
    first = _export(cell)
    second = _export(cell)
    assert first == second


@pytest.mark.parametrize("cell", CELLS)
def test_event_vs_batch_drive(cell, run_sliced):
    event = _export(cell)
    batch = _export(cell, drive=run_sliced)
    assert event == batch
