"""Suite-wide fixtures."""

import pytest


def _run_sliced(runner, max_events=977):
    """Pump ``runner``'s built network in ``run_batch`` slices of
    ``max_events`` kernel events (a caller interleaving host-side
    work; 977 is deliberately prime), then let ``runner.run()`` finish
    the scenario from wherever the slices left it.  Slicing stops short
    of an injected failure so ``run()`` still observes it."""
    if runner.network is None:
        runner.build()
    failure = runner.spec.failure
    until = failure.at_ns / 2 if failure is not None else None
    while runner.network.run_batch(until=until, max_events=max_events):
        pass
    return runner.run()


@pytest.fixture
def run_sliced():
    """``run_sliced(runner, max_events=977) -> ScenarioResult``: the
    scenario driven in ``run_batch`` slices, which must reproduce the
    work of a plain ``runner.run()``."""
    return _run_sliced
