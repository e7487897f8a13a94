"""Golden-fingerprint determinism regression.

The flit-hop fingerprint digests pure-integer link/sink state, so it is
machine-independent: every registry scenario must reproduce its recorded
golden bit-identically whether the kernel is pumped in ``run_batch``
slices before ``run()`` finishes the scenario, and whether collectors
retain packets or stream (P²/Welford) — drive style and measurement
mode must never change the simulated work.
"""

import dataclasses

import pytest

from repro.scenarios import ScenarioRunner, get, flit_hop_fingerprint
from repro.scenarios.golden import SMOKE_FINGERPRINTS

from scenario_params import matrix_params


@pytest.mark.parametrize("name", matrix_params())
def test_batch_drive_matches_golden(name, run_sliced):
    """run_batch slices (awkward 977-event batches, deliberately prime)
    must dispatch the exact same work as the AllOf-triggered run."""
    result = run_sliced(ScenarioRunner(get(name).smoke()))
    assert result.fingerprint == SMOKE_FINGERPRINTS[name]


@pytest.mark.parametrize("name", matrix_params())
def test_retain_packets_flip_matches_golden(name):
    """Streaming vs retained collectors are measurement-only: flipping
    the flag must not perturb a single flit hop."""
    spec = get(name).smoke()
    result = ScenarioRunner(
        spec, retain_packets=not spec.retain_packets).run()
    assert result.fingerprint == SMOKE_FINGERPRINTS[name]


class TestFingerprintSensitivity:
    """The digest must actually react to changed work (no vacuous pass)."""

    def test_different_seed_different_fingerprint(self):
        spec = get("be-uniform-4x4").smoke()
        reference = ScenarioRunner(spec).run().fingerprint
        reseeded = dataclasses.replace(
            spec, be=dataclasses.replace(spec.be, seed=spec.be.seed + 1))
        assert ScenarioRunner(reseeded).run().fingerprint != reference

    def test_different_load_different_fingerprint(self):
        spec = get("be-uniform-4x4").smoke()
        reference = ScenarioRunner(spec).run().fingerprint
        lighter = dataclasses.replace(
            spec, be=dataclasses.replace(spec.be, probability=0.05))
        assert ScenarioRunner(lighter).run().fingerprint != reference

    def test_idle_network_fingerprint_is_stable_constant(self):
        """Same geometry, no traffic -> identical digests; different
        geometry -> different digests (the link set is hashed)."""
        from repro import MangoNetwork
        assert flit_hop_fingerprint(MangoNetwork(3, 2)) == \
            flit_hop_fingerprint(MangoNetwork(3, 2))
        assert flit_hop_fingerprint(MangoNetwork(3, 2)) != \
            flit_hop_fingerprint(MangoNetwork(2, 3))
