"""Tests for the metrics registry (``repro.obs.metrics``)."""

import hashlib
import json

from repro.obs import MetricsRegistry, MetricsSnapshot, ObsConfig
from repro.scenarios import ScenarioRunner, get


def _run(name, obs=None):
    return ScenarioRunner(get(name).smoke(), obs=obs).run()


class TestSnapshot:
    def test_off_by_default(self):
        result = _run("be-uniform-4x4")
        assert result.metrics is None
        # The off path serializes without a metrics key at all, so
        # pre-observability consumers see byte-identical JSON.
        assert "metrics" not in result.to_dict()

    def test_snapshot_shape(self):
        result = _run("be-uniform-4x4", obs=ObsConfig(metrics=True))
        metrics = result.metrics
        assert metrics is not None
        assert set(metrics) >= {"time_ns", "samples", "counters",
                                "gauges"}
        assert metrics["counters"]
        assert metrics["gauges"]
        # Router activity made it into the standard probe set.
        assert any(key.startswith("router.") for key in
                   metrics["counters"])
        assert any(key.startswith("link.") for key in
                   metrics["counters"])
        # JSON-safe end to end.
        json.dumps(metrics)

    def test_snapshot_in_result_dict(self):
        result = _run("be-uniform-4x4", obs=ObsConfig(metrics=True))
        assert result.to_dict()["metrics"] == result.metrics

    def test_sampler_cadence(self):
        result = _run("be-uniform-4x4",
                      obs=ObsConfig(metrics=True,
                                    metrics_sample_ns=50.0))
        assert result.metrics["samples"] > 1

    def test_total_helper(self):
        snap = MetricsSnapshot(time_ns=1.0, samples=1,
                               counters={"a.x": 1, "a.y": 2, "b.z": 4},
                               gauges={})
        assert snap.total("a.") == 3
        assert snap.total("a") == 3  # trailing dot optional
        assert snap.total("b") == 4
        assert snap.total("nope") == 0


class TestNonPerturbation:
    def test_fingerprint_identical_with_metrics(self):
        for cell in ("be-uniform-4x4", "ring-cbr-8x8"):
            off = _run(cell)
            on = _run(cell, obs=ObsConfig(metrics=True))
            assert on.fingerprint == off.fingerprint, cell
            assert on.events == off.events, cell
            assert on.flit_hops == off.flit_hops, cell

    def test_fingerprint_identical_in_batch_mode(self, run_sliced):
        spec = get("be-uniform-4x4").smoke()
        off = run_sliced(ScenarioRunner(spec))
        on = run_sliced(ScenarioRunner(spec, obs=ObsConfig(metrics=True)))
        assert on.fingerprint == off.fingerprint


class TestRegistry:
    def test_counters_flattened_with_prefix(self):
        runner = ScenarioRunner(get("be-uniform-4x4").smoke(),
                                obs=ObsConfig(metrics=True))
        runner.build()
        registry = runner.metrics_registry
        assert isinstance(registry, MetricsRegistry)
        snap = registry.snapshot()
        # Dotted probe names; serialized ordering is deterministic.
        assert all("." in key for key in snap.counters)
        payload = snap.to_dict()
        assert list(payload["counters"]) == sorted(payload["counters"])
        assert list(payload["gauges"]) == sorted(payload["gauges"])


class TestUnbuiltSlots:
    """VC slots are built on demand; the probe set must not notice."""

    #: The sorted smoke snapshot of gs-cbr-16x16-corners, recorded when
    #: every VC slot of every port was built at construction: key count
    #: (counters + gauges), ``vc.*`` key count and sha256.
    SNAPSHOT_KEYS = 24_259 + 11_200
    VC_KEYS = 17_408 + 9_216
    SNAPSHOT_SHA256 = ("5b4608c3b069f6c9f84602bc46a89e66"
                       "3d0f5249b7fbfbaf7910f91acbf170fd")

    def test_snapshot_unchanged_with_unbuilt_slots(self):
        metrics = _run("gs-cbr-16x16-corners",
                       obs=ObsConfig(metrics=True)).metrics
        keys = list(metrics["counters"]) + list(metrics["gauges"])
        assert len(keys) == self.SNAPSHOT_KEYS
        assert sum(key.startswith("vc.") for key in keys) == self.VC_KEYS
        blob = json.dumps(metrics, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.SNAPSHOT_SHA256

    def test_registry_builds_no_slot(self):
        def built(runner):
            return sum(slot is not None
                       for router in runner.network.routers.values()
                       for port in (*router.output_ports.values(),
                                    router.local_output)
                       for slot in port.slots.built)

        spec = get("gs-cbr-16x16-corners").smoke()
        plain = ScenarioRunner(spec)
        plain.build()
        observed = ScenarioRunner(spec, obs=ObsConfig(metrics=True))
        observed.build()
        observed.metrics_registry.snapshot()
        assert built(observed) == built(plain)
        plain.run()
        observed.run()
        assert built(observed) == built(plain) > 0
