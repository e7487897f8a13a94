"""Observability layer: metrics registry, trace export, kernel profiling.

Three coordinated windows into a run, all opt-in and all zero-cost when
off (the default — golden fingerprints and events/sec are pinned
byte-identical with observability disabled):

* :mod:`repro.obs.metrics` — read-only counter/gauge probes over a built
  network, snapshotted into a JSON-safe ``MetricsSnapshot`` at run end
  (``scenario run <cell> --metrics``);
* :mod:`repro.obs.trace` — the Chrome trace-event exporter and text
  timeline over the bounded ring-buffer
  :class:`~repro.sim.tracing.Tracer` (``trace run <cell>``);
* :mod:`repro.obs.profile` — exact ``cProfile`` call counts of a run
  phase, split by layer (``profile <cell>`` and the K1 work gates);
  it profiles from outside, so the kernel carries no hook.

:class:`ObsConfig` bundles one run's choices; the scenario runner
threads it to the backend's ``build_network`` and attaches the results
to ``ScenarioResult.metrics``.  Layering: ``obs/`` sits directly above
``sim/`` and imports nothing higher — networks are introspected
duck-typed, so every backend (mango, graph fabrics, generic-vc) gets the
standard probe set without this package knowing their types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.tracing import Tracer
from .metrics import (MetricsRegistry, MetricsSnapshot, build_registry,
                      instrument_network)
from .trace import (ChromeTraceSink, parse_filters, render_timeline,
                    validate_chrome_trace)

__all__ = [
    "ChromeTraceSink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsConfig",
    "build_registry",
    "instrument_network",
    "parse_filters",
    "render_timeline",
    "validate_chrome_trace",
]


@dataclass
class ObsConfig:
    """One run's observability choices (everything defaults to off).

    ``metrics`` registers the standard probe set at build time and
    snapshots it at run end; ``metrics_sample_ns`` additionally samples
    gauge high-water marks on that cadence.  ``tracer`` is attached to
    the network (routers and links emit through it).
    """

    metrics: bool = False
    metrics_sample_ns: Optional[float] = None
    tracer: Optional[Tracer] = None
