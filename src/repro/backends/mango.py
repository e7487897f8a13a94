"""The ``mango`` backend: the paper's router, unchanged.

This is a thin adapter over :class:`~repro.network.network.MangoNetwork`
— the reference implementation whose construction order and RNG draws
the golden flit-hop fingerprints pin down.  ``build_network`` and
``open_connection`` perform *exactly* the calls the scenario runner made
before backends existed, so every recorded MANGO fingerprint is
byte-for-byte unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.qos import contract_for_path
from ..core.config import RouterConfig
from ..network.network import MangoNetwork
from ..network.topology import Coord
from .base import RouterBackend

__all__ = ["MangoBackend"]


class MangoBackend(RouterBackend):
    """Paper Sections 3-5: independently buffered VCs, share-based VC
    control, non-blocking switch — hard guarantees without a clock."""

    name = "mango"
    description = ("independently buffered VCs, share-based control, "
                   "non-blocking switch (the paper's router)")
    paper_section = "3-5 (Figures 2, 4, 5)"
    has_hard_guarantees = True
    supports_failure_injection = True
    supports_churn = True
    supports_alternate_allocators = True

    def build_network(self, spec, config: Optional[RouterConfig] = None,
                      obs=None) -> MangoNetwork:
        return MangoNetwork(
            spec.cols, spec.rows, config=config,
            tracer=obs.tracer if obs is not None else None)

    def open_connection(self, network: MangoNetwork, src: Coord,
                        dst: Coord):
        """Zero-time table writes (``open_connection_instant``): the
        scenario cells measure steady-state service, not setup cost —
        the programming path has its own tests and benchmarks."""
        return network.open_connection_instant(src, dst)

    def latency_bound_ns(self, hops: int,
                         config: Optional[RouterConfig] = None) -> float:
        """The architectural worst case of the fair-share scheme: a full
        arbitration round plus the constant forward path, per hop
        (:class:`~repro.analysis.qos.QosContract`, paper Section 4.2)."""
        return contract_for_path(hops, config or RouterConfig()
                                 ).max_latency_ns
