"""The ``ring`` backend: fair-share transport on ring fabrics.

Wu's *A Ring Router Microarchitecture for NoCs* (PAPERS.md) argues the
3-port ring router — clockwise, counter-clockwise, local — is the
cheapest router that still scales: no crossbar, no route computation
(a flit either continues around the ring or exits), and the wiring of
a ring is a fraction of a grid's.  The price is diameter: ``N/2`` hops
worst case on a bidirectional ring of ``N`` tiles, ``N - 1``
unidirectional, versus the grid's ``cols + rows - 2``.

This backend runs the :class:`~repro.network.fabrics.RingTopology`
variants (``ring``, ``ring-uni``) and the hierarchical
:class:`~repro.network.fabrics.HierarchicalRingTopology` (``hring``)
over the shared :class:`~repro.backends.graphnet.FairShareNetwork`
transport: per-link round-robin over per-connection GS queues, BE in
idle cycles, admission capped at ``config.vcs_per_port`` connections
per link.  Deterministic shortest-arc routing picks the shorter way
around (clockwise on ties); admission falls back to the longer arc on
a bidirectional ring when the short one is full.

The architectural bound is the **ring-hop latency bound**: with at
most ``C`` connections sharing a link, a queued GS flit departs within
``C`` cycle boundaries, so a paced flit crossing ``h`` ring hops
arrives within ``h x (C + 1) x cycle``
(:func:`repro.analysis.qos.loop_contract_for_path`) — same share-based
arithmetic as MANGO's contract, with the ring's admission cap as the
sharer count.  Hop counts are *ring* hops, so the bound is honest
about the fabric's diameter disadvantage; the three-way margin
comparison lives in ``benchmarks/bench_topology_comparison.py``.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import RouterConfig
from ..network.topology import Coord
from .base import RouterBackend
from .graphnet import FairShareNetwork, GraphConnection

__all__ = ["RingBackend"]


class RingBackend(RouterBackend):
    """Ring fabrics under fair-share arbitration (Wu's ring router)."""

    name = "ring"
    description = ("3-port ring routers, shortest-arc routing, "
                   "fair-share GS queues per link")
    paper_section = "PAPERS.md: Wu, ring router microarchitecture"
    topologies = ("ring", "ring-uni", "hring")
    has_hard_guarantees = True
    supports_failure_injection = False

    def build_network(self, spec, config: Optional[RouterConfig] = None,
                      obs=None) -> FairShareNetwork:
        net = FairShareNetwork(spec.make_topology(config), config=config)
        net.attach_observability(obs)
        return net

    def open_connection(self, network: FairShareNetwork, src: Coord,
                        dst: Coord) -> GraphConnection:
        return network.allocate_connection(src, dst)

    def latency_bound_ns(self, hops: int,
                         config: Optional[RouterConfig] = None) -> float:
        """The ring-hop bound: one fair-share rotation per hop, over
        *ring* hops (the topology's route length, not grid distance)."""
        from ..analysis.qos import loop_contract_for_path
        config = config or RouterConfig()
        return loop_contract_for_path(
            hops, gs_capacity=config.vcs_per_port,
            config=config).max_latency_ns
