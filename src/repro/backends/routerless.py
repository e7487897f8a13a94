"""The ``routerless`` backend: overlapping loops, per-loop bounds.

Indrusiak & Burns' *Real-Time Guarantees in Routerless NoCs*
(PAPERS.md) analyse NoCs that delete the router entirely: the chip is
covered by a set of overlapping unidirectional **loops**, a flit joins
exactly one loop at injection and rides it to the destination, and the
only arbitration is at the injection point.  Worst-case traversal is
then analysable *per loop*: the interference a flit can suffer is
bounded by the traffic admitted onto its own loop, never by the rest
of the chip.

This backend runs :class:`~repro.network.fabrics.RouterlessTopology`
(a global snake loop over every tile plus one loop per row and per
column) over the shared
:class:`~repro.backends.graphnet.FairShareNetwork` transport.  The
deterministic route picks the loop through source and destination with
the fewest forward hops (lowest loop id on ties); admission control
tries the remaining shared loops before rejecting, so row/column loops
absorb local traffic and the global loop is the fallback of last
resort — the overlap is the fabric's whole point.

The architectural bound is the **real-time per-loop bound**: a loop
admits at most ``C = config.vcs_per_port`` GS connections per link, a
queued flit departs within one round-robin rotation, so ``h`` forward
hops on the chosen loop are served within ``h x (C + 1) x cycle``
(:func:`repro.analysis.qos.loop_contract_for_path`).  Hop counts are
loop hops — a bit-complement pair may ride half the global snake — so
the verdicts price the fabric's true detours.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import RouterConfig
from ..network.topology import Coord
from .base import RouterBackend
from .graphnet import FairShareNetwork, GraphConnection

__all__ = ["RouterlessBackend"]


class RouterlessBackend(RouterBackend):
    """Overlapping-loop routerless NoC (Indrusiak & Burns)."""

    name = "routerless"
    description = ("router-free overlapping loops; flits ride one loop "
                   "end to end, per-loop real-time bound")
    paper_section = "PAPERS.md: Indrusiak & Burns, routerless NoCs"
    topologies = ("routerless",)
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
        """The per-loop bound over the connection's loop hops."""
        from ..analysis.qos import loop_contract_for_path
        config = config or RouterConfig()
        return loop_contract_for_path(
            hops, gs_capacity=config.vcs_per_port,
            config=config).max_latency_ns
