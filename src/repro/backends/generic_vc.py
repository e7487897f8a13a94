"""The ``generic-vc`` backend: a mesh of Figure 3 arbitrated routers.

Lifts :class:`repro.baselines.generic_vc_router.GenericVcRouter` — the
generic output-buffered VC router of paper Figure 3 — from a
single-router bench toy into a scenario-runnable mesh.  One 5-port
router per tile (N/E/S/W/LOCAL mapped to port indices by
:class:`~repro.network.topology.Direction` value); a delivered flit on a
network output is re-steered by XY and re-injected into the neighbour's
opposite input port.

The two coupling effects Section 4.1 identifies survive the lifting
untouched, because they live inside the baseline router itself:

* **switch congestion** — each output port is an arbitrated
  :class:`~repro.sim.resources.Resource`, so a GS flow's flits wait for
  unrelated flows' transfers;
* **head-of-line blocking** — GS and BE flits share each input port's
  FIFO, so a flit whose output is busy stalls everything behind it.

There is no admission control and no per-connection buffering, hence no
architectural latency bound: the backend is *scored against* the
reference MANGO fair-share contract (``has_hard_guarantees = False``),
and the ``gs-under-saturation`` cells reproduce Section 4.1 as an
automated verdict — MANGO passes, this router measurably violates the
bound.

Modelling assumptions (documented in ``docs/backends.md``): input FIFOs
are effectively unbounded, so overload shows up as unbounded queueing
delay rather than drops — BE conservation holds and the guarantee
failure is a *latency* violation, which is exactly the observable the
paper argues about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..baselines.generic_vc_router import GenericFlit, GenericVcRouter
from ..core.config import RouterConfig
from ..network.packet import BePacket
from ..network.topology import Coord, Direction, Topology
from .base import RouterBackend
from .graphnet import (BaseGraphNetwork, GraphAdapter, GraphConnection,
                       _trace_tag)

__all__ = ["MeshRoutedFlit", "GenericVcNetwork", "GenericVcBackend"]

#: Input FIFOs deep enough never to refuse a flit (see module docstring).
UNBOUNDED_FIFO = 1 << 30


@dataclass
class MeshRoutedFlit(GenericFlit):
    """A :class:`~repro.baselines.generic_vc_router.GenericFlit` that
    additionally knows its destination tile, service class and (for BE)
    its packet — what per-hop XY re-steering and end-to-end measurement
    need.  The baseline router reads only the inherited fields plus the
    ``service_flits`` weight: a BE packet travels as *one* transfer unit
    that occupies each arbitrated switch port and output link for its
    whole serialized length (wormhole/store-and-forward), while a GS
    flit weighs 1 — so the head-of-line penalty a GS flit pays is
    packet-granular, as in a real VC-less router."""

    dst: Coord = Coord(0, 0)
    kind: str = "be"                      # "gs" | "be"
    service_flits: int = 1                # flits serialized per transfer
    is_tail: bool = False
    packet: Optional[BePacket] = None
    connection_id: int = -1
    last: bool = False


class GenericVcNetwork(BaseGraphNetwork):
    """A mesh of generic arbitrated-switch VC routers."""

    def __init__(self, topology: Topology,
                 config: Optional[RouterConfig] = None):
        super().__init__(topology, config=config)
        self.cycle_ns = self.config.timing.link_cycle_ns
        self.routers = {}
        for coord in self.mesh.tiles():
            self.routers[coord] = GenericVcRouter(
                self.sim, ports=5, cycle_ns=self.cycle_ns,
                input_queue_depth=UNBOUNDED_FIFO,
                name=f"generic{coord}")
        for (coord, direction) in self.links:
            self.routers[coord].bind_sink(
                int(direction), self._forwarder(coord, direction))
        for coord in self.mesh.tiles():
            self.routers[coord].bind_sink(
                int(Direction.LOCAL), self._local_sink(coord))

    # -- steering ----------------------------------------------------------

    def _steer(self, here: Coord, flit: MeshRoutedFlit) -> None:
        """Set the flit's output port for the router at ``here``."""
        if flit.dst == here:
            flit.output = int(Direction.LOCAL)
        else:
            flit.output = int(self.topology.next_port(here, flit.dst))

    def _forwarder(self, coord: Coord, direction: Direction):
        """Sink for a network output: count the link crossing, re-steer
        at the neighbour and push into its opposite input port."""
        counters = self.links[(coord, direction)]
        neighbor = coord.step(direction)
        router = self.routers[neighbor]
        in_port = int(direction.opposite)
        label = f"L{coord.x}.{coord.y}.{direction.name}"
        cycle_ns = self.cycle_ns

        def forward(flit: MeshRoutedFlit, _now: float) -> None:
            if flit.kind == "gs":
                counters.gs_flits += 1
            else:
                # A BE transfer unit carries a whole packet: count the
                # flits it serializes, so flit-hop totals stay
                # comparable with the flit-granular backends.
                counters.be_flits += flit.service_flits
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(_now, label, "hop", flit=_trace_tag(flit),
                            cls=flit.kind,
                            dur_ns=cycle_ns * flit.service_flits)
            self._steer(neighbor, flit)
            if not router.try_inject(in_port, flit):  # pragma: no cover
                raise RuntimeError("unbounded input FIFO refused a flit")

        return forward

    def _local_sink(self, coord: Coord):
        """Sink for a LOCAL output: terminate GS flits at their
        connection sink, assemble BE packets on their tail flit."""
        adapter = self.adapters[coord]
        label = f"NA{coord.x}.{coord.y}"

        def deliver(flit: MeshRoutedFlit, now: float) -> None:
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(now, label, "eject", flit=_trace_tag(flit),
                            cls=flit.kind)
            if flit.kind == "gs":
                conn = self.connection_manager.connections[
                    flit.connection_id]
                conn.sink.record(flit, now)
            elif flit.is_tail:
                flit.packet.arrive_time = now
                adapter.deliver_packet(flit.packet)

        return deliver

    # -- transport ---------------------------------------------------------

    def _inject_gs(self, conn: GraphConnection, payload: int,
                   last: bool) -> None:
        flit = MeshRoutedFlit(output=0, flow=f"gs{conn.connection_id}",
                              payload=payload, dst=conn.dst, kind="gs",
                              connection_id=conn.connection_id, last=last)
        self._steer(conn.src, flit)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, f"NA{conn.src.x}.{conn.src.y}",
                        "inject", flit=_trace_tag(flit), cls="gs",
                        dur_ns=self.cycle_ns)
        self.adapters[conn.src].local_link.gs_flits += 1
        router = self.routers[conn.src]
        if not router.try_inject(int(Direction.LOCAL),
                                 flit):  # pragma: no cover
            raise RuntimeError("unbounded input FIFO refused a GS flit")

    def _inject_be(self, adapter: GraphAdapter, dst: Coord,
                   packet: BePacket) -> Generator:
        """One transfer unit per packet, weighing header + payload flits
        (the same flit count as a <=15-hop MANGO BE packet, so offered
        load is comparable across backends).  Injection holds the local
        port for the packet's serialized length, like the MANGO NA."""
        router = self.routers[adapter.coord]
        unit = MeshRoutedFlit(output=0, flow="be", payload=packet.header,
                              dst=dst, kind="be",
                              service_flits=packet.n_flits,
                              is_tail=True, packet=packet,
                              inject_time=packet.inject_time)
        self._steer(adapter.coord, unit)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now,
                        f"NA{adapter.coord.x}.{adapter.coord.y}",
                        "inject", flit=_trace_tag(unit), cls="be",
                        dur_ns=self.cycle_ns * packet.n_flits)
        yield from router.inject(int(Direction.LOCAL), unit)
        yield self.sim.timeout(self.cycle_ns * packet.n_flits)


class GenericVcBackend(RouterBackend):
    """Paper Figure 3 / Section 4.1: the architecture that *cannot*
    guarantee — scored against the reference MANGO contract."""

    name = "generic-vc"
    description = ("arbitrated P x P switch, shared input FIFOs, "
                   "per-VC output buffers — no service guarantees")
    paper_section = "4.1 (Figure 3)"
    has_hard_guarantees = False
    supports_failure_injection = False

    def build_network(self, spec, config: Optional[RouterConfig] = None,
                      obs=None) -> GenericVcNetwork:
        net = GenericVcNetwork(spec.make_topology(config), config=config)
        net.attach_observability(obs)
        return net

    def open_connection(self, network: GenericVcNetwork, src: Coord,
                        dst: Coord) -> GraphConnection:
        """No admission control — Section 4.1's point.  Any request is
        accepted; its flits simply contend with everything else."""
        return network.register_connection(src, dst)

    def latency_bound_ns(self, hops: int,
                         config: Optional[RouterConfig] = None) -> float:
        """The *reference* bound (what a MANGO connection of the same
        length is guaranteed): this backend offers no bound of its own,
        and the verdict measures whether it happens to meet the MANGO
        service level.  Under saturation it measurably does not."""
        from ..analysis.qos import contract_for_path
        return contract_for_path(hops, config or RouterConfig()
                                 ).max_latency_ns
