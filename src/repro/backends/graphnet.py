"""Shared topology-graph scaffolding for the non-MANGO backend networks.

The generic-VC, TDM, ring and routerless backends lift event-level
router models into full scenario-runnable networks.  What they share —
a :class:`~repro.network.topology.Topology` of tiles, a pluggable route
function (the topology's deterministic default unless overridden),
per-link flit counters that feed the flit-hop fingerprint, adapter
shims that speak the ``send_be``/``be_inbox`` protocol of the traffic
generators, and ``GsSink``-terminated connection handles — lives here;
each backend module contributes only its architecture's transport
discipline.

Everything is keyed on **graph links** — ``(node, port)`` pairs from
:meth:`Topology.graph_links` — so the same scaffolding drives a 4-port
mesh (ports are :class:`~repro.network.topology.Direction`) and a
2-port ring (ports are :class:`~repro.network.topology.Port`).

:class:`FairShareNetwork` is the transport the ring and routerless
fabrics share: per-link round-robin over per-connection GS queues with
BE in idle cycles — MANGO's fair-share discipline (paper Section 4.2)
applied to a non-grid link graph, which is what makes a
``hops x (sharers + 1) x cycle`` latency bound analytical on any
fabric (:func:`repro.analysis.qos.loop_contract_for_path`).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, List, Optional, Tuple

from ..core.config import RouterConfig
from ..network.connection import AdmissionError, GsSink
from ..network.packet import BePacket
from ..network.topology import Coord, Topology
from ..sim.kernel import Simulator
from ..sim.resources import Store
from ..sim.tracing import NULL_TRACER

__all__ = [
    "LinkCounters",
    "LocalInjectCounter",
    "GraphAdapter",
    "GraphConnection",
    "ConnectionRegistry",
    "BaseGraphNetwork",
    "FairShareFlit",
    "FairShareLink",
    "FairShareNetwork",
]

#: Tolerance when mapping continuous time onto cycle boundaries.
_EPS = 1e-9


def _trace_tag(flit) -> str:
    """Run-relative flit label for trace records (never the process-global
    flit/packet counters, so repeated runs export identical bytes)."""
    if flit.kind == "gs":
        return f"c{flit.connection_id}.{flit.payload}"
    packet = flit.packet
    pid = packet.packet_id if packet is not None else -1
    return f"p{pid}.{flit.payload}"


class LinkCounters:
    """Per-link GS/BE traversal counts — the duck type the flit-hop
    fingerprint and the runner's flit-hop total read off ``net.links``."""

    __slots__ = ("gs_flits", "be_flits")

    def __init__(self):
        self.gs_flits = 0
        self.be_flits = 0


class LocalInjectCounter:
    """Stands in for :class:`~repro.network.link.LocalLink` in the
    fingerprint: counts GS flits injected at a tile's local port."""

    __slots__ = ("gs_flits",)

    def __init__(self):
        self.gs_flits = 0


class ConnectionRegistry:
    """Duck type for ``net.connection_manager``: the fingerprint hashes
    each open connection's delivered count and payload sum through
    ``connection_manager.connections[cid].sink``."""

    def __init__(self):
        self.connections: Dict[int, "GraphConnection"] = {}


class GraphConnection:
    """A GS connection on a backend network: a port-sequence route over
    the topology graph, terminated by a ``GsSink``.

    Mirrors the surface of :class:`~repro.network.connection.Connection`
    that GS traffic sources and per-connection verdicts use: ``send``,
    ``n_hops``, ``sink``, ``src``/``dst``.  The route defaults to the
    network's route function (XY on the mesh); admission-controlled
    backends may pass an explicit ``route`` chosen among the topology's
    candidates.
    """

    def __init__(self, network: "BaseGraphNetwork", connection_id: int,
                 src: Coord, dst: Coord, route: Optional[List] = None):
        self.network = network
        self.connection_id = connection_id
        self.src = src
        self.dst = dst
        self.route = list(route) if route is not None \
            else list(network.route_fn(src, dst))
        #: Grid-era alias: on the mesh the ports *are* the XY moves.
        self.moves = self.route
        self.link_keys = network.topology.route_links(src, self.route)
        self.sink = GsSink()
        self.sent_count = 0

    @property
    def n_hops(self) -> int:
        return len(self.route)

    def path_links(self) -> List[Tuple[Coord, object]]:
        """The (source node, output port) key of every link on the
        route."""
        return list(self.link_keys)

    def send(self, payload: int, last: bool = False):
        """Queue one flit at the source tile (application side,
        non-blocking — like the MANGO NA's unbounded endpoint queue)."""
        self.sent_count += 1
        return self.network._inject_gs(self, payload, last)


class GraphAdapter:
    """A tile's network interface on a backend network.

    Speaks the two protocols the traffic layer expects of
    :class:`~repro.network.adapter.NetworkAdapter`: ``send_be(dst,
    words, vc)`` as a blocking sub-generator for the BE sources, and
    ``be_inbox`` — a :class:`~repro.sim.resources.Store` of delivered
    :class:`~repro.network.packet.BePacket` objects — for the
    collectors.  Same-tile traffic loops back locally, exactly as the
    MANGO NA does (zero network hops, zero latency).
    """

    def __init__(self, network: "BaseGraphNetwork", coord: Coord):
        self.network = network
        self.coord = coord
        self.sim = network.sim
        self.be_inbox = Store(network.sim, name=f"backend.NA{coord}.inbox")
        self.local_link = LocalInjectCounter()
        self.be_packets_sent = 0
        self.be_packets_received = 0

    def send_be(self, dst: Coord, words: List[int], vc: int = 0
                ) -> Generator:
        """Sub-generator: inject one BE packet routed to ``dst``."""
        now = self.sim.now
        if dst == self.coord:
            packet = BePacket(header=0, words=list(words), packet_id=-1,
                              src=self.coord, inject_time=now,
                              arrive_time=now)
            self.deliver_packet(packet)
            return
        packet = BePacket(header=0, words=list(words),
                          packet_id=self.network.next_packet_id(),
                          src=self.coord, inject_time=now)
        self.be_packets_sent += 1
        yield from self.network._inject_be(self, dst, packet)

    def deliver_packet(self, packet: BePacket) -> None:
        """Hand a fully arrived packet to whatever collector drains the
        inbox (the inbox is unbounded, so the put cannot fail)."""
        self.be_packets_received += 1
        if not self.be_inbox.try_put(packet):  # pragma: no cover
            raise RuntimeError("unbounded inbox refused a put")


class BaseGraphNetwork:
    """Common state and drive surface of the backend networks.

    Parameterized by a topology and a route function; subclasses
    implement the transport: :meth:`_inject_gs` (queue a GS flit at the
    source) and :meth:`_inject_be` (sub-generator injecting one BE
    packet's flits).  Everything the runner drives or measures —
    ``run``/``run_batch``/``now``, the ``links`` counter map keyed on
    graph links, adapters, the connection registry — is provided here.
    """

    def __init__(self, topology: Topology,
                 config: Optional[RouterConfig] = None,
                 route_fn=None):
        self.config = config or RouterConfig()
        self.topology = topology
        #: The traffic patterns and the fingerprint read the tile
        #: geometry off ``net.mesh``; every fabric provides it.
        self.mesh = topology
        self.sim = Simulator()
        #: Trace emit point shared by every transport; links read it per
        #: emit, so an ObsConfig can attach after construction.
        self.tracer = NULL_TRACER
        self.route_fn = route_fn or topology.route_ports
        self.links: Dict[Tuple[Coord, object], LinkCounters] = {
            link.key: LinkCounters() for link in topology.graph_links()
        }
        self.adapters: Dict[Coord, GraphAdapter] = {
            coord: GraphAdapter(self, coord) for coord in topology.tiles()
        }
        self.connection_manager = ConnectionRegistry()
        self._conn_ids = itertools.count(1)
        self._packet_ids = itertools.count(1)

    # -- construction helpers ----------------------------------------------

    def next_packet_id(self) -> int:
        return next(self._packet_ids)

    def attach_observability(self, obs) -> None:
        """Late-bind an :class:`repro.obs.ObsConfig`: transports read
        ``self.tracer`` per emit, so attaching after construction is
        exact."""
        if obs is not None and obs.tracer is not None:
            self.tracer = obs.tracer

    def register_connection(self, src: Coord, dst: Coord,
                            route: Optional[List] = None
                            ) -> GraphConnection:
        conn = GraphConnection(self, next(self._conn_ids), src, dst,
                               route=route)
        self.connection_manager.connections[conn.connection_id] = conn
        return conn

    # -- simulation control ------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def run_batch(self, until: Optional[float] = None,
                  max_events: Optional[int] = None) -> int:
        return self.sim.run_batch(until=until, max_events=max_events)

    @property
    def events_processed(self) -> int:
        return self.sim.events_processed

    # -- transport (architecture-specific) ---------------------------------

    def _inject_gs(self, conn: GraphConnection, payload: int,
                   last: bool) -> None:
        raise NotImplementedError

    def _inject_be(self, adapter: GraphAdapter, dst: Coord,
                   packet: BePacket) -> Generator:
        raise NotImplementedError


# -- fair-share graph transport (ring / routerless fabrics) ------------------


@dataclass
class FairShareFlit:
    """One flit on a fair-share fabric: payload plus its precomputed
    link-key route and measurement tags."""

    payload: int
    dst: Coord
    keys: List[Tuple[Coord, object]]      # (node, port) per hop
    hop: int = 0                          # index of the link being crossed
    kind: str = "be"                      # "gs" | "be"
    inject_time: float = -1.0
    is_tail: bool = False
    packet: Optional[BePacket] = None
    connection_id: int = -1
    last: bool = False


class FairShareLink:
    """One directed graph link under fair-share arbitration.

    Event-driven like the TDM slot wheel, but with MANGO's discipline
    instead of a reservation table: at each cycle boundary one flit
    departs — round-robin over the per-connection GS queues first, the
    BE FIFO only when no GS flit waits.  With at most ``gs_capacity``
    connections admitted per link, a queued GS flit departs within
    ``gs_capacity`` boundaries, which is what makes the per-hop bound
    of :func:`repro.analysis.qos.loop_contract_for_path` analytical.
    """

    def __init__(self, network: "FairShareNetwork",
                 key: Tuple[Coord, object], dst_node: Coord, counters):
        self.network = network
        self.sim = network.sim
        self.cycle_ns = network.cycle_ns
        self.key = key
        self.dst_node = dst_node
        self.counters = counters
        port = key[1]
        self.label = f"L{key[0].x}.{key[0].y}.{getattr(port, 'name', port)}"
        self.gs_queues: Dict[int, Deque[FairShareFlit]] = {}
        self.gs_order: List[int] = []       # admission order
        self._rr_index = 0                  # round-robin cursor
        self.be_queue: Deque[FairShareFlit] = deque()
        self._armed_cycle: Optional[int] = None
        self._min_next_cycle = 0            # one departure per boundary

    def admit(self, connection_id: int) -> None:
        self.gs_queues[connection_id] = deque()
        self.gs_order.append(connection_id)

    def enqueue(self, flit: FairShareFlit) -> None:
        if flit.kind == "gs":
            self.gs_queues[flit.connection_id].append(flit)
        else:
            self.be_queue.append(flit)
        self._schedule()

    def _next_eligible_cycle(self) -> Optional[int]:
        """Fair share has no slot ownership: any queued flit may depart
        at the next free boundary."""
        if not self.be_queue and not any(self.gs_queues.values()):
            return None
        return max(math.ceil(self.sim.now / self.cycle_ns - _EPS),
                   self._min_next_cycle)

    def _schedule(self) -> None:
        cycle = self._next_eligible_cycle()
        if cycle is None:
            return
        if self._armed_cycle is not None and self._armed_cycle <= cycle:
            return
        self._armed_cycle = cycle
        self.sim.defer(max(0.0, cycle * self.cycle_ns - self.sim.now),
                       self._fire, cycle)

    def _pick_gs(self) -> Optional[FairShareFlit]:
        """The next waiting GS queue in round-robin order, advancing the
        cursor past the served queue (MANGO's fair share: each sharer
        gets every ``sharers``-th boundary under full load)."""
        n = len(self.gs_order)
        for offset in range(n):
            index = (self._rr_index + offset) % n
            queue = self.gs_queues[self.gs_order[index]]
            if queue:
                self._rr_index = (index + 1) % n
                return queue.popleft()
        return None

    def _fire(self, cycle: int) -> None:
        if cycle != self._armed_cycle:
            return                          # superseded by a re-arm
        self._armed_cycle = None
        self._min_next_cycle = cycle + 1
        flit = self._pick_gs() if self.gs_order else None
        if flit is not None:
            self.counters.gs_flits += 1
        elif self.be_queue:
            flit = self.be_queue.popleft()
            self.counters.be_flits += 1
        else:  # pragma: no cover - queues only grow while armed
            self._schedule()
            return
        # The flit occupies this cycle on the wire; it is at the next
        # node for the following boundary.
        tracer = self.network.tracer
        if tracer.enabled:
            # Timestamped at the exact boundary (cycle * cycle_ns), not
            # the float-accumulated dispatch time.
            tracer.emit(cycle * self.cycle_ns, self.label, "hop",
                        flit=_trace_tag(flit), cls=flit.kind,
                        dur_ns=self.cycle_ns, cycle=cycle)
        arrive = (cycle + 1) * self.cycle_ns
        self.sim.defer(max(0.0, arrive - self.sim.now),
                       self.network._arrive, flit)
        self._schedule()


class FairShareNetwork(BaseGraphNetwork):
    """Fair-share transport over an arbitrary topology graph — the
    network model behind the ring and routerless backends.

    Admission control caps each link at ``config.vcs_per_port`` GS
    connections (the fabric-side analogue of MANGO running out of VCs)
    and tries the topology's candidate routes in preference order, so
    fabrics with path diversity (both ring arcs, overlapping loops)
    route around full links before rejecting.
    """

    def __init__(self, topology: Topology,
                 config: Optional[RouterConfig] = None):
        super().__init__(topology, config=config)
        self.cycle_ns = self.config.timing.link_cycle_ns
        #: GS connections admitted per link before rejection.
        self.gs_capacity = self.config.vcs_per_port
        self.fair_links: Dict[Tuple[Coord, object], FairShareLink] = {
            link.key: FairShareLink(self, link.key, link.dst,
                                    self.links[link.key])
            for link in topology.graph_links()
        }

    # -- GS allocation -----------------------------------------------------

    def allocate_connection(self, src: Coord, dst: Coord
                            ) -> GraphConnection:
        """Admit on the first candidate route with residual capacity on
        every link; reject when all candidates hit a full link."""
        for route in self.topology.candidate_routes(src, dst):
            keys = self.topology.route_links(src, route)
            if all(len(self.fair_links[key].gs_order) < self.gs_capacity
                   for key in keys):
                conn = self.register_connection(src, dst, route=route)
                for key in keys:
                    self.fair_links[key].admit(conn.connection_id)
                return conn
        raise AdmissionError(
            f"no {self.topology.name} route {src}->{dst} with a free GS "
            f"queue ({self.gs_capacity} connections per link)")

    # -- transport ---------------------------------------------------------

    def _inject_gs(self, conn: GraphConnection, payload: int,
                   last: bool) -> None:
        flit = FairShareFlit(payload=payload, dst=conn.dst,
                             keys=conn.link_keys, kind="gs",
                             inject_time=self.sim.now,
                             connection_id=conn.connection_id, last=last)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, f"NA{conn.src.x}.{conn.src.y}",
                        "inject", flit=_trace_tag(flit), cls="gs",
                        dur_ns=self.cycle_ns)
        self.adapters[conn.src].local_link.gs_flits += 1
        self.fair_links[conn.link_keys[0]].enqueue(flit)

    def _inject_be(self, adapter: GraphAdapter, dst: Coord,
                   packet: BePacket) -> Generator:
        """BE packets travel flit-granular (header word then payload),
        one cycle apart at the injection port, along the default
        route."""
        keys = self.topology.route_links(
            adapter.coord, self.route_fn(adapter.coord, dst))
        first = self.fair_links[keys[0]]
        words = [packet.header] + packet.words
        for index, word in enumerate(words):
            flit = FairShareFlit(
                payload=word, dst=dst, keys=keys, kind="be",
                inject_time=packet.inject_time,
                is_tail=(index == len(words) - 1), packet=packet)
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(self.sim.now,
                            f"NA{adapter.coord.x}.{adapter.coord.y}",
                            "inject", flit=_trace_tag(flit), cls="be",
                            dur_ns=self.cycle_ns)
            first.enqueue(flit)
            yield self.sim.timeout(self.cycle_ns)

    def _arrive(self, flit: FairShareFlit) -> None:
        flit.hop += 1
        if flit.hop == len(flit.keys):
            tracer = self.tracer
            if tracer.enabled and (flit.kind == "gs" or flit.is_tail):
                tracer.emit(self.sim.now,
                            f"NA{flit.dst.x}.{flit.dst.y}", "eject",
                            flit=_trace_tag(flit), cls=flit.kind)
            if flit.kind == "gs":
                conn = self.connection_manager.connections[
                    flit.connection_id]
                conn.sink.record(flit, self.sim.now)
            elif flit.is_tail:
                flit.packet.arrive_time = self.sim.now
                self.adapters[flit.dst].deliver_packet(flit.packet)
            return
        self.fair_links[flit.keys[flit.hop]].enqueue(flit)
