"""The best-effort router (paper Section 5, Figure 7).

A simple source-routing wormhole router: the two MSBs of the header flit
select one of the four network output ports; selecting the direction the
packet came from routes it to the local port; the header is rotated two
bits per hop.  A route beyond the 15-move capacity of one 32-bit word
travels as chained route words (see :mod:`repro.network.routing`): when
the turn-back marker appears while header-extension flits remain, the
router strips the spent word and promotes the next extension flit to
route the same hop.  Outputs arbitrate fairly between contending inputs and an
input keeps its grant until the tail flit has passed (packet coherency).
Per-hop flow control on the BE channels is credit-based, handled
separately from the GS VC control module.

The BE router is integrated into the GS router (Figure 8): its network
outputs feed the BE transmit channels that share each link through the
link arbiter, and its network inputs are fed by the split modules (three
steering bits stripped, 34 bits remaining).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..network.packet import BeFlit
from ..network.routing import header_direction, rotate_header
from ..network.topology import Direction, NETWORK_DIRECTIONS
from ..sim.kernel import Event, Simulator
from ..sim.resources import Resource, Store

__all__ = ["BeRouter"]

_INPUT_KEYS = tuple(NETWORK_DIRECTIONS) + (Direction.LOCAL,)


class BeRouter:
    """5-input/5-output source-routing wormhole router."""

    def __init__(self, sim: Simulator, router, name: str):
        self.sim = sim
        self.router = router
        self.config = router.config
        self.name = name
        depth = self.config.be_buffer_depth
        vcs = max(1, self.config.be_channels)
        self.vcs = vcs
        # One input buffer per (input port, BE VC).
        self.inputs: Dict[Tuple[Direction, int], Store] = {
            (direction, vc): Store(sim, capacity=depth,
                                   name=f"{name}.in.{direction.name}.{vc}")
            for direction in _INPUT_KEYS for vc in range(vcs)
        }
        # Output locks give wormhole packet coherency; FIFO grant order is
        # the fair arbitration of the paper (no input starves).
        self.output_locks: Dict[Tuple[Direction, int], Resource] = {
            (direction, vc): Resource(sim, 1,
                                      name=f"{name}.lock.{direction.name}.{vc}")
            for direction in _INPUT_KEYS for vc in range(vcs)
        }
        # Local delivery: raw flits to be assembled by the local BE port.
        self.local_out = Store(sim, name=f"{name}.local_out")
        self.packets_routed = 0
        self.flits_routed = 0
        # Spent chained-route words consumed at their chunk-boundary
        # router (each one frees an upstream credit without being
        # forwarded) — observability for the header-extension path.
        self.route_words_stripped = 0
        # One input stage per input buffer, listed per direction: accept()
        # runs per flit per hop, and a list index beats a tuple-keyed
        # dict lookup.
        self._stages_by_dir: Dict[Direction, List[_InputStage]] = {
            direction: [_InputStage(self, direction, vc)
                        for vc in range(vcs)]
            for direction in _INPUT_KEYS
        }

    def accept(self, in_dir: Direction, flit: BeFlit) -> None:
        """Arrival from a split module (or the local injection path).

        Credits guarantee space for the flits buffered plus the one the
        input stage holds (taken from the buffer, its credit not yet
        returned); more is a protocol violation.
        """
        vc = flit.vc if flit.vc < self.vcs else 0
        stage = self._stages_by_dir[in_dir][vc]
        store = stage.buf
        if len(store.items) + stage.held >= store.capacity \
                or not store.try_put(flit):
            raise RuntimeError(
                f"{self.name}: BE input buffer {in_dir.name}/{vc} overflow "
                "(credit protocol violated)")

    def _route(self, in_dir: Direction, header_word: int) -> Direction:
        """Section 5 routing: 2 MSBs pick the output; the way back in is
        the local port."""
        direction = header_direction(header_word)
        if in_dir.is_network and direction == in_dir:
            return Direction.LOCAL
        return direction

    def _credit_fn(self, in_dir: Direction):
        """Per-flit credit-return callable, resolved once per input
        stage after the network is wired (links attach post-init)."""
        if in_dir is Direction.LOCAL:
            return self.router.local_link.return_be_credit
        link = self.router.input_links.get(in_dir)
        if link is not None:
            return link.return_be_credit
        return None

    def _out_queue(self, out_dir: Direction, vc: int) -> Store:
        """The store one packet's flits stream into (fixed per packet)."""
        if out_dir is Direction.LOCAL:
            return self.local_out
        port = self.router.output_ports[out_dir]
        if not port.be_tx:
            raise RuntimeError(
                f"{self.name}: BE flit towards {out_dir.name} but the "
                "router has no BE channels configured")
        return port.be_tx[min(vc, len(port.be_tx) - 1)].queue


class _InputStage:
    """One (input port, BE VC) of the router as a callback state machine.

    Head decode, chained-route stripping, the output lock and the
    per-flit buffer stage run as plain calls while nothing blocks them;
    the stage parks a bound method on the input store, output lock or
    output queue event only when it has to wait.  Delays are deferred
    calls, which the kernel orders exactly like timeouts.
    """

    __slots__ = ("be", "in_dir", "vc", "buf", "sim", "decode_ns",
                 "stage_ns", "credit", "held", "head", "out_dir", "lock",
                 "out_queue", "flit")

    def __init__(self, be: BeRouter, in_dir: Direction, vc: int):
        self.be = be
        self.in_dir = in_dir
        self.vc = vc
        self.buf = be.inputs[(in_dir, vc)]
        self.sim = be.sim
        timing = be.config.timing
        self.decode_ns = timing.ns(timing.delays.be_route_decode)
        self.stage_ns = timing.ns(timing.delays.be_buffer_stage)
        self.credit = None
        #: Flits taken from the buffer whose credit is not yet returned.
        self.held = 0
        self.head: Optional[BeFlit] = None     # the packet's header
        self.out_dir: Optional[Direction] = None
        self.lock: Optional[Resource] = None
        self.out_queue: Optional[Store] = None
        self.flit: Optional[BeFlit] = None     # the flit being forwarded
        self._next_head()

    def _next_head(self) -> None:
        flit = self.buf.try_get()
        if flit is None:
            self.buf.get().callbacks = self._head_arrived
        else:
            self._decode(flit)

    def _head_arrived(self, event: Event) -> None:
        self._decode(event._value)

    def _decode(self, head: BeFlit) -> None:
        self.held = 1
        be = self.be
        if self.credit is None:
            # Links attach after construction, so the credit wire is
            # resolved on first traffic and reused for every flit.
            self.credit = be._credit_fn(self.in_dir) or (lambda _vc: None)
        if not head.is_head:
            raise RuntimeError(
                f"{be.name}: body flit at packet boundary on "
                f"{self.in_dir.name}/{self.vc} (wormhole coherency broken)")
        self.head = head
        self.out_dir = be._route(self.in_dir, head.word)
        self.sim.defer(self.decode_ns, self._decoded)

    def _decoded(self) -> None:
        if self.out_dir is Direction.LOCAL and self.head.route_ext > 0:
            # Turn-back marker with extension words remaining: the route
            # word is spent, not a delivery.  The next header-extension
            # flit becomes the new header and re-decides this hop.
            ext = self.buf.try_get()
            if ext is None:
                self.buf.get().callbacks = self._ext_arrived
            else:
                self._strip(ext)
            return
        lock = self.be.output_locks[(self.out_dir, self.vc)]
        self.lock = lock
        if lock.try_acquire():
            self._locked()
        else:
            lock.request().callbacks = self._locked

    def _ext_arrived(self, event: Event) -> None:
        self._strip(event._value)

    def _strip(self, ext: BeFlit) -> None:
        """Drop the spent route word (its buffer slot goes back upstream
        as a credit) and promote the extension flit to header."""
        self.credit(self.vc)
        be = self.be
        be.route_words_stripped += 1
        head = self.head
        self.head = BeFlit(ext.word, is_head=True, is_tail=ext.is_tail,
                           vc=head.vc, packet_id=head.packet_id,
                           inject_time=head.inject_time,
                           route_ext=head.route_ext - 1)
        self.out_dir = be._route(self.in_dir, ext.word)
        self.sim.defer(self.decode_ns, self._decoded)

    def _locked(self, _event: Optional[Event] = None) -> None:
        """Output granted: it stays this packet's until the tail."""
        try:
            self.out_queue = self.be._out_queue(self.out_dir, self.vc)
        except RuntimeError:
            self.lock.release()
            raise
        head = self.head
        self._forward(BeFlit(rotate_header(head.word), is_head=True,
                             is_tail=head.is_tail, vc=head.vc,
                             packet_id=head.packet_id,
                             inject_time=head.inject_time,
                             route_ext=head.route_ext))

    def _forward(self, flit: BeFlit) -> None:
        self.flit = flit
        if self.out_queue.try_put(flit):
            self._forwarded()
        else:
            self.out_queue.put(flit).callbacks = self._forwarded

    def _forwarded(self, _event: Optional[Event] = None) -> None:
        self.credit(self.vc)
        self.held = 0
        be = self.be
        be.flits_routed += 1
        if self.flit.is_tail:
            be.packets_routed += 1
            self.lock.release()
            self._next_head()
            return
        body = self.buf.try_get()
        if body is None:
            self.buf.get().callbacks = self._body_arrived
        else:
            self._stage(body)

    def _body_arrived(self, event: Event) -> None:
        self._stage(event._value)

    def _stage(self, flit: BeFlit) -> None:
        self.held = 1
        self.flit = flit
        self.sim.defer(self.stage_ns, self._staged)

    def _staged(self) -> None:
        self._forward(self.flit)
