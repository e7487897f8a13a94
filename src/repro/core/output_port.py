"""Output-buffered ports (paper Section 4.4).

MANGO places the VC buffers at the outputs: because a connection is a
reserved sequence of VCs, the target VC buffer of an incoming flit is
deterministic, so no arbitration is needed between the switch and the
buffers — only at link access.  Each VC slot holds one flit in the
unsharebox latch plus one in a single-flit buffer; the unlock toggle fires
when a flit moves from the unsharebox into the buffer.

The flow-control strategy is pluggable (Section 4.3): share-based (the
paper's GS scheme — one wire per VC, cheapest) or credit-based (the
"commonly used" scheme: better average-case at higher cost), so the two
can be compared on the same link (`benchmarks/bench_vc_control_schemes.py`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..circuits.sharebox import Sharebox, ShareProtocolError, Unsharebox
from ..network.packet import BeFlit, GsFlit
from ..network.topology import Direction
from ..sim.kernel import Event, Simulator
from ..sim.resources import Gate, Store
from .config import RouterConfig
from .link_arbiter import LinkArbiter

__all__ = [
    "ShareFlow",
    "CreditFlow",
    "VcSlot",
    "VcSlots",
    "NetworkOutputPort",
    "LocalOutputPort",
    "BeTxChannel",
]


class ShareFlow:
    """Share-based VC control: lock on admit, unlock from downstream."""

    scheme = "share"

    def __init__(self, sim: Simulator, name: str = "share"):
        self._box = Sharebox(sim, name=name)

    def wait_ready(self) -> Event:
        return self._box.wait_unlocked()

    @property
    def ready(self) -> bool:
        return not self._box.locked

    def admit(self) -> None:
        self._box.admit()

    def release(self) -> None:
        self._box.unlock()

    @property
    def admitted(self) -> int:
        return self._box.admitted


class CreditFlow:
    """Credit-based VC control: a window of ``window`` flits in flight.

    Cheaper schemes lock per flit; credits let a single VC pipeline
    several flits into the downstream buffer, improving average-case
    throughput at the cost of counters, wider reverse signalling and
    deeper downstream buffers (area model: `analysis.area`).
    """

    scheme = "credit"

    def __init__(self, sim: Simulator, window: int, name: str = "credit"):
        if window < 1:
            raise ValueError("credit window must be >= 1")
        self.window = window
        self.credits = window
        self._gate = Gate(sim, is_open=True, name=f"{name}.gate")
        self.admitted_count = 0

    def wait_ready(self) -> Event:
        return self._gate.wait_open()

    @property
    def ready(self) -> bool:
        return self.credits > 0

    def admit(self) -> None:
        if self.credits <= 0:
            raise ShareProtocolError("credit underflow")
        self.credits -= 1
        self.admitted_count += 1
        if self.credits == 0:
            self._gate.close()

    def release(self) -> None:
        if self.credits >= self.window:
            raise ShareProtocolError("credit overflow (spurious return)")
        self.credits += 1
        self._gate.open()

    @property
    def admitted(self) -> int:
        return self.admitted_count


def make_flow(config: RouterConfig, sim: Simulator, name: str):
    if config.flow_control == "credit":
        return CreditFlow(sim, config.credit_window, name=name)
    return ShareFlow(sim, name=name)


class VcSlot:
    """One output VC: unsharebox latch -> single-flit buffer -> link.

    ``on_departed`` is wired to the VC control module: it fires when a
    flit leaves the unsharebox, which is what toggles the unlock wire
    back along the connection.

    Both stages of the slot are callback state machines: the mover
    (unsharebox -> buffer) and, on a network port, the sender (buffer ->
    link).  Each runs straight through while nothing blocks it and parks
    itself on the store or gate event it waits for otherwise.  A stage
    with no flit to work on is idle; the one producer feeding it (the
    switch for the mover, the mover for the sender) restarts it.
    """

    def __init__(self, sim: Simulator, config: RouterConfig,
                 out_port: Direction, vc: int,
                 on_departed: Callable[[], None], name: str):
        self.sim = sim
        self.config = config
        self.out_port = out_port
        self.vc = vc
        self.name = name
        latch_capacity = (config.credit_window
                          if config.flow_control == "credit" else 1)
        self.unsharebox = Unsharebox(sim, name=f"{name}.ub")
        # Credit mode needs the downstream landing space to cover the
        # window; share mode is exactly one flit as in the paper.
        self.unsharebox.latch.capacity = latch_capacity
        self.unsharebox.on_unlock(on_departed)
        self.buffer = Store(sim, capacity=1, name=f"{name}.buf")
        self.flow = make_flow(config, sim, name=f"{name}.flow")
        self.flits_through = 0
        self._transfer_ns = config.timing.unshare_transfer_ns()
        self._mover_idle = True
        self._sender_idle = False   # no sender until start_sender()
        self._port: Optional["NetworkOutputPort"] = None

    def accept(self, flit: GsFlit) -> None:
        """Arrival from the switching module into the unsharebox."""
        self.unsharebox.accept(flit)
        if self._mover_idle:
            self._mover_idle = False
            self._move()

    def _move(self, _event: Optional[Event] = None) -> None:
        """Mover: once a flit is latched and the buffer has space, spend
        the unshare transfer time, then move it."""
        if not self.unsharebox.latch.items:
            self._mover_idle = True
            return
        buffer = self.buffer
        if len(buffer.items) >= buffer.capacity:
            buffer.when_space().callbacks = self._move
            return
        self.sim.defer(self._transfer_ns, self._transfer)

    def _transfer(self) -> None:
        """Unsharebox -> buffer; the departure fires the unlock."""
        flit = self.unsharebox.leave()
        if not self.buffer.try_put(flit):
            raise ShareProtocolError(
                f"{self.name}: buffer stolen during unshare transfer")
        if self._sender_idle:
            self._sender_idle = False
            self._send()
        self.flits_through += 1
        self._move()

    def start_sender(self, port: "NetworkOutputPort") -> None:
        """Contend for ``port``'s link whenever the head flit may
        advance (network ports only; the NA drains a local slot)."""
        self._port = port
        self._send()

    def _send(self, _event: Optional[Event] = None) -> None:
        """Sender: request the link once a flit is buffered and the VC
        flow control admits one onto the media."""
        if not self.buffer.items:
            self._sender_idle = True
            return
        flow = self.flow
        if not flow.ready:
            flow.wait_ready().callbacks = self._send
            return
        self._port._contend(self.vc, self._granted)

    def _granted(self, _grant_time: float) -> None:
        flit = self.buffer.try_get()
        if flit is None:  # pragma: no cover - single consumer
            raise ShareProtocolError(f"{self.name}: buffer raced empty")
        self.flow.admit()
        port = self._port
        entry = port._require(self.out_port, self.vc)
        if entry.steering is None:
            raise ShareProtocolError(
                f"{self.name}: network VC without forward steering")
        port._bump("gs_link_flits")
        port._transmit_gs(flit, entry.steering)
        self._send()

    @property
    def occupancy(self) -> int:
        return len(self.buffer) + len(self.unsharebox.latch)


class VcSlots:
    """A port's VC slots, indexable by VC; a slot is built on first access.

    A VC buffer carries GS flits only while a connection reserves it, so
    a slot no connection ever uses is never built.  ``built`` is the raw
    per-VC list, ``None`` where no slot exists yet: the GS switch indexes
    it directly and falls back to ``slots[vc]`` on a miss, and readers
    that must not build (occupancy, metrics probes) read it alone.
    Building a slot schedules no event, so when it happens cannot move
    the simulation.
    """

    __slots__ = ("built", "_build")

    def __init__(self, count: int, build: Callable[[int], VcSlot]):
        self.built: List[Optional[VcSlot]] = [None] * count
        self._build = build

    def __len__(self) -> int:
        return len(self.built)

    def __getitem__(self, vc: int) -> VcSlot:
        slot = self.built[vc]
        if slot is None:
            slot = self.built[vc] = self._build(vc)
        return slot


class BeTxChannel:
    """BE side of a network output port: queue + credit counter.

    The BE channel shares the physical link through the same arbiter but
    has its own credit-based flow control, handled separately from the VC
    control module (paper Sections 4.3 and 5).  Its sender is a callback
    state machine like the GS one in :class:`VcSlot`.
    """

    def __init__(self, sim: Simulator, config: RouterConfig, vc: int,
                 name: str):
        self.sim = sim
        self.config = config
        self.vc = vc
        self.name = name
        self.queue = Store(sim, capacity=config.be_queue_depth,
                           name=f"{name}.q")
        self.credits = config.be_buffer_depth
        self._gate = Gate(sim, is_open=True, name=f"{name}.credits")
        self.flits_sent = 0
        # Waits for a downstream credit: counted once per wait, for
        # whichever queued flit (head or body) found zero credits.
        self.credit_stalls = 0

    def credit_return(self) -> None:
        if self.credits >= self.config.be_buffer_depth:
            raise ShareProtocolError(f"{self.name}: BE credit overflow")
        self.credits += 1
        self._gate.open()

    def consume_credit(self) -> None:
        if self.credits <= 0:
            raise ShareProtocolError(f"{self.name}: BE credit underflow")
        self.credits -= 1
        if self.credits == 0:
            self._gate.close()

    def start_sender(self, port: "NetworkOutputPort") -> None:
        """Contend for ``port``'s link whenever a queued flit has a
        downstream credit."""
        self._port = port
        self._rid = self.config.vcs_per_port + self.vc
        self._send()

    def _send(self, _event: Optional[Event] = None) -> None:
        queue = self.queue
        if not queue.items:
            queue.when_any().callbacks = self._send
            return
        if self.credits <= 0:
            # The gate opens only on a credit return, so the retry finds
            # a credit and this stall episode is counted exactly once.
            self.credit_stalls += 1
            self._gate.wait_open().callbacks = self._send
            return
        self._port._contend(self._rid, self._granted)

    def _granted(self, _grant_time: float) -> None:
        flit = self.queue.try_get()
        if flit is None:  # pragma: no cover - single consumer
            raise ShareProtocolError(f"{self.name}: queue raced empty")
        self.consume_credit()
        self.flits_sent += 1
        port = self._port
        port._bump("be_link_flits")
        port._transmit_be(flit)
        self._send()


class NetworkOutputPort:
    """A network output: V VC slots + BE channels + the link arbiter.

    The port is created unattached; :meth:`attach_link` wires it to the
    physical link and starts the senders (the arbiter cycle time depends
    on the link's pipelining).  A VC slot built later starts its sender
    as it is built.
    """

    def __init__(self, sim: Simulator, router, direction: Direction,
                 name: str):
        self.sim = sim
        self.router = router
        self.config: RouterConfig = router.config
        self.direction = direction
        self.name = name
        self.slots = VcSlots(self.config.vcs_per_port, self._build_slot)
        self.be_tx: List[BeTxChannel] = [
            BeTxChannel(sim, self.config, vc, name=f"{name}.be{vc}")
            for vc in range(self.config.be_channels)
        ]
        self.link = None
        self.arbiter: Optional[LinkArbiter] = None

    def slot_name(self, vc: int) -> str:
        return f"{self.name}.vc{vc}"

    def _build_slot(self, vc: int) -> VcSlot:
        slot = VcSlot(self.sim, self.config, self.direction, vc,
                      on_departed=self._departure_hook(vc),
                      name=self.slot_name(vc))
        if self.link is not None:
            slot.start_sender(self)
        return slot

    def _departure_hook(self, vc: int) -> Callable[[], None]:
        def hook():
            self.router.vc_control.departed(self.direction, vc)
        return hook

    def attach_link(self, link) -> None:
        if self.link is not None:
            raise ValueError(f"{self.name}: link already attached")
        self.link = link
        from .link_arbiter import make_policy
        policy = make_policy(self.config.arbiter,
                             self.config.link_requesters)
        self.arbiter = LinkArbiter(
            self.sim, policy, cycle_ns=link.media_cycle_ns,
            arbitration_ns=self.config.timing.arbitration_ns(),
            name=f"{self.name}.arb", tracer=self.router.tracer)
        # The senders' collaborators, fixed for the port's lifetime and
        # used once per flit.
        self._contend = self.arbiter.contend
        self._require = self.router.table.require
        self._bump = self.router.counters.bump
        self._transmit_gs = link.transmit_gs
        self._transmit_be = link.transmit_be
        for slot in self.slots.built:
            if slot is not None:
                slot.start_sender(self)
        for chan in self.be_tx:
            chan.start_sender(self)

    def sharebox_release(self, vc: int) -> None:
        """Unlock/credit return arriving over the link's reverse wires
        (to a built slot: a flit has left through it)."""
        self.slots.built[vc].flow.release()

    def be_credit_return(self, vc: int) -> None:
        self.be_tx[vc].credit_return()


class LocalOutputPort:
    """The local output: dedicated GS interfaces straight to the NA.

    No arbitration — each of the (up to four) GS interfaces is its own
    physical channel; the NA consumes from the slot buffer at its own
    (clocked) pace, which backpressures the connection end to end.  The
    NA builds an interface's slot when it first binds a receiver to it.
    """

    def __init__(self, sim: Simulator, router, name: str):
        self.sim = sim
        self.router = router
        self.config: RouterConfig = router.config
        self.direction = Direction.LOCAL
        self.name = name
        self.slots = VcSlots(self.config.local_gs_interfaces,
                             self._build_slot)

    def slot_name(self, iface: int) -> str:
        return f"{self.name}.if{iface}"

    def _build_slot(self, iface: int) -> VcSlot:
        return VcSlot(self.sim, self.config, Direction.LOCAL, iface,
                      on_departed=self._departure_hook(iface),
                      name=self.slot_name(iface))

    def _departure_hook(self, iface: int) -> Callable[[], None]:
        def hook():
            self.router.vc_control.departed(Direction.LOCAL, iface)
        return hook
