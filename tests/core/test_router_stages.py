"""The per-flit router stages, one test per place a stage can block.

The BE input stage, the BE and GS link senders and the VC-slot mover are
callback state machines: they run straight through while nothing blocks
them and park on a store, lock or gate event otherwise.  Each test below
drives one stage into one of its park branches on a standalone router
(no neighbours, so no credit traffic interferes) and checks when and in
what order it resumes.
"""

import types

import pytest

from repro import MangoNetwork
from repro.core.config import RouterConfig
from repro.core.output_port import VcSlot
from repro.core.router import MangoRouter
from repro.network.packet import BeFlit, GsFlit
from repro.network.routing import encode_source_route, rotate_header
from repro.network.topology import Coord, Direction
from repro.sim import kernel
from repro.sim.kernel import Simulator

#: Header word whose next move is EAST (any input but EAST sends it on).
TO_EAST = encode_source_route([Direction.EAST])
#: Header word arriving from WEST that turns back: deliver or strip here.
TURN_BACK = rotate_header(TO_EAST)


def standalone(config=None):
    sim = Simulator()
    router = MangoRouter(sim, config or RouterConfig(), Coord(0, 0))
    be = router.be_router
    timing = router.config.timing
    decode_ns = timing.ns(timing.delays.be_route_decode)
    stage_ns = timing.ns(timing.delays.be_buffer_stage)
    return sim, router, be, decode_ns, stage_ns


def stage_of(be, in_dir, vc=0):
    return be._stages_by_dir[in_dir][vc]


def arrive(sim, be, at, in_dir, flit):
    sim.defer(at - sim.now, be.accept, in_dir, flit)


def east_queue(router):
    return router.output_ports[Direction.EAST].be_tx[0].queue


def stub_link(sent):
    """Stands in for the physical link: records what the port sends."""
    return types.SimpleNamespace(
        media_cycle_ns=2.0,
        transmit_be=lambda flit: sent.append(flit),
        transmit_gs=lambda flit, steering: sent.append(flit))


class TestBeInputStage:
    def test_body_flit_arriving_after_head_decode(self):
        sim, router, be, decode_ns, stage_ns = standalone()
        queue = east_queue(router)
        stage = stage_of(be, Direction.WEST)
        arrive(sim, be, 1.0, Direction.WEST,
               BeFlit(TO_EAST, is_head=True, packet_id=7))
        sim.run(until=1.0 + decode_ns)
        # Head forwarded; the stage now waits on the empty input buffer.
        assert [f.word for f in queue.items] == [rotate_header(TO_EAST)]
        assert stage.held == 0 and be.packets_routed == 0
        late = 1.0 + decode_ns + 5.0
        arrive(sim, be, late, Direction.WEST,
               BeFlit(0xAB, is_tail=True, packet_id=7))
        sim.run(until=late + stage_ns - 1e-6)
        assert len(queue.items) == 1 and stage.held == 1
        sim.run(until=late + stage_ns)
        assert [f.word for f in queue.items] == [rotate_header(TO_EAST),
                                                 0xAB]
        assert be.packets_routed == 1 and be.flits_routed == 2
        assert be.output_locks[(Direction.EAST, 0)].in_use == 0

    def test_output_lock_contention_is_fifo(self):
        sim, router, be, decode_ns, _ = standalone(
            RouterConfig(be_queue_depth=16))
        lock = be.output_locks[(Direction.EAST, 0)]
        # WEST holds the lock until its tail arrives at t=20; SOUTH
        # decodes before NORTH, so SOUTH is granted first.
        arrive(sim, be, 1.0, Direction.WEST, BeFlit(TO_EAST, is_head=True,
                                                    packet_id=1))
        arrive(sim, be, 1.5, Direction.NORTH, BeFlit(TO_EAST, is_head=True,
                                                     packet_id=3))
        arrive(sim, be, 1.2, Direction.SOUTH, BeFlit(TO_EAST, is_head=True,
                                                     packet_id=2))
        for in_dir, pid in ((Direction.NORTH, 3), (Direction.SOUTH, 2)):
            arrive(sim, be, 2.0, in_dir, BeFlit(pid, is_tail=True,
                                                packet_id=pid))
        sim.run(until=10.0)
        assert lock.in_use == 1 and lock.queued == 2
        arrive(sim, be, 20.0, Direction.WEST, BeFlit(1, is_tail=True,
                                                     packet_id=1))
        sim.run()
        # Wormhole coherency: whole packets, in lock-request order.
        assert [f.packet_id for f in east_queue(router).items] == \
            [1, 1, 2, 2, 3, 3]
        assert lock.in_use == 0 and lock.queued == 0

    def test_full_output_queue_parks_the_flit(self):
        sim, router, be, decode_ns, _ = standalone(
            RouterConfig(be_queue_depth=1))
        queue = east_queue(router)
        stage = stage_of(be, Direction.WEST)
        for pid, at in ((1, 1.0), (2, 2.0)):
            arrive(sim, be, at, Direction.WEST,
                   BeFlit(TO_EAST, is_head=True, is_tail=True,
                          packet_id=pid))
        sim.run(until=50.0)
        assert [f.packet_id for f in queue.items] == [1]
        assert stage.held == 1 and be.flits_routed == 1
        # Freeing the slot admits the parked flit at once.
        assert queue.try_get().packet_id == 1
        assert [f.packet_id for f in queue.items] == [2]
        assert stage.held == 0 and be.flits_routed == 2

    def test_chained_route_extension_arriving_late(self):
        sim, router, be, decode_ns, _ = standalone()
        queue = east_queue(router)
        stage = stage_of(be, Direction.WEST)
        arrive(sim, be, 1.0, Direction.WEST,
               BeFlit(TURN_BACK, is_head=True, route_ext=1, packet_id=5))
        sim.run(until=30.0)
        # Turn-back with an extension pending: not a local delivery.
        assert be.route_words_stripped == 0 and stage.held == 1
        assert not be.local_out.items and not queue.items
        arrive(sim, be, 30.0, Direction.WEST,
               BeFlit(TO_EAST, is_tail=True, packet_id=5))
        sim.run(until=30.0)
        assert be.route_words_stripped == 1 and not queue.items
        sim.run(until=30.0 + decode_ns)
        [head] = queue.items
        assert head.word == rotate_header(TO_EAST)
        assert head.is_head and head.is_tail and head.route_ext == 0
        assert be.packets_routed == 1 and stage.held == 0

    def test_body_flit_at_packet_boundary_is_an_error(self):
        sim, _, be, _, _ = standalone()
        with pytest.raises(RuntimeError, match="packet boundary"):
            be.accept(Direction.WEST, BeFlit(0x1, is_tail=True))
            sim.run()

    def test_missing_be_channel_releases_the_lock(self):
        sim, _, be, _, _ = standalone(RouterConfig(be_channels=0))
        be.accept(Direction.WEST, BeFlit(TO_EAST, is_head=True,
                                         is_tail=True))
        with pytest.raises(RuntimeError, match="no BE channels"):
            sim.run()
        lock = be.output_locks[(Direction.EAST, 0)]
        assert lock.in_use == 0 and lock.queued == 0


class TestBeSender:
    def test_zero_credit_stall_counted_once_per_episode(self):
        sim, router, _, _, _ = standalone()
        port = router.output_ports[Direction.EAST]
        sent = []
        port.attach_link(stub_link(sent))
        chan = port.be_tx[0]
        for _ in range(chan.credits):
            chan.consume_credit()
        chan.queue.try_put(BeFlit(1, is_head=True, is_tail=True))
        chan.queue.try_put(BeFlit(2, is_head=True, is_tail=True))
        sim.run(until=100.0)
        assert chan.credit_stalls == 1 and sent == []
        chan.credit_return()
        sim.run(until=200.0)
        # One credit sends one flit; the next one starts a new episode.
        assert [f.word for f in sent] == [1]
        assert chan.credit_stalls == 2
        chan.credit_return()
        sim.run(until=300.0)
        assert [f.word for f in sent] == [1, 2]
        assert chan.credit_stalls == 2 and chan.flits_sent == 2


@pytest.mark.parametrize("flow_control", ["share", "credit"])
class TestVcSlotMover:
    def test_full_buffer_parks_the_mover(self, flow_control):
        sim = Simulator()
        config = RouterConfig(flow_control=flow_control)
        departures = []
        slot = VcSlot(sim, config, Direction.EAST, 0,
                      on_departed=lambda: departures.append(sim.now),
                      name="slot")
        transfer_ns = config.timing.unshare_transfer_ns()
        slot.accept(GsFlit(1))
        sim.run(until=transfer_ns)
        assert departures == [transfer_ns] and len(slot.buffer) == 1
        slot.accept(GsFlit(2))
        sim.run(until=100.0)
        # The buffer is full: the flit waits in the unsharebox latch.
        assert len(slot.unsharebox.latch) == 1
        assert departures == [transfer_ns] and slot.flits_through == 1
        assert slot.buffer.try_get().payload == 1
        sim.run(until=100.0 + transfer_ns)
        assert departures == [transfer_ns, 100.0 + transfer_ns]
        assert slot.buffer.head().payload == 2 and slot.flits_through == 2

    def test_gs_sender_waits_for_flow_control(self, flow_control):
        sim, router, _, _, _ = standalone(
            RouterConfig(flow_control=flow_control, credit_window=1))
        # Any programmed forward steering will do for the sender.
        router.table.require = lambda direction, vc: types.SimpleNamespace(
            steering=object())
        port = router.output_ports[Direction.EAST]
        sent = []
        port.attach_link(stub_link(sent))
        slot = port.slots[0]
        slot.accept(GsFlit(1))
        sim.run(until=50.0)
        assert [f.payload for f in sent] == [1] and not slot.flow.ready
        slot.accept(GsFlit(2))
        sim.run(until=100.0)
        # Buffered, but the media lock (or last credit) is still out.
        assert [f.payload for f in sent] == [1] and len(slot.buffer) == 1
        slot.flow.release()
        sim.run(until=150.0)
        assert [f.payload for f in sent] == [1, 2]


def test_mesh_build_creates_no_stage_processes(monkeypatch):
    created = []
    make = kernel.Simulator.process

    def recording(self, generator, name=""):
        created.append(generator.gi_code.co_filename)
        return make(self, generator, name)

    monkeypatch.setattr(kernel.Simulator, "process", recording)
    net = MangoNetwork(4, 4)
    net.send_be(Coord(0, 0), Coord(3, 3), [1, 2, 3])
    net.run(until=500.0)
    assert created
    stage_files = ("core/be_router.py", "core/output_port.py")
    assert not [path for path in created
                if path.replace("\\", "/").endswith(stage_files)]
