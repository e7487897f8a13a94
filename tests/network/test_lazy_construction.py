"""Construction builds only what the traffic touches.

A VC slot exists once a flit (or a receiver) needs it, and an NA
interface owns its transmit/receive process from its first bind on.  A
mesh carrying one GS connection therefore builds slots exactly on that
connection's path and starts GS processes only at its two endpoints.
"""

from repro import Coord, MangoNetwork
from repro.core.output_port import VcSlots
from repro.network.topology import Direction
from repro.sim import kernel


def built_slots(net):
    """Every built VC slot as a (router, port, VC) point."""
    points = set()
    for coord, router in net.routers.items():
        ports = dict(router.output_ports)
        ports[Direction.LOCAL] = router.local_output
        for direction, port in ports.items():
            points |= {(coord, direction, vc)
                       for vc, slot in enumerate(port.slots.built)
                       if slot is not None}
    return points


def path_points(conn):
    hops = {(hop.coord, hop.out_dir, hop.vc) for hop in conn.hops}
    return hops | {(conn.dst, Direction.LOCAL, conn.dst_iface)}


def gs_processes(net):
    """(coord, iface) of every NA interface that owns a tx / rx process."""
    tx = {(coord, endpoint.iface) for coord, na in net.adapters.items()
          for endpoint in na.tx_endpoints if endpoint.process is not None}
    rx = {(coord, iface) for coord, na in net.adapters.items()
          for iface in na.rx_processes}
    return tx, rx


def test_one_connection_builds_only_its_path():
    net = MangoNetwork(4, 4)
    conn = net.open_connection_instant(Coord(0, 0), Coord(3, 2))
    for value in range(20):
        conn.send(value)
    net.run(until=net.now + 2000.0)
    assert conn.sink.payloads == list(range(20))
    assert built_slots(net) == path_points(conn)
    assert gs_processes(net) == ({(conn.src, conn.src_iface)},
                                 {(conn.dst, conn.dst_iface)})


def test_reopen_on_the_same_interface_reuses_its_processes(monkeypatch):
    created = []
    make = kernel.Simulator.process

    def recording(self, generator, name=""):
        created.append(name)
        return make(self, generator, name)

    monkeypatch.setattr(kernel.Simulator, "process", recording)
    net = MangoNetwork(4, 4)
    first = net.open_connection_instant(Coord(0, 0), Coord(3, 3))
    first.send(1)
    net.run(until=net.now + 1000.0)
    net.close_connection(first)
    second = net.open_connection_instant(Coord(0, 0), Coord(3, 3))
    assert (second.src_iface, second.dst_iface) == \
        (first.src_iface, first.dst_iface)
    second.send(2)
    net.run(until=net.now + 1000.0)
    assert first.sink.payloads == [1] and second.sink.payloads == [2]
    tx_name = f"NA0.0.tx{first.src_iface}.run"
    rx_name = f"NA3.3.rx{first.dst_iface}"
    assert created.count(tx_name) == 1 and created.count(rx_name) == 1
    assert gs_processes(net) == ({(first.src, first.src_iface)},
                                 {(first.dst, first.dst_iface)})


def test_slot_table_builds_on_first_access_only():
    calls = []

    def build(vc):
        calls.append(vc)
        return object()

    slots = VcSlots(3, build)
    assert len(slots) == 3 and slots.built == [None, None, None]
    slot = slots[1]
    assert slots[1] is slot and calls == [1]
    assert slots.built == [None, slot, None]

