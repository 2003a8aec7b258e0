"""Tests for link serialization and delivery."""

import pytest

from repro.net import Frame, Link, Switch
from repro.sim import Simulator
from repro.sim.units import US, gbps


class Sink:
    def __init__(self, name, sim=None):
        self.name = name
        self.sim = sim
        self.received = []
        self.port = None

    def attach_port(self, port):
        self.port = port

    def receive_frame(self, frame):
        self.received.append((self.sim.now if self.sim else None, frame))


def make_link(bandwidth=gbps(10), latency=1 * US):
    sim = Simulator()
    link = Link(sim, bandwidth_bps=bandwidth, latency_ns=latency)
    a, b = Sink("a", sim), Sink("b", sim)
    link.attach(a, b)
    return sim, link, a, b


class TestLink:
    def test_delivery_time_serialization_plus_latency(self):
        sim, link, a, b = make_link()
        # 1250 wire bytes = 1 us at 10 Gb/s, +1 us propagation.
        frame = Frame("a", "b", payload_bytes=1250 - 66)
        link.endpoint_port(a).send(frame)
        sim.run()
        assert b.received[0][0] == 2 * US

    def test_fifo_serialization_of_queued_frames(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        f1 = Frame("a", "b", payload_bytes=1250 - 66)
        f2 = Frame("a", "b", payload_bytes=1250 - 66)
        port.send(f1)
        port.send(f2)
        sim.run()
        times = [t for t, _ in b.received]
        assert times == [2 * US, 3 * US]  # second waits for the wire
        assert [f.frame_id for _, f in b.received] == [f1.frame_id, f2.frame_id]

    def test_full_duplex_directions_independent(self):
        sim, link, a, b = make_link()
        link.endpoint_port(a).send(Frame("a", "b", payload_bytes=1250 - 66))
        link.endpoint_port(b).send(Frame("b", "a", payload_bytes=1250 - 66))
        sim.run()
        assert len(a.received) == 1
        assert len(b.received) == 1
        assert a.received[0][0] == b.received[0][0] == 2 * US

    def test_big_message_occupies_wire_longer(self):
        sim, link, a, b = make_link()
        small = Frame("a", "b", payload_bytes=500)
        big = Frame("a", "b", payload_bytes=100_000)
        link.endpoint_port(a).send(big)
        link.endpoint_port(a).send(small)
        sim.run()
        # Small frame waits behind the ~80 us serialization of the big one.
        assert b.received[1][0] > 80 * US

    def test_port_statistics(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        frame = Frame("a", "b", payload_bytes=1000)
        port.send(frame)
        sim.run()
        assert port.frames_carried == 1
        assert port.bytes_carried == frame.wire_bytes

    def test_send_at_books_future_times_fifo(self):
        # Offers at 0, 0, 100 ns and 5 us: start = max(t, tail), so the
        # first three queue back to back and the last finds the wire idle.
        sim, link, a, b = make_link()
        frames = [Frame("a", "b", payload_bytes=1250 - 66) for _ in range(4)]
        port = link.endpoint_port(a)
        for t, frame in zip([0, 0, 100, 5 * US], frames):
            port.send_at(t, frame)
        sim.run()
        assert [t for t, _ in b.received] == [2 * US, 3 * US, 4 * US, 7 * US]
        assert [f.frame_id for _, f in b.received] == [f.frame_id for f in frames]

    def test_send_and_send_at_interleave_on_one_direction(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        booked = Frame("a", "b", payload_bytes=1250 - 66)
        now = Frame("a", "b", payload_bytes=1250 - 66)
        later = Frame("a", "b", payload_bytes=1250 - 66)
        port.send_at(500, booked)  # on the wire 500..1500 ns
        sim.schedule_at(1_000, port.send, now)  # waits for the tail
        sim.schedule_at(1_000, port.send_at, 4 * US, later)
        sim.run()
        assert [(t, f.frame_id) for t, f in b.received] == [
            (2_500, booked.frame_id),
            (3_500, now.frame_id),
            (6 * US, later.frame_id),
        ]

    def test_counters_bumped_at_booking(self):
        sim, link, a, b = make_link()
        port = link.endpoint_port(a)
        port.send_at(10 * US, Frame("a", "b", payload_bytes=1250 - 66))
        assert (port.frames_carried, port.bytes_carried) == (1, 1250)

    def test_one_event_per_hop(self):
        sim, link, a, b = make_link()
        link.endpoint_port(a).send(Frame("a", "b", payload_bytes=100))
        sim.run()
        assert sim.events_executed == 1

    def test_unattached_device_rejected(self):
        sim, link, a, b = make_link()
        with pytest.raises(ValueError):
            link.endpoint_port(Sink("stranger"))

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(sim, latency_ns=-1)


def make_switched(*names):
    """A switch with one ``Sink`` per name, each joined by ``connect``."""
    sim = Simulator()
    switch = Switch(sim)
    sinks, ports = {}, {}
    for name in names:
        sink = Sink(name, sim)
        switch.connect(sink)
        sinks[name], ports[name] = sink, sink.port
    return sim, switch, sinks, ports


class TestSwitchIntegration:
    def test_two_hop_forwarding(self):
        sim, switch, sinks, ports = make_switched("client", "server")
        ports["client"].send(Frame("client", "server", payload_bytes=1250 - 66))
        sim.run()
        # 1 us serialize + 1 us prop + 1 us forward + 1 us serialize + 1 us prop.
        assert sinks["server"].received[0][0] == 5 * US
        assert switch.frames_forwarded == 1

    def test_client_switch_server_costs_two_events(self):
        sim, switch, sinks, ports = make_switched("client", "server")
        ports["client"].send(Frame("client", "server", payload_bytes=100))
        sim.run()
        assert sim.events_executed == 2
        assert len(sinks["server"].received) == 1

    def test_output_port_contention_is_fifo(self):
        # Two senders' frames reach the switch 1 ns apart and contend for
        # one output link: the second waits for the first's serialization.
        sim, switch, sinks, ports = make_switched("x", "y", "server")
        fx = Frame("x", "server", payload_bytes=1250 - 66)
        fy = Frame("y", "server", payload_bytes=1250 - 66)
        ports["x"].send(fx)
        sim.schedule_at(1, ports["y"].send, fy)
        sim.run()
        assert [(t, f.frame_id) for t, f in sinks["server"].received] == [
            (5 * US, fx.frame_id),
            (6 * US, fy.frame_id),
        ]

    def test_routes_per_destination_and_counts_drops(self):
        sim, switch, sinks, ports = make_switched("c", "x", "y")
        for dst in ("x", "y", "nowhere", "x"):
            ports["c"].send(Frame("c", dst, payload_bytes=100))
        sim.run()
        assert len(sinks["x"].received) == 2
        assert len(sinks["y"].received) == 1
        assert (switch.frames_forwarded, switch.frames_dropped) == (3, 1)

    def test_unknown_destination_dropped(self):
        sim, switch, sinks, ports = make_switched("client")
        ports["client"].send(Frame("client", "nowhere", payload_bytes=100))
        sim.run()
        assert switch.frames_dropped == 1

    def test_known_destinations(self):
        sim, switch, sinks, ports = make_switched("client")
        assert switch.known_destinations == ["client"]

    def test_connect_routes_device_name_over_its_link(self):
        sim = Simulator()
        switch = Switch(sim)
        client, server = Sink("client", sim), Sink("server", sim)
        switch.connect(client)
        link = switch.connect(server, bandwidth_bps=gbps(1), latency_ns=2 * US)
        assert switch.known_destinations == ["client", "server"]
        assert client.port.peer is switch
        client.port.send(Frame("client", "server", payload_bytes=1250 - 66))
        sim.run()
        # 1 us + 1 us into the switch, 1 us forward, then 10 us + 2 us on
        # the server's 1 Gb/s, 2 us link.
        assert [t for t, _ in server.received] == [15 * US]
        assert isinstance(link, Link) and server.port.peer is switch
