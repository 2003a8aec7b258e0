"""ChannelSink parity with the legacy TraceRecorder path, multi-node.

Before the telemetry layer, components wrote directly to a
``TraceRecorder``; today ``ensure_telemetry(None, trace)`` adapts the old
``trace=`` argument by attaching a :class:`ChannelSink`.  A run wired the
legacy way and a run wired with an explicit ``Telemetry`` + ChannelSink
must produce byte-identical channels — including with several server
nodes sharing one recorder.
"""

from repro.apps.client import OpenLoopClient, http_request_factory
from repro.cluster.node import ServerNode
from repro.net.switch import Switch
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS
from repro.telemetry import ChannelSink, Telemetry

RUN_NS = 30 * MS


def run_two_server_cluster(legacy: bool) -> TraceRecorder:
    """Two servers + one client each behind a switch; returns the recorder.

    ``legacy=True`` passes the recorder via the old ``trace=`` argument
    (``ensure_telemetry`` adapts it); ``legacy=False`` wires an explicit
    ``Telemetry`` with a :class:`ChannelSink` attached up front.
    """
    sim = Simulator()
    rng = RngRegistry(7)
    recorder = TraceRecorder()
    switch = Switch(sim)
    for i in range(2):
        name = f"server{i}"
        if legacy:
            server = ServerNode(sim, name, "ond.idle", "apache", rng,
                                trace=recorder)
        else:
            telemetry = Telemetry()
            telemetry.add_sink(ChannelSink(recorder))
            server = ServerNode(sim, name, "ond.idle", "apache", rng,
                                telemetry=telemetry)
        switch.connect(server)

        client = OpenLoopClient(
            sim, f"client{i}", http_request_factory(f"client{i}", name),
            burst_size=50, burst_period_ns=10 * MS,
            jitter_rng=rng.stream(f"client{i}.jitter"), jitter_fraction=0.3,
        )
        switch.connect(client)
        client.start()

    sim.run(until=RUN_NS)
    return recorder


def channel_dump(recorder: TraceRecorder):
    events = {
        name: (ch.times, ch.values)
        for name, ch in recorder._events.items() if len(ch)
    }
    counters = {
        name: (ch.times, ch.amounts, ch.total)
        for name, ch in recorder._counters.items() if len(ch)
    }
    return events, counters


def test_legacy_trace_and_channel_sink_produce_identical_channels():
    legacy_events, legacy_counters = channel_dump(
        run_two_server_cluster(legacy=True)
    )
    new_events, new_counters = channel_dump(
        run_two_server_cluster(legacy=False)
    )
    # Both servers contributed channels, with traffic recorded.
    assert any(name.startswith("server0.") for name in legacy_counters)
    assert any(name.startswith("server1.") for name in legacy_counters)
    assert legacy_counters["server0.rx_bytes"][2] > 0
    # Bit-identical series, channel for channel.
    assert new_events == legacy_events
    assert new_counters == legacy_counters
