"""Tests for probe points, the probe bus and the probe event types."""

import pickle
import typing

import pytest

from repro.telemetry import (
    CStateTransition,
    GovernorDecision,
    GovernorMiss,
    IrqDelivered,
    NcapWake,
    NicRx,
    NicTx,
    PacketClassified,
    ProbeBus,
    ProbeEvent,
    ProbePoint,
    PStateChange,
    RequestAccounting,
    RequestPhase,
    RingOccupancy,
    Telemetry,
    WatchpointFired,
)

#: One instance of every ProbeEvent type.
SAMPLE_EVENTS = (
    CStateTransition(10, "server.cpu", 1, "C6", 3, "wake", exit_latency_ns=50),
    PStateChange(10, "server.cpu", 2, 2.9e9),
    IrqDelivered(10, "hardirq", "nic-irq", 0),
    NicRx(10, "server.nic", 1566, "request"),
    NicTx(10, "server.nic", 9066, "response"),
    RingOccupancy(10, "server.nic", 3, 512, False),
    GovernorDecision(10, "menu", 2, 4_000.0, core_id=1),
    GovernorMiss(10, "menu", 1, "C3", "C6", "below", 90_000, cost_j=1e-6),
    PacketClassified(10, "server.reqmon", True, 4),
    NcapWake(10, "server.ncap", "it_high"),
    RequestPhase(10, "client0", 7, "delivered", core=2),
    RequestAccounting(10, "client0", 7, 1, 1, 1, 2, 3, 4, 5, 6, 7.5, 8),
    WatchpointFired(10, "queue-overload", "runq.depth", 12.0),
)


class TestProbePoint:
    def test_disabled_without_subscribers(self):
        point = ProbePoint("cpu.cstate")
        assert not point.enabled
        assert not point

    def test_subscribe_enables_and_delivers(self):
        point = ProbePoint("cpu.cstate")
        seen = []
        point.subscribe(seen.append)
        assert point.enabled
        event = CStateTransition(10, "cpu", 0, "C6", 3, "enter")
        point.emit(event)
        assert seen == [event]

    def test_unsubscribe_disables_when_last_leaves(self):
        point = ProbePoint("p")
        a, b = [], []
        point.subscribe(a.append)
        point.subscribe(b.append)
        # A fresh bound-method object must still match (equality, not
        # identity).
        point.unsubscribe(a.append)
        assert point.enabled
        point.unsubscribe(b.append)
        assert not point.enabled

    def test_duplicate_subscribe_is_noop(self):
        point = ProbePoint("p")
        seen = []
        point.subscribe(seen.append)
        point.subscribe(seen.append)
        point.emit("x")
        assert seen == ["x"]


class TestProbeBus:
    def test_point_is_idempotent(self):
        bus = ProbeBus()
        assert bus.point("nic.rx") is bus.point("nic.rx")

    def test_exact_subscription_applies_to_future_points(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("cpu.pstate", seen.append)
        point = bus.point("cpu.pstate")  # created after subscribing
        assert point.enabled
        point.emit(PStateChange(0, "cpu", 0, 3.1e9))
        assert len(seen) == 1

    def test_prefix_pattern_matches_subtree_only(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("ncap.*", seen.append)
        bus.point("ncap.wake").emit("wake")
        bus.point("ncap.classify").emit("classify")
        bus.point("nic.rx").emit("rx")
        assert seen == ["wake", "classify"]

    def test_star_matches_everything(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("*", seen.append)
        bus.point("a").emit(1)
        bus.point("b.c").emit(2)
        assert seen == [1, 2]

    def test_unsubscribe_detaches_everywhere(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("*", seen.append)
        point = bus.point("x")
        bus.unsubscribe(seen.append)
        assert not point.enabled
        # ...including points created later.
        assert not bus.point("y").enabled

    def test_unsubscribe_leaves_other_subscribers_attached(self):
        bus = ProbeBus()
        wildcard, exact, prefixed = [], [], []
        bus.subscribe("*", wildcard.append)
        bus.subscribe("cpu.cstate", exact.append)
        bus.subscribe("cpu.*", prefixed.append)
        point = bus.point("cpu.cstate")

        bus.unsubscribe(exact.append)
        assert point.enabled
        point.emit("evt")
        assert wildcard == ["evt"]
        assert prefixed == ["evt"]
        assert exact == []

    def test_unsubscribe_removes_all_patterns_of_one_fn(self):
        # One callable subscribed under several patterns: a single
        # unsubscribe must detach every registration (and deliver each
        # event at most once while subscribed).
        bus = ProbeBus()
        seen = []
        bus.subscribe("*", seen.append)
        bus.subscribe("cpu.*", seen.append)
        bus.subscribe("cpu.cstate", seen.append)
        point = bus.point("cpu.cstate")
        point.emit("first")
        bus.unsubscribe(seen.append)
        point.emit("second")
        assert not point.enabled
        assert not bus.point("cpu.pstate").enabled
        assert "second" not in seen

    def test_unsubscribe_unknown_fn_is_noop(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("a", seen.append)
        bus.unsubscribe(print)  # never subscribed
        point = bus.point("a")
        point.emit(1)
        assert seen == [1]


class TestTelemetryFacade:
    def test_probe_and_stats_share_the_instance(self):
        telemetry = Telemetry()
        probe = telemetry.probe("nic.rx")
        assert telemetry.probes.point("nic.rx") is probe
        counter = telemetry.counter("nic.rx.frames")
        assert telemetry.stats.value("nic.rx.frames") == counter.value


class TestProbeEvents:
    def test_samples_cover_every_event_type(self):
        assert {type(e) for e in SAMPLE_EVENTS} == set(typing.get_args(ProbeEvent))

    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: type(e).__name__)
    def test_rejects_attribute_assignment(self, event):
        with pytest.raises(AttributeError):
            event.t_ns = 20
        with pytest.raises(AttributeError):
            event.extra = 1

    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: type(e).__name__)
    def test_pickle_round_trip(self, event):
        copy = pickle.loads(pickle.dumps(event))
        assert type(copy) is type(event)
        assert copy == event
        assert hash(copy) == hash(event)

    @pytest.mark.parametrize("event_type", [RequestPhase, RequestAccounting])
    def test_span_id_names_src_and_req_id(self, event_type):
        (event,) = [e for e in SAMPLE_EVENTS if type(e) is event_type]
        assert event.span_id == "client0/7"
        assert event._replace(req_id=None).span_id == "client0/None"

    def test_defaults_and_keywords(self):
        phase = RequestPhase(t_ns=5, src="c", req_id=1, phase="arrival")
        assert phase.core is None
        assert CStateTransition(0, "cpu", 0, "C1", 1, "enter").exit_latency_ns == 0
        assert WatchpointFired(0, "w", "s", 1.0).detail == ""
