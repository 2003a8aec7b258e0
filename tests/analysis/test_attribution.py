"""AttributionSink unit tests over a hand-driven event feed."""

import pytest

from repro.analysis.attribution import COMPONENTS, AttributionSink
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    CStateTransition,
    IrqDelivered,
    RequestAccounting,
    RequestPhase,
)

F_MAX = 1e9  # 1 GHz: cycles == ideal nanoseconds, for easy arithmetic


def make_sink(**kwargs) -> AttributionSink:
    kwargs.setdefault("f_max_hz", F_MAX)
    kwargs.setdefault("keep_records", True)
    sink = AttributionSink(**kwargs)
    telemetry = Telemetry()
    sink.attach(telemetry)
    sink.telemetry = telemetry
    return sink


def span(sink, t, phase, req_id=1, core=None, src="c0"):
    sink.telemetry.probe("request.span").emit(
        RequestPhase(t_ns=t, src=src, req_id=req_id, phase=phase, core=core)
    )


def feed_request(
    sink,
    src="c0",
    req_id=1,
    send=1_000,
    arrival=2_000,
    dma=2_100,
    irq_at=None,
    delivered=2_500,
    rx_core=0,
    svc_start=2_900,
    svc_done=3_900,
    resp_enqueue=4_100,
    resp_start=4_300,
    reply=4_800,
    core=1,
    resp_core=1,
    cpu_ns=1_300,
    cycles=1_100.0,
    stall_ns=100,
    receive=5_100,
):
    """Drive one request through the sink; returns its RTT."""
    telemetry = sink.telemetry
    span(sink, arrival, "arrival", req_id=req_id, src=src)
    span(sink, dma, "dma", req_id=req_id, src=src)
    if irq_at is not None:
        telemetry.probe("irq.delivered").emit(
            IrqDelivered(t_ns=irq_at, kind="hardirq", name="nic-irq",
                         core_id=rx_core)
        )
    span(sink, delivered, "delivered", req_id=req_id, core=rx_core, src=src)
    span(sink, svc_start, "service", req_id=req_id, core=core, src=src)
    telemetry.probe("request.account").emit(
        RequestAccounting(
            t_ns=reply, src=src, req_id=req_id, core=core,
            resp_core=resp_core, svc_enqueue_ns=delivered,
            svc_start_ns=svc_start, svc_done_ns=svc_done,
            resp_enqueue_ns=resp_enqueue, resp_start_ns=resp_start,
            cpu_ns=cpu_ns, cycles=cycles, stall_ns=stall_ns,
        )
    )
    rtt = receive - send
    sink.on_client_rtt(src, req_id, send, rtt)
    return rtt


class TestDecomposition:
    def test_components_sum_to_rtt(self):
        sink = make_sink()
        rtt = feed_request(sink)
        assert sink.count == 1
        assert sink.conservation_violations == []
        record = sink.records[0]
        assert record.total_ns == rtt
        assert sum(record.components.values()) == pytest.approx(rtt, abs=1e-6)
        assert set(record.components) == set(COMPONENTS)

    def test_component_values(self):
        sink = make_sink()
        feed_request(sink, irq_at=2_200)
        comp = sink.records[0].components
        assert comp["wire"] == 1_000          # send 1000 -> arrival 2000
        assert comp["dma"] == 100             # arrival -> dma
        assert comp["coalesce"] == 100        # dma 2100 -> irq 2200
        assert comp["kernel"] == 300          # (delivered - dma) - coalesce
        assert comp["queue"] == 600           # (2900-2500) + (4300-4100)
        assert comp["service"] == 1_100       # cycles at F_max
        assert comp["ramp"] == 300            # cpu+stall - service
        assert comp["preempt"] == 100         # job span - cpu - stall
        assert comp["io"] == 200              # svc_done -> resp_enqueue
        assert comp["tx"] == 300              # reply 4800 -> receive 5100
        assert comp["wake"] == 0

    def test_no_irq_means_zero_coalesce(self):
        sink = make_sink()
        feed_request(sink, irq_at=None)
        comp = sink.records[0].components
        assert comp["coalesce"] == 0
        assert comp["kernel"] == 400          # full delivered - dma

    def test_wake_carved_out_of_kernel_and_queue(self):
        sink = make_sink()
        telemetry = sink.telemetry
        # Rx core 0 wakes at t=2400 after a 150 ns exit (interval
        # [2250, 2400], inside [irq 2200, delivered 2500]); service core 1
        # wakes at t=2800 after 200 ns ([2600, 2800], inside the queue
        # window [delivered 2500, svc_start 2900]).
        telemetry.probe("cpu.cstate").emit(
            CStateTransition(2_400, "cpu", 0, "C6", 3, "wake",
                             exit_latency_ns=150)
        )
        telemetry.probe("cpu.cstate").emit(
            CStateTransition(2_800, "cpu", 1, "C6", 3, "wake",
                             exit_latency_ns=200)
        )
        rtt = feed_request(sink, irq_at=2_200)
        comp = sink.records[0].components
        assert comp["wake"] == 350
        assert comp["kernel"] == 150          # 300 - 150 rx-side wake
        assert comp["queue"] == 400           # 600 - 200 queue-side wake
        assert sink.conservation_violations == []
        assert sum(comp.values()) == pytest.approx(rtt, abs=1e-6)

    def test_conservation_violation_is_reported(self):
        sink = make_sink()
        feed_corrupted(sink, req_id=2)
        assert sink.violation_count == 1
        assert len(sink.conservation_violations) == 1
        assert "c0/2" in sink.conservation_violations[0]

    def test_violations_past_the_message_cap_are_counted(self):
        sink = make_sink()
        for req_id in range(30):
            feed_corrupted(sink, req_id=req_id)
        assert sink.violation_count == 30
        assert len(sink.conservation_violations) == sink.MAX_VIOLATION_MESSAGES


def feed_corrupted(sink, req_id):
    """One request whose server-side record is off by 5 ns.

    The decomposition telescopes, so a consistent event feed can never
    break conservation (that is the point); corrupt the server-side
    record directly to prove the check trips.
    """
    span(sink, 2_000, "arrival", req_id=req_id)
    span(sink, 2_100, "dma", req_id=req_id)
    span(sink, 2_500, "delivered", req_id=req_id, core=0)
    sink.telemetry.probe("request.account").emit(
        RequestAccounting(
            t_ns=4_800, src="c0", req_id=req_id, core=1, resp_core=1,
            svc_enqueue_ns=2_500, svc_start_ns=2_900, svc_done_ns=3_900,
            resp_enqueue_ns=4_100, resp_start_ns=4_300,
            cpu_ns=1_300, cycles=1_100.0, stall_ns=100,
        )
    )
    sink._done[("c0", req_id)].components["kernel"] += 5.0
    sink.on_client_rtt("c0", req_id, 1_000, 4_100)


class TestBookkeeping:
    def test_unmatched_rtt_counted(self):
        sink = make_sink()
        sink.on_client_rtt("c0", 77, 0, 1_000)
        assert sink.unmatched_rtts == 1
        assert sink.count == 0

    def test_dropped_request_never_matches(self):
        sink = make_sink()
        span(sink, 100, "arrival")
        span(sink, 200, "dma")
        span(sink, 300, "dropped")
        sink.on_client_rtt("c0", 1, 0, 10_000)
        assert sink.unmatched_rtts == 1

    def test_measure_window_filters_by_send_time(self):
        sink = make_sink(measure_window=(1_500, 10_000))
        feed_request(sink, send=1_000)          # before the window
        assert sink.count == 0
        feed_request(sink, req_id=2, send=2_000, arrival=3_000, dma=3_100,
                     delivered=3_500, svc_start=3_900, svc_done=4_900,
                     resp_enqueue=5_100, resp_start=5_300, reply=5_800,
                     receive=6_100)
        assert sink.count == 1

    def test_f_max_required(self):
        sink = make_sink(f_max_hz=None)
        with pytest.raises(RuntimeError, match="f_max_hz"):
            feed_request(sink)

    def test_prune_keeps_open_request_context(self):
        sink = make_sink()
        telemetry = sink.telemetry
        # An old wake interval that still overlaps an open request must
        # survive pruning triggered by later traffic.
        telemetry.probe("cpu.cstate").emit(
            CStateTransition(2_800, "cpu", 1, "C6", 3, "wake",
                             exit_latency_ns=200)
        )
        span(sink, 2_000, "arrival", req_id=1)   # stays open across prunes
        base = 10_000
        for i in range(sink.PRUNE_EVERY + 1):
            t = base + i * 10_000
            feed_request(
                sink, req_id=100 + i, send=t - 1_000, arrival=t,
                dma=t + 100, delivered=t + 500, svc_start=t + 900,
                svc_done=t + 1_900, resp_enqueue=t + 2_100,
                resp_start=t + 2_300, reply=t + 2_800, receive=t + 3_100,
            )
        assert sink._waking[1][0] == (2_600, 2_800)


class TestTails:
    def test_tail_means_cover_slowest_requests(self):
        sink = make_sink(top_k=16)
        for i in range(100):
            # Latencies 3100, 3101, ..., 3199 ns via the receive time.
            feed_request(sink, req_id=i, receive=5_100 + i + 1_000 * 0,
                         send=1_000)
        report = sink.summary()
        assert report.count == 100
        p99 = report.tails["p99"]
        assert p99.count >= 1
        assert p99.mean_total_ns >= report.mean_total_ns
        assert p99.threshold_ns <= 4_100 + 99
        flat = report.to_flat_dict()
        assert flat["count"] == 100.0
        assert "p99.wake_ramp_share" in flat
        assert "mean.wake_ns" in flat

    def test_component_means_are_exact(self):
        sink = make_sink()
        for i in range(300):
            feed_request(
                sink, req_id=i, irq_at=2_200 if i % 3 else None,
                cycles=1_100.0 + i * 0.37, cpu_ns=1_300 + i % 7,
                receive=5_100 + (i * 13) % 97,
            )
        report = sink.summary()
        for name in COMPONENTS:
            # Left-to-right float addition, the order the sink sums in
            # (builtin sum() compensates on Python 3.12+).
            total = 0.0
            for record in sink.records:
                total += record.components[name]
            assert report.component_mean_ns[name] == total / sink.count

    def test_empty_summary(self):
        sink = make_sink()
        report = sink.summary()
        assert report.count == 0
        assert report.tails == {}
