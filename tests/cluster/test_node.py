"""Tests for server-node wiring."""

import pytest

from repro.apps.apache import ApacheApp
from repro.apps.memcached import MemcachedApp
from repro.cluster.node import ServerNode
from repro.cpu import Job
from repro.metrics.energy import energy_delta
from repro.oskernel.cpufreq import OndemandGovernor, PerformanceGovernor
from repro.sim import RngRegistry, Simulator
from repro.sim.units import MS
from repro.telemetry import Telemetry
from tests.telemetry.probe_oracle import ProbeOracle


def make_node(policy="perf", app="apache", telemetry=None):
    sim = Simulator()
    node = ServerNode(
        sim, "server", policy, app, RngRegistry(1), telemetry=telemetry
    )
    return sim, node


class TestWiring:
    def test_perf_has_no_cpuidle_or_ncap(self):
        sim, node = make_node("perf")
        assert isinstance(node.governor, PerformanceGovernor)
        assert node.cpuidle is None
        assert node.ncap_hw is None and node.ncap_sw is None
        assert node.engine is None

    def test_ond_idle_has_both_governors(self):
        sim, node = make_node("ond.idle")
        assert isinstance(node.governor, OndemandGovernor)
        assert node.cpuidle is not None
        assert node.scheduler.idle_hook is not None

    def test_ncap_hw_wiring(self):
        sim, node = make_node("ncap.cons")
        assert node.ncap_hw is not None
        assert node.ncap_sw is None
        assert node.ncap_ext is not None
        assert node.ncap_ext.on_icr in node.driver.icr_hooks
        assert node.engine is node.ncap_hw.engine
        # ReqMonitor is tapped into the NIC hardware rx path.
        assert node.ncap_hw.req_monitor.inspect in node.nic.queues[0].rx_hw_taps

    def test_ncap_sw_wiring(self):
        sim, node = make_node("ncap.sw")
        assert node.ncap_sw is not None
        assert node.ncap_hw is None
        assert node.driver.extra_rx_cycles_per_packet > 0
        assert node.engine is node.ncap_sw.engine

    def test_apps_selected_by_name(self):
        assert isinstance(make_node(app="apache")[1].app, ApacheApp)
        assert isinstance(make_node(app="memcached")[1].app, MemcachedApp)
        with pytest.raises(ValueError):
            make_node(app="nginx")

    def test_packet_sink_is_the_app(self):
        sim, node = make_node()
        assert node.driver.packet_sink == node.app.on_packet

    def test_sysfs_exposes_ncap_for_hw_policy(self):
        sim, node = make_node("ncap.cons")
        assert node.sysfs.exists("/sys/class/net/server/ncap/templates")

    def test_trace_wires_cstate_channels(self):
        # A sink on the shared telemetry sees the package's initial
        # operating point and every core's C-state transitions.
        oracle = ProbeOracle()
        telemetry = Telemetry()
        telemetry.add_sink(oracle)
        sim, node = make_node("ond.idle", telemetry=telemetry)
        assert oracle.freq_ghz["server.cpu"].values == [pytest.approx(3.1)]
        node.start()
        sim.schedule_at(MS, lambda: node.scheduler.enqueue(
            Job(node.package.max_frequency_hz * 1e-4)))
        sim.run(until=2 * MS)
        assert oracle.cstate[0].values[0] > 0  # slept after the job

    def test_start_pins_performance_at_p0(self):
        sim, node = make_node("perf")
        node.package.set_pstate(14)
        sim.run()
        node.start()
        sim.run()
        assert node.package.pstate_index == 0

    def test_stop_halts_ncap(self):
        sim, node = make_node("ncap.cons")
        node.start()
        sim.run(until=1_000_000)
        ticks = node.engine.ticks
        node.stop()
        sim.run(until=3_000_000)
        assert node.engine.ticks == ticks

    def test_nic_dma_override(self):
        sim = Simulator()
        node = ServerNode(
            sim, "server", "perf", "apache", RngRegistry(1),
            nic_dma_latency_ns=50_000,
        )
        assert node.nic.dma_latency_ns == 50_000


class TestMeasurement:
    def test_ncap_stats_and_cstate_entries(self):
        sim, perf = make_node("perf")
        assert perf.ncap_stats() == {}
        sim, node = make_node("ncap.cons")
        assert set(node.ncap_stats()) == {
            "it_high_posts", "it_low_posts", "immediate_rx_posts",
        }
        node.package.cores[0].cstate_entries["C6"] = 2
        node.package.cores[3].cstate_entries["C6"] = 1
        assert node.cstate_entries()["C6"] == 3


class TestWindowMeter:
    def _measured(self, policy="perf", energy_attribution=False):
        """Mark a window [1 ms, 3 ms) with core 0 busy for 1 ms of it;
        also take plain package reports at the same two edges."""
        sim, node = make_node(policy)
        meter = node.window_meter(energy_attribution)
        reports = []

        def edge():
            meter.mark()
            reports.append(node.package.energy_report())

        node.start()
        sim.schedule_at(MS, edge)
        sim.schedule_at(
            int(1.5 * MS),
            lambda: node.package.cores[0].dispatch(
                Job(node.package.max_frequency_hz * 1e-3)
            ),
        )
        sim.schedule_at(3 * MS, edge)
        sim.run(until=4 * MS)
        return node, meter, reports

    def test_energy_is_delta_of_its_edges(self):
        _, meter, (start, end) = self._measured()
        assert meter.energy() == energy_delta(start, end)
        assert meter.energy().energy_j > 0

    def test_utilization_over_the_window(self):
        node, meter, _ = self._measured()
        n_cores = len(node.package.cores)
        # 1 ms busy on one core of a 2 ms window.
        assert meter.utilization(2 * MS) == pytest.approx(0.5 / n_cores)

    def test_energy_attribution_none_without_accounting(self):
        _, meter, _ = self._measured()
        assert meter.accounting is None
        assert meter.energy_attribution() is None

    def test_energy_attribution_telescopes_to_window_energy(self):
        _, meter, _ = self._measured("ond.idle", energy_attribution=True)
        attribution = meter.energy_attribution()
        assert attribution.total_j == pytest.approx(meter.energy().energy_j)
        assert attribution.components_sum_j == pytest.approx(
            attribution.total_j, abs=1e-6
        )
