"""Tests for the per-core DVFS / multi-queue node (Section 7).

A ``per_core`` policy builds a :class:`~repro.cluster.node.ServerNode`
whose package is one single-core clock domain per core and whose NIC has
one RSS-steered rx queue per core; ``ncap.percore`` puts an NCAP engine on
every queue.
"""

import pytest

from repro.cluster.node import ServerNode
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.cpu import Package, ProcessorConfig
from repro.net import NIC, make_http_request
from repro.oskernel.cpufreq import OndemandGovernor
from repro.sim import RngRegistry, Simulator
from repro.sim.units import MS

PER_QUEUE_KEYS = ("nic.q", "driver.q", "ncap.q", "cpuidle.core")


class SinkPort:
    queue_depth = 0

    def send(self, frame):
        pass


def per_core_package(sim, n_cores):
    return Package(ProcessorConfig(n_cores=n_cores).build_domains(sim, per_core=True))


class TestMultiDomainProcessor:
    def test_unique_core_ids(self):
        package = per_core_package(Simulator(), 4)
        assert [c.core_id for c in package.cores] == [0, 1, 2, 3]
        assert [len(d.cores) for d in package.domains] == [1, 1, 1, 1]

    def test_chip_wide_is_one_domain(self):
        package = Package(ProcessorConfig(n_cores=4).build_domains(Simulator()))
        (domain,) = package.domains
        assert domain.cores == package.cores and len(package.cores) == 4

    def test_domains_retune_independently(self):
        sim = Simulator()
        package = per_core_package(sim, 2)
        package.domains[0].set_pstate(14)
        sim.run()
        assert package.domains[0].pstate_index == 14
        assert package.domains[1].pstate_index == 0
        # The package reports its fastest domain.
        assert package.pstate_index == 0
        assert package.frequency_hz == package.max_frequency_hz

    def test_broadcast_set_pstate(self):
        sim = Simulator()
        package = per_core_package(sim, 3)
        package.set_pstate(7)
        sim.run()
        assert all(d.pstate_index == 7 for d in package.domains)

    def test_energy_report_merges_domains(self):
        sim = Simulator()
        package = per_core_package(sim, 4)
        sim.schedule(MS, lambda: None)
        sim.run()
        report = package.energy_report()
        assert report.residency_ns["idle"] == 4 * MS


class TestMultiQueueNIC:
    def test_flow_affinity_stable(self):
        nic = NIC(Simulator(), n_queues=4)
        a = nic.queue_for(make_http_request("client0", "server"))
        b = nic.queue_for(make_http_request("client0", "server"))
        assert a is b

    def test_different_flows_can_spread(self):
        nic = NIC(Simulator(), n_queues=4)
        queues = {
            nic.queue_for(make_http_request(f"client{i}", "server")).queue_id
            for i in range(16)
        }
        assert len(queues) > 1

    def test_rx_lands_on_one_queue(self):
        sim = Simulator()
        nic = NIC(sim, n_queues=4)
        nic.receive_frame(make_http_request("client0", "server"))
        sim.run()
        pending = [q.rx_pending for q in nic.queues]
        assert sum(pending) == 1

    def test_queue_taps_see_only_their_flow(self):
        sim = Simulator()
        nic = NIC(sim, n_queues=4)
        seen = {i: [] for i in range(4)}
        for q in nic.queues:
            q.rx_hw_taps.append(lambda f, qid=q.queue_id: seen[qid].append(f))
        frame = make_http_request("clientX", "server")
        target = nic.queue_for(frame).queue_id
        nic.receive_frame(frame)
        sim.run()
        assert len(seen[target]) == 1
        assert all(not v for k, v in seen.items() if k != target)

    def test_validation(self):
        with pytest.raises(ValueError):
            NIC(Simulator(), n_queues=0)

    def test_single_queue_skips_rss(self, monkeypatch):
        def no_hashing(self, frame):
            raise AssertionError("single-queue rx hashed a frame")

        monkeypatch.setattr(NIC, "queue_for", no_hashing)
        sim = Simulator()
        nic = NIC(sim)
        nic.receive_frame(make_http_request("client0", "server"))
        sim.run()
        assert nic.rx_pending == 1

    def test_counter_namespaces(self):
        single = NIC(Simulator())
        multi = NIC(Simulator(), n_queues=2)
        single_keys = set(single.telemetry.stats.snapshot())
        assert single_keys == {
            "nic.rx.frames", "nic.rx.bytes", "nic.tx.frames", "nic.tx.bytes",
            "nic.rx.delivered_frames", "nic.rx.delivered_bytes",
            "nic.rx.dropped_frames", "nic.rx.dropped_bytes",
        }
        multi_keys = set(multi.telemetry.stats.snapshot())
        assert "nic.q1.rx.delivered_frames" in multi_keys
        assert "nic.rx.delivered_frames" not in multi_keys


class TestPerCoreServerNode:
    def make_node(self, app="memcached"):
        sim = Simulator()
        node = ServerNode(sim, "server", "ncap.percore", app, RngRegistry(2))
        node.attach_port(SinkPort())
        node.start()
        return sim, node

    def test_one_queue_and_domain_per_core(self):
        sim, node = self.make_node()
        n = len(node.package.cores)
        assert len(node.package.domains) == len(node.domains) == n
        assert len(node.nic.queues) == n
        assert len(node.engines) == n
        for i, domain in enumerate(node.domains):
            assert domain.clock.cores == [node.package.cores[i]]
            assert isinstance(domain.governor, OndemandGovernor)
            assert domain.driver.queue is node.nic.queues[i]
            assert domain.driver.core_id == i

    def test_burst_boosts_only_target_domain(self):
        sim, node = self.make_node()
        for domain in node.package.domains:
            domain.set_pstate(14)
        # Bounded run: the node's periodic governors/ticks never drain the
        # event heap, so an unbounded run() would spin forever.
        sim.run(until=int(0.1 * MS))
        # One flow -> one queue -> one domain boosted.
        frame = make_http_request("client0", "server", req_id=1)
        target = node.nic.queue_for(frame).queue_id
        base = int(0.2 * MS)
        for i in range(80):
            sim.schedule_at(
                base + i * 1_000, node.nic.receive_frame,
                make_http_request("client0", "server", req_id=i),
            )
        sim.run(until=int(0.8 * MS))
        assert node.package.domains[target].effective_target_index == 0
        others = [
            d.effective_target_index
            for i, d in enumerate(node.package.domains) if i != target
        ]
        assert all(idx == 14 for idx in others)

    def test_requests_complete_end_to_end(self):
        sim, node = self.make_node()
        for i in range(50):
            sim.schedule_at(
                i * 10_000, node.nic.receive_frame,
                make_http_request("client0", "server", req_id=i),
            )
        sim.run(until=20 * MS)
        assert node.app.responses_sent == 50

    def test_affinity_hint_reset_after_delivery(self):
        sim, node = self.make_node()
        node.nic.receive_frame(make_http_request("client0", "server", req_id=1))
        sim.run(until=5 * MS)
        assert node.app.responses_sent == 1
        assert node.app.affinity_hint is None

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            ServerNode(Simulator(), "s", "ncap.percore", "nginx", RngRegistry(1))


class TestRecordShape:
    def run(self, policy):
        config = ExperimentConfig(
            app="memcached", policy=policy, target_rps=30_000,
            warmup_ns=5 * MS, measure_ns=20 * MS, drain_ns=10 * MS,
        )
        return run_experiment(config, record_timeseries="coarse")

    def test_chip_wide_keeps_flat_keys(self):
        result = self.run("ncap.cons")
        keys = set(result.counters)
        assert not [k for k in keys if k.startswith(PER_QUEUE_KEYS)]
        assert {"nic.rx.delivered_frames", "driver.hardirqs", "cpuidle.entries"} <= keys
        series = {s.name for s in result.timeseries.series}
        assert "cpu.freq_ghz" in series
        assert not [s for s in series if s.startswith("cpu.domain")]

    def test_per_core_counts_per_queue(self):
        result = self.run("ncap.percore")
        keys = set(result.counters)
        for i in range(4):
            assert f"nic.q{i}.rx.delivered_frames" in keys
            assert f"driver.q{i}.hardirqs" in keys
            assert f"ncap.q{i}.inspected" in keys
            assert f"cpuidle.core{i}.entries" in keys
        series = {s.name for s in result.timeseries.series}
        assert {f"cpu.domain{i}.freq_ghz" for i in range(4)} <= series
        assert result.counters["nic.rx.frames"] == sum(
            result.counters[f"nic.q{i}.rx.delivered_frames"] for i in range(4)
        )
