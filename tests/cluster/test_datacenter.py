"""Tests for the multi-server (datacenter) cluster builder."""

import pytest

from repro.cluster.datacenter import DatacenterConfig, run_datacenter
from repro.cluster.sharding import ShardedDatacenterRun
from repro.sim.units import MS


def tiny_config(**overrides):
    defaults = dict(
        app="apache",
        policy="perf",
        n_servers=2,
        load_shares=(0.7, 0.3),
        total_rps=40_000,
        clients_per_server=2,
        warmup_ns=5 * MS,
        measure_ns=40 * MS,
        drain_ns=40 * MS,
        seed=9,
    )
    defaults.update(overrides)
    return DatacenterConfig(**defaults)


def built_fleet(config):
    """The serial coordinator and its single in-process shard."""
    run = ShardedDatacenterRun(config, jobs=1)
    (shard,) = run.inline_shards()
    return run, shard


class TestValidation:
    def test_share_count_must_match_servers(self):
        with pytest.raises(ValueError):
            tiny_config(n_servers=3)

    def test_shares_must_be_positive(self):
        with pytest.raises(ValueError):
            tiny_config(load_shares=(1.0, 0.0))

    def test_unknown_app_rejected_at_construction(self):
        with pytest.raises(ValueError, match="app"):
            tiny_config(app="nginx")

    @pytest.mark.parametrize("measure_ns", [0, -1])
    def test_empty_measure_window_rejected(self, measure_ns):
        with pytest.raises(ValueError, match="measure_ns"):
            tiny_config(measure_ns=measure_ns)

    @pytest.mark.parametrize("field", ["warmup_ns", "drain_ns"])
    def test_negative_warmup_or_drain_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: -1})

    def test_zero_warmup_and_drain_allowed(self):
        config = tiny_config(warmup_ns=0, drain_ns=0)
        assert config.end_ns == config.measure_ns

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(
            ValueError, match=r"policy must be one of \[.*'ncap.cons'.*\], got 'nope'"
        ):
            tiny_config(policy="nope")


class TestTopology:
    def test_all_nodes_routable(self):
        _, shard = built_fleet(tiny_config())
        expected = {"server0", "server1", "client0_0", "client0_1",
                    "client1_0", "client1_1"}
        assert set(shard.switch.known_destinations) == expected

    def test_load_split_by_share(self):
        _, shard = built_fleet(tiny_config())
        p0 = shard.clients["server0"][0].burst_period_ns
        p1 = shard.clients["server1"][0].burst_period_ns
        # 70/30 split: server1's clients burst ~2.33x less often.
        assert p1 / p0 == pytest.approx(7 / 3, rel=0.01)


class TestRun:
    def test_per_server_outcomes(self):
        result = run_datacenter(tiny_config())
        assert len(result.servers) == 2
        hot, cold = result.servers
        assert hot.target_rps > cold.target_rps
        assert hot.utilization > cold.utilization
        assert hot.latency.count > 0 and cold.latency.count > 0
        assert result.total_energy_j == pytest.approx(
            sum(s.energy.energy_j for s in result.servers)
        )

    def test_servers_isolated(self):
        # Traffic for one server never shows up at the other.
        run, shard = built_fleet(tiny_config())
        run.execute()
        s0, s1 = shard.servers
        sent0 = sum(c.requests_sent for c in shard.clients["server0"])
        sent1 = sum(c.requests_sent for c in shard.clients["server1"])
        assert abs(s0.app.requests_received - sent0) < 30
        assert abs(s1.app.requests_received - sent1) < 30

    def test_ncap_policy_runs_fleetwide(self):
        result = run_datacenter(tiny_config(policy="ncap.cons"))
        assert all(s.latency.count > 0 for s in result.servers)
