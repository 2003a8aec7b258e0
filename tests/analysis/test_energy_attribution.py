"""Energy provenance: conservation, governor grading, observer purity.

The contract: the telescoping components (active + ramp + wake + floor +
wasted_shallow) sum to the EnergyReport integral within ±1 µJ on every
policy, the accounting is a pure observer (attaching it never changes
the simulated results), and the payload merges/serializes losslessly.
"""

import json

import pytest

from repro.analysis.energy import (
    CONSERVATION_TOL_J,
    EnergyAttribution,
    attribution_between,
    format_energy_blame,
    format_energy_diff,
    format_governor_misses,
)
from repro.cluster.simulation import ExperimentConfig, run_experiment
from repro.cpu.energy import EnergyReport
from repro.harness.settings import RunSettings
from repro.sim.units import MS

QUICK = RunSettings(warmup_ns=5 * MS, measure_ns=40 * MS, drain_ns=30 * MS, seed=2)


def quick_run(policy, **kwargs):
    config = ExperimentConfig.from_settings(
        QUICK, app="apache", policy=policy, target_rps=24_000.0
    )
    return run_experiment(config, **kwargs)


class TestPayload:
    def attribution(self, **overrides):
        base = dict(
            governor="menu",
            total_j=10.0,
            active_j=6.0,
            ramp_j=0.5,
            wake_j=0.5,
            wasted_shallow_j=1.0,
            floor_j_by_state={"C1": 1.5, "C6": 0.5},
            floor_ns_by_state={"C1": 1000, "C6": 5000},
            decisions={"menu": {"0": {"above": 1, "below": 2, "hit": 3}}},
            above_ns=200,
            below_j=0.9,
        )
        base.update(overrides)
        return EnergyAttribution(**base)

    def test_components_telescope(self):
        attr = self.attribution()
        assert attr.floor_j == pytest.approx(2.0)
        assert attr.components_sum_j == pytest.approx(10.0)
        assert attr.conservation_error_j == pytest.approx(0.0)
        assert attr.component_j("floor") == pytest.approx(2.0)
        assert attr.component_j("active") == pytest.approx(6.0)

    def test_decision_totals(self):
        attr = self.attribution(
            decisions={
                "menu": {"0": {"above": 1, "below": 2, "hit": 3},
                         "1": {"above": 0, "below": 1, "hit": 4}},
                "none": {"0": {"above": 0, "below": 7, "hit": 0}},
            }
        )
        assert attr.decision_totals() == {"above": 1, "below": 10, "hit": 7}
        assert attr.decision_totals("none") == {"above": 0, "below": 7, "hit": 0}

    def test_merge_sums_and_unions(self):
        a = self.attribution()
        b = self.attribution(
            governor="none",
            floor_j_by_state={"C1": 0.5, "C3": 1.0},
            floor_ns_by_state={"C1": 10, "C3": 20},
            decisions={"none": {"0": {"above": 0, "below": 5, "hit": 0}}},
        )
        merged = a.merge(b)
        assert merged.governor == "menu+none"
        assert merged.total_j == pytest.approx(20.0)
        assert merged.n_nodes == 2
        assert merged.floor_j_by_state == pytest.approx(
            {"C1": 2.0, "C3": 1.0, "C6": 0.5}
        )
        assert merged.floor_ns_by_state == {"C1": 1010, "C3": 20, "C6": 5000}
        assert merged.decisions["menu"]["0"] == {"above": 1, "below": 2, "hit": 3}
        assert merged.decisions["none"]["0"] == {"above": 0, "below": 5, "hit": 0}
        assert merged.above_ns == 400
        assert merged.below_j == pytest.approx(1.8)
        # Same-governor merge keeps a single name and adds per-core.
        same = a.merge(self.attribution())
        assert same.governor == "menu"
        assert same.decisions["menu"]["0"] == {"above": 2, "below": 4, "hit": 6}

    def test_json_round_trip(self):
        attr = self.attribution()
        data = json.loads(json.dumps(attr.to_json_dict(), sort_keys=True))
        back = EnergyAttribution.from_json_dict(data)
        assert back == attr

    def test_attribution_between_diffs_snapshots(self):
        start = {
            "governor": "menu",
            "decisions": {"0": {"above": 1, "below": 0, "hit": 2}},
            "above_ns": 100,
            "below_j": 0.1,
            "floor_j_by_state": {"C1": 1.0},
            "floor_ns_by_state": {"C1": 500},
            "wasted_shallow_j": 0.2,
        }
        end = {
            "governor": "menu",
            "decisions": {"0": {"above": 1, "below": 3, "hit": 6},
                          "1": {"above": 2, "below": 0, "hit": 0}},
            "above_ns": 300,
            "below_j": 0.5,
            "floor_j_by_state": {"C1": 1.5, "C6": 2.0},
            "floor_ns_by_state": {"C1": 700, "C6": 900},
            "wasted_shallow_j": 0.9,
        }
        window = EnergyReport(
            energy_j=8.0,
            residency_ns={"run": 100},
            energy_by_mode_j={"run": 4.0, "stall": 0.25, "waking": 0.05},
        )
        attr = attribution_between(start, end, window)
        assert attr.total_j == pytest.approx(8.0)
        assert attr.active_j == pytest.approx(4.0)
        assert attr.ramp_j == pytest.approx(0.25)
        assert attr.wake_j == pytest.approx(0.05)
        assert attr.wasted_shallow_j == pytest.approx(0.7)
        assert attr.floor_j_by_state == pytest.approx({"C1": 0.5, "C6": 2.0})
        assert attr.floor_ns_by_state == {"C1": 200, "C6": 900}
        assert attr.decisions == {
            "menu": {"0": {"above": 0, "below": 3, "hit": 4},
                     "1": {"above": 2, "below": 0, "hit": 0}},
        }
        assert attr.above_ns == 200
        assert attr.below_j == pytest.approx(0.4)


class TestConservation:
    @pytest.mark.parametrize(
        "policy", ["ond.idle", "ncap.cons", "perf", "ncap.percore", "adrenaline"]
    )
    def test_window_conservation_under_audit(self, policy):
        result = quick_run(policy, energy_attribution=True, audit=True)
        attr = result.energy_attribution
        assert attr is not None
        assert abs(attr.conservation_error_j) <= CONSERVATION_TOL_J
        assert attr.total_j == pytest.approx(result.energy.energy_j)
        assert attr.wasted_shallow_j >= -CONSERVATION_TOL_J
        # Floor residency covers exactly the idle-mode window residency.
        idle_ns = sum(
            ns for mode, ns in result.energy.residency_ns.items()
            if mode in ("idle", "C1", "C3", "C6")
        )
        assert sum(attr.floor_ns_by_state.values()) == idle_ns

    def test_perf_policy_grades_against_none_governor(self):
        result = quick_run("perf", energy_attribution=True)
        attr = result.energy_attribution
        assert attr.governor == "none"
        totals = attr.decision_totals()
        # No cpuidle: every long idle period is a "below" miss and all
        # idle joules above the oracle floor are blamed wasted-shallow.
        assert totals["below"] > 0
        assert totals["above"] == 0
        assert attr.wasted_shallow_j > 0.1

    def test_deep_idle_policy_actually_uses_cstates(self):
        result = quick_run("ond.idle", energy_attribution=True)
        attr = result.energy_attribution
        assert attr.governor == "menu"
        assert sum(attr.decision_totals().values()) > 0
        # The menu governor reaches deep states: some C6 floor residency.
        assert attr.floor_ns_by_state.get("C6", 0) > 0


class TestObserverPurity:
    def test_attaching_accounting_changes_nothing(self):
        plain = quick_run("ncap.cons")
        observed = quick_run("ncap.cons", energy_attribution=True)
        assert observed.energy == plain.energy
        assert observed.latency == plain.latency
        assert observed.cstate_entries == plain.cstate_entries
        assert observed.counters == plain.counters
        assert plain.energy_attribution is None
        assert observed.energy_attribution is not None

    def test_record_schema_carries_payload(self):
        from repro.harness.record import ResultRecord

        result = quick_run("ond.idle", energy_attribution=True)
        record = ResultRecord.from_result(result, config_hash="x", seed=2)
        data = record.to_json_dict()
        assert data["energy_attribution"]
        back = ResultRecord.from_json_dict(
            json.loads(json.dumps(data, sort_keys=True))
        )
        rebuilt = back.energy_attribution_report()
        assert rebuilt == result.energy_attribution
        plain_record = ResultRecord.from_result(
            quick_run("ond.idle"), config_hash="x", seed=2
        )
        assert plain_record.energy_attribution == {}
        assert plain_record.energy_attribution_report() is None


class TestReports:
    def rows(self):
        a = quick_run("ond.idle", energy_attribution=True)
        b = quick_run("ncap.cons", energy_attribution=True)
        return [("ond.idle", a.energy_attribution),
                ("ncap.cons", b.energy_attribution)]

    def test_blame_and_miss_tables(self):
        rows = self.rows()
        blame = format_energy_blame(rows, title="test blame")
        assert "test blame" in blame
        assert "wasted" in blame and "ond.idle" in blame
        # C6 column appears even when its floor is exactly 0 J.
        assert "floor C6" in blame
        misses = format_governor_misses(rows)
        assert "menu" in misses and "hit" in misses

    def test_diff_table(self):
        rows = self.rows()
        diff = format_energy_diff(rows[0][0], rows[0][1], rows[1][0], rows[1][1])
        assert "ncap.cons vs ond.idle" in diff
        assert "wasted_shallow" in diff


class TestExperimentPresets:
    def test_headline_preset_runs_and_formats(self):
        from repro.experiments import energy as energy_exp

        result = energy_exp.run("fig4", settings=QUICK, jobs=1)
        assert [row.policy for row in result.rows] == ["ond.idle", "ncap.cons"]
        report = energy_exp.format_report(result, diff="ond.idle")
        assert "Energy provenance: fig4" in report
        assert "Governor decisions" in report
        assert "ncap.cons vs ond.idle" in report

    def test_unknown_preset_and_diff_policy(self):
        from repro.experiments import energy as energy_exp

        with pytest.raises(KeyError, match="unknown energy experiment"):
            energy_exp.run("nope", settings=QUICK, jobs=1)
        result = energy_exp.run("fig4", settings=QUICK, jobs=1)
        with pytest.raises(KeyError, match="no energy row"):
            energy_exp.format_report(result, diff="perf")

    def test_dashboard_energy_block(self):
        from repro.viz.dashboard import _energy_block

        result = quick_run("ond.idle", energy_attribution=True)
        block = _energy_block(result.energy_attribution)
        assert "Energy decomposition" in block
        assert "wasted shallow" in block
        assert "Governor decisions" in block


class TestExperimentCache:
    """``repro energy`` reuses cached attributed records (the --diff fix)."""

    def test_second_run_served_from_cache(self, tmp_path):
        from repro.experiments import energy as energy_exp
        from repro.harness.cache import ResultCache

        cache = ResultCache(str(tmp_path))
        first = energy_exp.run("fig4", settings=QUICK, jobs=1, cache=cache)
        assert cache.stores == 2 and cache.hits == 0
        second = energy_exp.run("fig4", settings=QUICK, jobs=1, cache=cache)
        assert cache.hits == 2 and cache.stores == 2
        for row_a, row_b in zip(first.rows, second.rows):
            assert row_a.policy == row_b.policy
            assert json.dumps(row_a.attribution.to_json_dict()) == (
                json.dumps(row_b.attribution.to_json_dict())
            )
            assert row_a.latency.p99_ns == row_b.latency.p99_ns

    def test_unattributed_cache_entry_upgraded_in_place(self, tmp_path):
        from repro.experiments import energy as energy_exp
        from repro.harness.cache import ResultCache
        from repro.harness.hashing import config_hash
        from repro.harness.record import ResultRecord

        cache = ResultCache(str(tmp_path))
        # Seed the cache the way a plain (unattributed) sweep would.
        preset = energy_exp.PRESETS["fig4"]
        for policy in preset.policies:
            config = energy_exp._policy_config(preset, policy, QUICK)
            result = run_experiment(config)
            record = ResultRecord.from_result(
                result, config_hash=config_hash(config), seed=config.seed
            )
            assert record.energy_attribution_report() is None
            cache.put(record)
        # The energy run must re-simulate (no attribution payload yet)...
        energy_exp.run("fig4", settings=QUICK, jobs=1, cache=cache)
        assert cache.stores == 4  # 2 seeds + 2 upgraded entries
        # ...after which the upgraded entries satisfy a fresh run.
        fresh = ResultCache(str(tmp_path))
        energy_exp.run("fig4", settings=QUICK, jobs=1, cache=fresh)
        assert fresh.hits == 2 and fresh.stores == 0
