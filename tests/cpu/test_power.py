"""Tests for the power model calibration against Table 1 anchors."""

import pytest

from repro.cpu import PowerMode, PowerModel, PowerModelConfig, ProcessorConfig
from repro.sim.units import ghz


class TestCalibration:
    def setup_method(self):
        self.model = PowerModel()

    def test_core_max_power_at_p0(self):
        # 20 W/core -> 80 W package at P0 fully busy (Table 1 upper bound).
        power = self.model.core_power_w(PowerMode.RUN, 1.2, ghz(3.1))
        assert power == pytest.approx(20.0, rel=1e-6)

    def test_package_min_power_near_12w(self):
        # 4 cores busy at the deepest P-state ~= 12 W (Table 1 lower bound).
        power = 4 * self.model.core_power_w(PowerMode.RUN, 0.65, ghz(0.8))
        assert 10.0 < power < 13.0

    def test_static_anchors(self):
        assert self.model.static_power_w(0.65) == pytest.approx(1.92)
        assert self.model.static_power_w(1.2) == pytest.approx(7.11)

    def test_static_interpolates_between_anchors(self):
        mid = self.model.static_power_w(0.925)
        assert 1.92 < mid < 7.11

    def test_c1_power_equals_static_at_current_v(self):
        for v in (0.65, 0.9, 1.2):
            assert self.model.core_power_w(PowerMode.C1, v, ghz(3.1)) == pytest.approx(
                self.model.static_power_w(v)
            )

    def test_c3_power_fixed(self):
        # 1.64 W at the 0.6 V retention rail regardless of domain V/F.
        assert self.model.core_power_w(PowerMode.C3, 1.2, ghz(3.1)) == pytest.approx(1.64)
        assert self.model.core_power_w(PowerMode.C3, 0.65, ghz(0.8)) == pytest.approx(1.64)

    def test_c6_power_zero(self):
        assert self.model.core_power_w(PowerMode.C6, 1.2, ghz(3.1)) == 0.0


class TestModeOrdering:
    """Deeper modes must never consume more than shallower ones."""

    def setup_method(self):
        self.model = PowerModel()

    @pytest.mark.parametrize("v,f", [(1.2, ghz(3.1)), (0.65, ghz(0.8)), (0.9, ghz(2.0))])
    def test_monotone_power_ladder(self, v, f):
        run = self.model.core_power_w(PowerMode.RUN, v, f)
        idle = self.model.core_power_w(PowerMode.IDLE_POLL, v, f)
        c1 = self.model.core_power_w(PowerMode.C1, v, f)
        c3 = self.model.core_power_w(PowerMode.C3, v, f)
        c6 = self.model.core_power_w(PowerMode.C6, v, f)
        assert run > idle > c1 >= c3 > c6 or (run > idle > c1 and c3 >= c6)

    def test_stall_cheaper_than_idle_poll(self):
        stall = self.model.core_power_w(PowerMode.STALL, 1.2, ghz(3.1))
        idle = self.model.core_power_w(PowerMode.IDLE_POLL, 1.2, ghz(3.1))
        assert stall < idle


class TestScaling:
    def setup_method(self):
        self.model = PowerModel()

    def test_dynamic_power_quadratic_in_v(self):
        base = self.model.dynamic_power_w(0.6, ghz(1))
        doubled_v = self.model.dynamic_power_w(1.2, ghz(1))
        assert doubled_v == pytest.approx(4 * base)

    def test_dynamic_power_linear_in_f(self):
        base = self.model.dynamic_power_w(1.0, ghz(1))
        assert self.model.dynamic_power_w(1.0, ghz(2)) == pytest.approx(2 * base)

    def test_activity_scales_dynamic(self):
        full = self.model.dynamic_power_w(1.0, ghz(1), activity=1.0)
        half = self.model.dynamic_power_w(1.0, ghz(1), activity=0.5)
        assert half == pytest.approx(full / 2)

    def test_negative_activity_rejected(self):
        with pytest.raises(ValueError):
            self.model.dynamic_power_w(1.0, ghz(1), activity=-0.1)

    def test_running_at_p0_beats_race_to_idle_break_even(self):
        """Sanity for race-to-halt: doing W cycles fast at P0 then sleeping in
        C6 costs less energy than doing them slowly at Pmin with no sleep."""
        cycles = 3.1e9 * 0.010  # 10 ms of work at P0
        t_fast = cycles / ghz(3.1)
        t_slow = cycles / ghz(0.8)
        e_fast = self.model.core_power_w(PowerMode.RUN, 1.2, ghz(3.1)) * t_fast
        e_fast += self.model.core_power_w(PowerMode.C6, 1.2, ghz(3.1)) * (t_slow - t_fast)
        e_slow = self.model.core_power_w(PowerMode.RUN, 0.65, ghz(0.8)) * t_slow
        # Race-to-halt is competitive (within the same order of magnitude);
        # the exact winner depends on leakage share, as in real silicon.
        assert e_fast < 2 * e_slow


class TestConfigValidation:
    def test_rejects_static_exceeding_total(self):
        with pytest.raises(ValueError):
            PowerModel(PowerModelConfig(core_max_power_w=5.0))

    def test_rejects_inverted_voltage_anchors(self):
        with pytest.raises(ValueError):
            PowerModel(PowerModelConfig(v_low=1.2, v_high=0.65))

    def test_unknown_mode_rejected(self):
        model = PowerModel()
        with pytest.raises(ValueError):
            model.core_power_w("not-a-mode", 1.0, ghz(1))  # type: ignore[arg-type]


class TestMemo:
    def test_memoized_power_equals_fresh_model(self):
        model = PowerModel()
        points = [(m, p.voltage, p.freq_hz)
                  for m in PowerMode for p in ProcessorConfig().pstate_table()]
        first = [model.core_power_w(*point) for point in points]
        again = [model.core_power_w(*point) for point in points]
        fresh = [PowerModel().core_power_w(*point) for point in points]
        assert first == again == fresh
        assert len(model._core_power) == len(points)
