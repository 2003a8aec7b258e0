"""Tests for the event-exact probe oracle the recorder tests compare against."""

import pytest

from repro.telemetry import (
    CStateTransition,
    NicRx,
    NicTx,
    PStateChange,
    Telemetry,
)
from tests.telemetry.probe_oracle import ByteLog, ProbeOracle, StepSeries


class TestStepSeries:
    def test_value_at_steps(self):
        steps = StepSeries()
        steps.record(0, 0.8)
        steps.record(100, 3.1)
        assert steps.value_at(0) == 0.8
        assert steps.value_at(99) == 0.8
        assert steps.value_at(100) == 3.1
        assert steps.value_at(500) == 3.1

    def test_value_before_first_sample_is_default(self):
        steps = StepSeries()
        steps.record(50, 1.0)
        assert steps.value_at(10) is None
        assert steps.value_at(10, default=-1.0) == -1.0

    def test_times_must_be_monotone(self):
        steps = StepSeries()
        steps.record(10, 1.0)
        with pytest.raises(AssertionError):
            steps.record(5, 2.0)


class TestByteLog:
    def test_total_accumulates(self):
        log = ByteLog()
        log.add(10, 100)
        log.add(20, 50)
        assert log.total == 150

    def test_between_bins(self):
        log = ByteLog()
        for t, size in ((0, 1), (99, 2), (100, 4), (250, 8)):
            log.add(t, size)
        assert [log.between(t, t + 100) for t in (0, 100, 200)] == [3, 4, 8]

    def test_between_excludes_outside_window(self):
        log = ByteLog()
        log.add(5, 1)
        log.add(150, 2)
        log.add(200, 4)
        assert log.between(100, 200) == 2


class TestProbeOracle:
    def make(self):
        telemetry = Telemetry()
        oracle = ProbeOracle()
        telemetry.add_sink(oracle)
        return telemetry, oracle

    def test_rx_tx_byte_totals(self):
        telemetry, oracle = self.make()
        telemetry.probe("nic.rx").emit(NicRx(100, "server", 1500, "request"))
        telemetry.probe("nic.tx").emit(NicTx(200, "server", 900, "response"))
        assert oracle.rx.total == 1500
        assert oracle.tx.total == 900

    def test_freq_in_ghz(self):
        telemetry, oracle = self.make()
        telemetry.probe("cpu.pstate").emit(PStateChange(0, "server.cpu", 0, 3.1e9))
        assert oracle.freq_ghz["server.cpu"].values == [3.1]

    def test_cstate_index_then_zero(self):
        telemetry, oracle = self.make()
        probe = telemetry.probe("cpu.cstate")
        probe.emit(CStateTransition(10, "server.cpu", 2, "C6", 3, "enter"))
        probe.emit(CStateTransition(50, "server.cpu", 2, "C6", 3, "wake"))
        assert oracle.cstate[2].times == [10, 50]
        assert oracle.cstate[2].values == [3, 0]

    def test_subscriptions_apply_to_probes_created_later(self):
        telemetry, oracle = self.make()
        # The probe point did not exist when the oracle attached.
        telemetry.probe("nic.rx").emit(NicRx(5, "eth9", 60, "data"))
        assert oracle.rx.total == 60
