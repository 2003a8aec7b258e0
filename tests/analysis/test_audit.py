"""InvariantAuditor: violation detection and clean-run acceptance."""

import pytest

from repro.analysis.attribution import AttributionSink
from repro.analysis.audit import AuditError, InvariantAuditor
from repro.telemetry import Telemetry
from repro.telemetry.events import CStateTransition, RequestPhase


def make_auditor():
    auditor = InvariantAuditor()
    telemetry = Telemetry()
    auditor.attach(telemetry)
    return auditor, telemetry


def emit_span(telemetry, t, phase, req_id=1, src="c0"):
    telemetry.probe("request.span").emit(
        RequestPhase(t_ns=t, src=src, req_id=req_id, phase=phase)
    )


def emit_cstate(telemetry, t, phase, core=0, state="C6", exit_ns=0):
    telemetry.probe("cpu.cstate").emit(
        CStateTransition(t, "cpu", core, state, 3, phase,
                         exit_latency_ns=exit_ns)
    )


class TestSpanInvariants:
    def test_clean_lifecycle_passes(self):
        auditor, telemetry = make_auditor()
        for t, phase in ((10, "arrival"), (20, "dma"), (30, "delivered"),
                         (40, "service"), (50, "reply")):
            emit_span(telemetry, t, phase)
        auditor.finish()
        assert auditor.spans_checked == 1

    def test_out_of_order_phase_detected(self):
        auditor, telemetry = make_auditor()
        emit_span(telemetry, 10, "arrival")
        emit_span(telemetry, 20, "delivered")
        emit_span(telemetry, 30, "dma")          # pipeline order violated
        assert any("out of order" in v for v in auditor.violations)

    def test_time_regression_detected(self):
        auditor, telemetry = make_auditor()
        emit_span(telemetry, 100, "arrival")
        emit_span(telemetry, 90, "dma")
        assert any("time went backwards" in v for v in auditor.violations)

    def test_phase_without_arrival_detected(self):
        auditor, telemetry = make_auditor()
        emit_span(telemetry, 10, "service")
        assert any("without arrival" in v for v in auditor.violations)

    def test_duplicate_arrival_detected(self):
        auditor, telemetry = make_auditor()
        emit_span(telemetry, 10, "arrival")
        emit_span(telemetry, 20, "arrival")
        assert any("duplicate arrival" in v for v in auditor.violations)

    def test_dropped_is_terminal_and_early_only(self):
        auditor, telemetry = make_auditor()
        emit_span(telemetry, 10, "arrival", req_id=1)
        emit_span(telemetry, 20, "dma", req_id=1)
        emit_span(telemetry, 30, "dropped", req_id=1)
        assert auditor.violations == []
        emit_span(telemetry, 10, "arrival", req_id=2)
        emit_span(telemetry, 20, "dma", req_id=2)
        emit_span(telemetry, 30, "delivered", req_id=2)
        emit_span(telemetry, 40, "dropped", req_id=2)
        assert any("dropped after delivery" in v for v in auditor.violations)


class TestCStateInvariants:
    def test_paired_enter_wake_passes(self):
        auditor, telemetry = make_auditor()
        emit_cstate(telemetry, 10, "enter", state="C3")
        emit_cstate(telemetry, 50, "promote", state="C6")
        emit_cstate(telemetry, 90, "wake", state="C6", exit_ns=40)
        auditor.finish()

    def test_wake_without_enter_detected(self):
        auditor, telemetry = make_auditor()
        emit_cstate(telemetry, 10, "wake", state="C6")
        assert any("woke without a matching enter" in v
                   for v in auditor.violations)

    def test_double_enter_detected(self):
        auditor, telemetry = make_auditor()
        emit_cstate(telemetry, 10, "enter", state="C3")
        emit_cstate(telemetry, 20, "enter", state="C6")
        assert any("while in C3" in v for v in auditor.violations)

    def test_wake_state_mismatch_detected(self):
        auditor, telemetry = make_auditor()
        emit_cstate(telemetry, 10, "enter", state="C3")
        emit_cstate(telemetry, 20, "wake", state="C6")
        assert any("woke from C6 but was in C3" in v
                   for v in auditor.violations)


class TestFinish:
    def test_finish_raises_with_all_violations(self):
        auditor, telemetry = make_auditor()
        emit_span(telemetry, 10, "service")
        emit_cstate(telemetry, 10, "wake")
        with pytest.raises(AuditError) as excinfo:
            auditor.finish()
        assert len(excinfo.value.violations) == 2

    def test_adopts_attribution_violations(self):
        auditor, _ = make_auditor()
        sink = AttributionSink(f_max_hz=1e9)
        sink.conservation_violations.append("c0/1: off by 5 ns")
        with pytest.raises(AuditError, match="attribution"):
            auditor.finish(attribution=sink)

    def test_violation_cap(self):
        auditor, telemetry = make_auditor()
        fed = auditor.max_violations + 50
        for i in range(fed):
            emit_span(telemetry, 10, "service", req_id=i)
            emit_span(telemetry, 20, "reply", req_id=i)
        assert len(auditor.violations) == auditor.max_violations
        assert auditor.violation_count == fed
        with pytest.raises(AuditError) as excinfo:
            auditor.finish()
        assert excinfo.value.total == fed
        assert len(excinfo.value.violations) == auditor.max_violations
        assert str(excinfo.value).startswith(
            f"{fed} invariant violation(s) ({auditor.max_violations} kept)"
        )

    def test_counts_attribution_violations_past_the_sink_cap(self):
        auditor, _ = make_auditor()
        sink = AttributionSink(f_max_hz=1e9)
        sink.conservation_violations.extend(
            f"c0/{i}: off by 5 ns" for i in range(sink.MAX_VIOLATION_MESSAGES)
        )
        sink.violation_count = 30
        with pytest.raises(AuditError) as excinfo:
            auditor.finish(attribution=sink)
        assert excinfo.value.total == 30
        assert len(excinfo.value.violations) == sink.MAX_VIOLATION_MESSAGES


class TestClusterChecks:
    def test_clean_run_passes_audit(self):
        from repro.cluster.simulation import ExperimentConfig, run_experiment
        from repro.sim.units import MS

        config = ExperimentConfig(
            app="apache", policy="ond.idle", target_rps=24_000,
            warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=20 * MS,
        )
        result = run_experiment(config, audit=True)
        assert result.responses_received > 0

    @pytest.mark.parametrize("policy", ["ncap.percore", "adrenaline"])
    def test_per_core_runs_pass_audit(self, policy):
        from repro.cluster.simulation import ExperimentConfig, run_experiment
        from repro.sim.units import MS

        config = ExperimentConfig(
            app="memcached", policy=policy, target_rps=30_000,
            warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=20 * MS,
        )
        result = run_experiment(config, audit=True, energy_attribution=True)
        assert result.responses_received > 0
        assert result.energy_attribution.governor == "menu"
