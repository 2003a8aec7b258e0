"""Tests for the preemptible core execution engine."""

import pytest

from repro.cpu import CoreBusyError, CoreState, Job, ProcessorConfig
from repro.cpu.core import Core
from repro.sim import Simulator
from repro.sim.units import US


def make_package(n_cores=1, initial_pstate=0):
    sim = Simulator()
    config = ProcessorConfig(n_cores=n_cores, initial_pstate=initial_pstate)
    package = config.build_package(sim)
    return sim, package


class TestBasicExecution:
    def test_job_duration_scales_with_frequency(self):
        sim, package = make_package()
        core = package.cores[0]
        done_at = []
        core.dispatch(Job(3.1e9 * 100e-6, on_complete=lambda: done_at.append(sim.now)))
        sim.run()
        assert done_at == [100 * US]  # 100 us of P0 cycles at 3.1 GHz

    def test_job_slower_at_deep_pstate(self):
        sim, package = make_package(initial_pstate=14)  # 0.8 GHz
        core = package.cores[0]
        done_at = []
        cycles = 0.8e9 * 100e-6
        core.dispatch(Job(cycles, on_complete=lambda: done_at.append(sim.now)))
        sim.run()
        assert done_at == [100 * US]

    def test_core_idle_after_completion(self):
        sim, package = make_package()
        core = package.cores[0]
        core.dispatch(Job(1000))
        sim.run()
        assert core.state is CoreState.IDLE
        assert core.current_job is None

    def test_on_idle_callback_fires(self):
        sim, package = make_package()
        core = package.cores[0]
        idled = []
        core.on_idle = idled.append
        core.dispatch(Job(1000))
        sim.run()
        assert idled == [core]

    def test_zero_cycle_job_completes_immediately(self):
        sim, package = make_package()
        core = package.cores[0]
        done = []
        core.dispatch(Job(0, on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [0]

    def test_dispatch_to_busy_core_without_preempt_raises(self):
        sim, package = make_package()
        core = package.cores[0]
        core.dispatch(Job(10_000))
        with pytest.raises(CoreBusyError):
            core.dispatch(Job(10))

    def test_busy_accounting(self):
        sim, package = make_package()
        core = package.cores[0]
        core.dispatch(Job(3.1e9 * 50e-6))
        sim.run()
        assert core.busy_ns_total() == 50 * US

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            Job(-1)


class TestPreemption:
    def test_handler_preempts_and_job_resumes(self):
        sim, package = make_package()
        core = package.cores[0]
        order = []
        core.dispatch(Job(3.1e9 * 100e-6, on_complete=lambda: order.append(("app", sim.now))))
        # At t=10us, a 20us handler preempts.
        handler = Job(3.1e9 * 20e-6, on_complete=lambda: order.append(("irq", sim.now)))
        sim.schedule(10 * US, core.dispatch, handler, True)
        sim.run()
        assert order == [("irq", 30 * US), ("app", 120 * US)]

    def test_nested_preemption(self):
        sim, package = make_package()
        core = package.cores[0]
        order = []
        core.dispatch(Job(3.1e9 * 100e-6, on_complete=lambda: order.append("app")))
        outer = Job(3.1e9 * 50e-6, on_complete=lambda: order.append("outer"))
        inner = Job(3.1e9 * 10e-6, on_complete=lambda: order.append("inner"))
        sim.schedule(10 * US, core.dispatch, outer, True)
        sim.schedule(20 * US, core.dispatch, inner, True)
        sim.run()
        assert order == ["inner", "outer", "app"]
        # total work conserved: 160 us of cycles.
        assert sim.now == 160 * US

    def test_preempt_idle_core_runs_immediately(self):
        sim, package = make_package()
        core = package.cores[0]
        done = []
        core.dispatch(Job(3.1e9 * 5e-6, on_complete=lambda: done.append(sim.now)), preempt=True)
        sim.run()
        assert done == [5 * US]

    def test_queue_depth_counts_stack_and_pending(self):
        sim, package = make_package()
        core = package.cores[0]
        core.dispatch(Job(10_000))
        core.dispatch(Job(100), preempt=True)
        assert core.queue_depth() == 1  # the preempted job


class TestSleepAndWake:
    def test_sleep_then_wake_pays_exit_latency(self):
        sim, package = make_package()
        core = package.cores[0]
        c6 = package.cstates.by_name("C6")
        core.enter_sleep(c6)
        assert core.is_sleeping
        done = []
        sim.schedule(100 * US, core.dispatch, Job(0, on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [100 * US + c6.exit_latency_ns]

    def test_wake_extra_latency_configurable(self):
        sim, package = make_package()
        core = package.cores[0]
        core.wake_extra_ns = 6 * US  # MWAIT/MONITOR overhead knob
        c1 = package.cstates.by_name("C1")
        core.enter_sleep(c1)
        done = []
        sim.schedule(0, core.dispatch, Job(0, on_complete=lambda: done.append(sim.now)))
        sim.run()
        assert done == [c1.exit_latency_ns + 6 * US]

    def test_cannot_sleep_while_running(self):
        sim, package = make_package()
        core = package.cores[0]
        core.dispatch(Job(10_000))
        with pytest.raises(RuntimeError):
            core.enter_sleep(package.cstates.by_name("C1"))

    def test_wake_is_idempotent_while_waking(self):
        sim, package = make_package()
        core = package.cores[0]
        core.enter_sleep(package.cstates.by_name("C6"))
        core.wake()
        core.wake()  # no double wake event
        sim.run()
        assert core.state is CoreState.IDLE

    def test_multiple_jobs_queued_during_sleep_run_in_order(self):
        sim, package = make_package()
        core = package.cores[0]
        core.enter_sleep(package.cstates.by_name("C3"))
        order = []
        core.dispatch(Job(1000, on_complete=lambda: order.append("a")))
        core.dispatch(Job(1000, on_complete=lambda: order.append("b")))
        sim.run()
        assert order == ["a", "b"]

    def test_cstate_entry_counted(self):
        sim, package = make_package()
        core = package.cores[0]
        core.enter_sleep(package.cstates.by_name("C6"))
        core.wake()
        sim.run()
        core.enter_sleep(package.cstates.by_name("C6"))
        core.wake()
        sim.run()
        assert core.cstate_entries == {"C6": 2}

    def test_sleep_residency_metered(self):
        sim, package = make_package()
        core = package.cores[0]
        c6 = package.cstates.by_name("C6")
        core.enter_sleep(c6)
        sim.schedule(500 * US, core.wake)
        sim.run()
        report = core.meter.report()
        # The entry transition is metered separately (churn cost): C6
        # residency is the visit minus the entry latency.
        assert report.residency_ns["C6"] == 500 * US - c6.entry_latency_ns

    def test_sleep_entry_transition_charged(self):
        sim, package = make_package()
        core = package.cores[0]
        c6 = package.cstates.by_name("C6")
        core.enter_sleep(c6)
        sim.schedule(500 * US, core.wake)
        sim.run()
        report = core.meter.report()
        # Entry (15 us) at transition power + exit (22 us) while waking.
        assert report.residency_ns["waking"] == c6.entry_latency_ns + c6.exit_latency_ns

    def test_short_sleep_visit_costs_more_than_it_saves(self):
        # The churn effect ([11] in the paper): a C6 visit much shorter than
        # its residency consumes more energy than staying in C1.
        from repro.cpu import PowerMode, PowerModel

        model = PowerModel()
        c6 = make_package()[1].cstates.by_name("C6")
        visit_ns = 30 * US
        churn = (
            model.core_power_w(PowerMode.WAKING, 1.2, 3.1e9)
            * (c6.entry_latency_ns + c6.exit_latency_ns)
            + model.core_power_w(PowerMode.C6, 1.2, 3.1e9)
            * (visit_ns - c6.entry_latency_ns)
        )
        stay_c1 = model.core_power_w(PowerMode.C1, 1.2, 3.1e9) * visit_ns
        assert churn > stay_c1

    def test_idle_since_tracks_last_idle_entry(self):
        sim, package = make_package()
        core = package.cores[0]
        core.dispatch(Job(3.1e9 * 10e-6))
        sim.run()
        assert core.idle_since == 10 * US


class TestHotPathAliases:
    """The per-job methods load enum members through module aliases."""

    @pytest.mark.parametrize(
        "method", ["_start", "_complete", "_maybe_run_next", "dispatch"]
    )
    def test_no_enum_class_lookups(self, method):
        names = getattr(Core, method).__code__.co_names
        assert "CoreState" not in names
        assert "PowerMode" not in names
