"""Cross-governor interaction tests: the places where NCAP, ondemand, the
menu governor, and DVFS hardware meet."""

import pytest

from repro.cpu import CoreState, Job, ProcessorConfig
from repro.oskernel import (
    CpufreqDriver,
    CpuidleDriver,
    IRQController,
    MenuGovernor,
    OndemandGovernor,
    Scheduler,
)
from repro.sim import Simulator
from repro.sim.units import MS, US


def make(initial_pstate=0):
    sim = Simulator()
    package = ProcessorConfig(n_cores=4, initial_pstate=initial_pstate).build_package(sim)
    scheduler = Scheduler(sim, package)
    cpufreq = CpufreqDriver(sim, package)
    irq = IRQController(sim, package)
    return sim, package, scheduler, cpufreq, irq


class TestOndemandVsBoost:
    def test_hold_prevents_fight_after_boost(self):
        # NCAP boosts to P0 then holds ondemand for one period: the idle
        # sample at the next tick must NOT drop the frequency.
        sim, package, scheduler, cpufreq, irq = make(initial_pstate=14)
        governor = OndemandGovernor(sim, cpufreq, irq, period_ns=10 * MS)
        governor.start()
        sim.schedule_at(5 * MS, cpufreq.boost_to_max)
        sim.schedule_at(5 * MS, governor.hold)
        sim.run(until=12 * MS)
        assert package.effective_target_index == 0
        # After the hold expires, idle sampling pulls it back down.
        sim.run(until=25 * MS)
        assert package.effective_target_index == package.pstates.max_index

    def test_without_hold_ondemand_undoes_the_boost(self):
        sim, package, scheduler, cpufreq, irq = make(initial_pstate=14)
        governor = OndemandGovernor(sim, cpufreq, irq, period_ns=10 * MS)
        governor.start()
        sim.schedule_at(5 * MS, cpufreq.boost_to_max)
        sim.run(until=12 * MS)
        assert package.effective_target_index == package.pstates.max_index


class TestMenuVsDisable:
    def test_disable_mid_sleep_leaves_core_asleep(self):
        # NCAP's IT_HIGH disables the menu governor; cores already in a
        # C-state stay there until work (or an IT_HIGH wake) arrives.
        sim, package, scheduler, cpufreq, irq = make()
        driver = CpuidleDriver(MenuGovernor(package.cstates))
        scheduler.idle_hook = driver.on_core_idle
        core = package.cores[0]
        core.enter_sleep(package.cstates.by_name("C6"))
        driver.disable()
        sim.run(until=5 * MS)
        assert core.state is CoreState.SLEEP

    def test_disable_stops_promotions_too(self):
        sim, package, scheduler, cpufreq, irq = make()
        driver = CpuidleDriver(MenuGovernor(package.cstates))
        scheduler.idle_hook = driver.on_core_idle
        core = package.cores[0]
        core.enter_sleep(package.cstates.by_name("C1"))
        driver._arm_promotion(core, core.idle_since, package.cstates.by_name("C1"))
        driver.disable()
        sim.run(until=5 * MS)
        assert core.current_cstate.name == "C1"  # never promoted

    def test_reenabled_governor_resumes_on_next_idle(self):
        sim, package, scheduler, cpufreq, irq = make()
        driver = CpuidleDriver(MenuGovernor(package.cstates))
        scheduler.idle_hook = driver.on_core_idle
        driver.disable()
        scheduler.enqueue(Job(3.1e9 * 5e-6))
        sim.run(until=MS)
        assert package.cores[0].state is CoreState.IDLE
        driver.enable()
        scheduler.enqueue(Job(3.1e9 * 5e-6))
        sim.run(until=2 * MS)
        assert package.cores[0].state is CoreState.SLEEP


class TestDVFSDuringSleep:
    def test_sleeping_core_wakes_at_new_frequency(self):
        sim, package, scheduler, cpufreq, irq = make(initial_pstate=0)
        core = package.cores[1]
        core.enter_sleep(package.cstates.by_name("C6"))
        package.set_pstate(14)
        sim.run()
        done = []
        cycles = 0.8e9 * 100e-6  # 100 us at the NEW frequency
        start = sim.now
        core.dispatch(Job(cycles, on_complete=lambda: done.append(sim.now)))
        sim.run()
        exit_ns = package.cstates.by_name("C6").exit_latency_ns
        assert done[0] - start == pytest.approx(exit_ns + 100 * US, abs=10)

    def test_boost_during_wake_applies_when_core_runs(self):
        # IT_HIGH lands while a core is mid-wake: the job it then runs
        # executes at (or heading to) P0.
        sim, package, scheduler, cpufreq, irq = make(initial_pstate=14)
        core = package.cores[0]
        core.enter_sleep(package.cstates.by_name("C6"))
        core.dispatch(Job(1000))  # triggers the wake
        cpufreq.boost_to_max()    # NCAP fires during the wake
        sim.run()
        assert package.pstate_index == 0


class TestUtilizationAttribution:
    def test_governor_sees_kernel_work_as_busy(self):
        # ondemand's own sampling work plus IRQ handlers count as busy
        # time, inflating utilization exactly as on real systems.
        sim, package, scheduler, cpufreq, irq = make(initial_pstate=7)
        governor = OndemandGovernor(
            sim, cpufreq, irq, period_ns=MS, overhead_cycles=200_000
        )
        governor.start()
        sim.run(until=20 * MS)
        # 200 K cycles/ms at ~2 GHz is ~10% utilization from overhead
        # alone, so the governor keeps itself above the floor frequency.
        assert governor.last_utilization > 0.04
