"""Tests for the enhanced driver interrupt handler (Figure 5(d))."""

from repro.core import NCAPConfig, NCAPDriverExtension
from repro.cpu import CoreState, ProcessorConfig
from repro.net.interrupts import ICR
from repro.oskernel import (
    CpufreqDriver,
    CpuidleDriver,
    IRQController,
    MenuGovernor,
    OndemandGovernor,
    Scheduler,
)
from repro.sim import Simulator
from repro.sim.units import MS


def make(fcons=5, initial_pstate=14, with_ondemand=False):
    sim = Simulator()
    package = ProcessorConfig(n_cores=4, initial_pstate=initial_pstate).build_package(sim)
    scheduler = Scheduler(sim, package)
    cpufreq = CpufreqDriver(sim, package)
    irq = IRQController(sim, package)
    cpuidle = CpuidleDriver(MenuGovernor(package.cstates))
    scheduler.idle_hook = cpuidle.on_core_idle
    ondemand = OndemandGovernor(sim, cpufreq, irq) if with_ondemand else None
    ext = NCAPDriverExtension(
        NCAPConfig(fcons=fcons), cpufreq, cpuidle=cpuidle, ondemand=ondemand
    )
    return sim, package, scheduler, cpufreq, cpuidle, ondemand, ext


class TestITHigh:
    def test_boosts_to_p0(self):
        sim, package, _, _, _, _, ext = make(initial_pstate=14)
        ext.on_icr(ICR.IT_HIGH | ICR.IT_RX)
        sim.run()
        assert package.pstate_index == 0

    def test_disables_menu_governor(self):
        sim, package, _, _, cpuidle, _, ext = make()
        ext.on_icr(ICR.IT_HIGH)
        assert not cpuidle.enabled

    def test_holds_ondemand_one_period(self):
        sim, package, _, _, _, ondemand, ext = make(with_ondemand=True)
        ondemand.start()
        ext.on_icr(ICR.IT_HIGH)
        # Idle system: ondemand would drop F, but it is held for a period,
        # and NCAP raised it to P0.
        sim.run(until=5 * MS)
        assert package.effective_target_index == 0

    def test_wakes_sleeping_cores(self):
        sim, package, scheduler, _, _, _, ext = make()
        for core in package.cores:
            core.enter_sleep(package.cstates.by_name("C6"))
        ext.on_icr(ICR.IT_HIGH)
        sim.run()
        assert all(c.state is not CoreState.SLEEP for c in package.cores)

    def test_wakes_only_its_domains_cores(self):
        # Per-core DVFS: the extension of domain 0 leaves domain 1 asleep.
        sim = Simulator()
        domains = ProcessorConfig(n_cores=2).build_domains(sim, per_core=True)
        ext = NCAPDriverExtension(NCAPConfig(), CpufreqDriver(sim, domains[0]))
        for domain in domains:
            domain.cores[0].enter_sleep(domain.cstates.by_name("C6"))
        ext.on_icr(ICR.IT_HIGH)
        sim.run()
        assert domains[0].cores[0].state is not CoreState.SLEEP
        assert domains[1].cores[0].state is CoreState.SLEEP

    def test_counts(self):
        sim, package, _, _, _, _, ext = make()
        ext.on_icr(ICR.IT_HIGH)
        ext.on_icr(ICR.IT_RX)  # plain rx: not counted as high
        assert ext.high_handled == 1


class TestITLow:
    def test_aggressive_single_step_to_min(self):
        sim, package, _, _, _, _, ext = make(fcons=1, initial_pstate=14)
        ext.on_icr(ICR.IT_HIGH)
        sim.run()
        ext.on_icr(ICR.IT_LOW)
        sim.run()
        assert package.pstate_index == package.pstates.max_index

    def test_conservative_descends_over_fcons_steps(self):
        sim, package, _, _, _, _, ext = make(fcons=5, initial_pstate=14)
        ext.on_icr(ICR.IT_HIGH)
        sim.run()
        trail = []
        for _ in range(5):
            ext.on_icr(ICR.IT_LOW)
            sim.run()
            trail.append(package.pstate_index)
        assert trail[-1] == package.pstates.max_index
        assert trail == sorted(trail)
        assert trail[0] < package.pstates.max_index

    def test_first_it_low_reenables_menu(self):
        sim, package, _, _, cpuidle, _, ext = make()
        ext.on_icr(ICR.IT_HIGH)
        assert not cpuidle.enabled
        ext.on_icr(ICR.IT_LOW)
        assert cpuidle.enabled

    def test_extra_it_lows_safe_at_minimum(self):
        sim, package, _, _, _, _, ext = make(fcons=1, initial_pstate=14)
        ext.on_icr(ICR.IT_HIGH)
        sim.run()
        for _ in range(4):
            ext.on_icr(ICR.IT_LOW)
            sim.run()
        assert package.pstate_index == package.pstates.max_index
        assert ext.low_handled == 4

    def test_new_high_resets_step_ladder(self):
        sim, package, _, _, _, _, ext = make(fcons=5, initial_pstate=14)
        ext.on_icr(ICR.IT_HIGH)
        sim.run()
        ext.on_icr(ICR.IT_LOW)
        sim.run()
        first_step = package.pstate_index
        ext.on_icr(ICR.IT_HIGH)
        sim.run()
        assert package.pstate_index == 0
        ext.on_icr(ICR.IT_LOW)
        sim.run()
        assert package.pstate_index <= first_step  # ladder restarted
