"""A processor package: its cores grouped into clock/voltage domains.

Matching the paper's i7-3770-like setup (and its single-queue NIC), DVFS is
**chip-wide**: one :class:`ClockDomain` holds every core, so all cores
share the P-state, while C-states are per-core.  The per-core-DVFS variant
(the paper's Section 7 multi-queue discussion) builds one single-core
domain per core instead; :class:`Package` is the node-level view of either
shape — see :meth:`repro.cpu.config.ProcessorConfig.build_domains` and the
``per_core`` policy option in ``repro.cluster.policies``.

P-state transitions follow :class:`repro.cpu.pstates.DVFSTimingModel`:
voltage ramps first on an upward transition (cores keep running), then all
cores halt for the PLL relock window, then the new frequency takes effect.
Requests arriving mid-transition are coalesced: the latest target wins and
is applied after the in-flight transition completes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cpu.core import Core
from repro.cpu.cstates import CStateTable
from repro.cpu.energy import EnergyReport, PowerMeter
from repro.cpu.power import PowerModel
from repro.cpu.pstates import DVFSTimingModel, PStateTable
from repro.sim.kernel import Simulator
from repro.telemetry import PStateChange, Telemetry, ensure_telemetry


class _CoreGroup:
    """Energy and busy-time accounting over ``self.cores``."""

    cores: List[Core]

    def energy_report(self) -> EnergyReport:
        """Aggregate energy/residency across all cores (finalizes segments)."""
        report = EnergyReport()
        for core in self.cores:
            report = report.merge(core.meter.report())
        return report

    def busy_ns_per_core(self) -> List[int]:
        return [core.busy_ns_total() for core in self.cores]


class ClockDomain(_CoreGroup):
    """Cores under one shared V/F domain with ACPI-style P-state control."""

    def __init__(
        self,
        sim: Simulator,
        n_cores: int,
        pstates: PStateTable,
        cstates: CStateTable,
        power_model: PowerModel,
        dvfs_timing: Optional[DVFSTimingModel] = None,
        initial_pstate: int = 0,
        name: str = "cpu",
        core_id_base: int = 0,
        telemetry: Optional[Telemetry] = None,
    ):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self._sim = sim
        self.name = name
        self.pstates = pstates
        self.cstates = cstates
        self.power_model = power_model
        self.dvfs_timing = dvfs_timing or DVFSTimingModel()
        self._set_operating_point(pstates.clamp_index(initial_pstate))
        self.telemetry = ensure_telemetry(telemetry)
        self._pstate_probe = self.telemetry.probe("cpu.pstate")
        self._transitions = self.telemetry.counter("cpu.pstate.transitions")
        self._transition_target: Optional[int] = None
        self._queued_target: Optional[int] = None
        #: Called with the new P-state index after each completed switch
        #: (e.g. the NCAP driver mirroring CPU state into a NIC register).
        self.pstate_listeners: List[Callable[[int], None]] = []

        self.cores: List[Core] = [
            Core(sim, core_id_base + i, self, PowerMeter(sim, power_model))
            for i in range(n_cores)
        ]
        if self._pstate_probe.enabled:
            self._pstate_probe.emit(
                PStateChange(sim.now, name, self._index, self.frequency_hz)
            )

    # -- operating point -----------------------------------------------------

    @property
    def transitions(self) -> int:
        """Completed DVFS switches across the whole telemetry scope."""
        return int(self._transitions.value)

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def pstate_index(self) -> int:
        return self._index

    def _set_operating_point(self, index: int) -> None:
        """Enter P-state ``index``; ``frequency_hz`` and ``voltage`` are
        plain attributes read on every core transition."""
        self._index = index
        pstate = self.pstates[index]
        self.frequency_hz: float = pstate.freq_hz
        self.voltage: float = pstate.voltage

    @property
    def max_frequency_hz(self) -> float:
        return self.pstates.p0.freq_hz

    @property
    def at_max_performance(self) -> bool:
        """True when already at P0 (and not heading elsewhere)."""
        target = self.effective_target_index
        return target == 0

    @property
    def transition_in_progress(self) -> bool:
        return self._transition_target is not None

    @property
    def effective_target_index(self) -> int:
        """Where the domain will settle once in-flight work completes."""
        if self._queued_target is not None:
            return self._queued_target
        if self._transition_target is not None:
            return self._transition_target
        return self._index

    # -- P-state control -------------------------------------------------------

    def set_pstate(self, index: int) -> None:
        """Request a transition to P-state ``index`` (clamped).

        No-op if the domain is already at (or heading to) that state.
        If a transition is in flight, the request is queued (latest wins).
        """
        index = self.pstates.clamp_index(index)
        if self._transition_target is not None:
            if index != self._transition_target:
                self._queued_target = index
            else:
                self._queued_target = None
            return
        if index == self._index:
            return
        old = self.pstates[self._index]
        new = self.pstates[index]
        ramp_ns, halt_ns = self.dvfs_timing.plan(old, new)
        self._transition_target = index
        if ramp_ns > 0:
            self._sim.schedule(ramp_ns, self._begin_halt, index, halt_ns)
        else:
            self._begin_halt(index, halt_ns)

    def set_frequency(self, freq_hz: float) -> None:
        """Request the P-state whose frequency covers ``freq_hz``."""
        self.set_pstate(self.pstates.index_for_frequency(freq_hz))

    def _begin_halt(self, index: int, halt_ns: int) -> None:
        # Scheduled before the stalls end so the switch lands first.
        self._sim.schedule(halt_ns, self._finish_switch, index)
        for core in self.cores:
            core.stall(halt_ns)

    def _finish_switch(self, index: int) -> None:
        old_freq = self.frequency_hz
        self._set_operating_point(index)
        self._transition_target = None
        self._transitions.inc()
        for core in self.cores:
            core.on_clock_change(old_freq)
        if self._pstate_probe.enabled:
            self._pstate_probe.emit(
                PStateChange(self._sim.now, self.name, index, self.frequency_hz)
            )
        for listener in self.pstate_listeners:
            listener(index)
        if self._queued_target is not None:
            queued = self._queued_target
            self._queued_target = None
            self.set_pstate(queued)


class Package(_CoreGroup):
    """A node's processor: one chip-wide domain or one domain per core.

    Domains share the P/C-state tables and the power model.  ``cores`` is
    every domain's cores in core-id order; the energy, residency and
    busy-time accounting the meters, the recorder and the auditor read
    sums over them.  ``frequency_hz`` and ``pstate_index`` report the
    fastest domain; :meth:`set_pstate` requests a P-state on every domain.
    """

    def __init__(self, domains: Sequence[ClockDomain]):
        self.domains: List[ClockDomain] = list(domains)
        first = self.domains[0]
        self.pstates = first.pstates
        self.cstates = first.cstates
        self.power_model = first.power_model
        self.telemetry = first.telemetry
        self.cores: List[Core] = [c for d in self.domains for c in d.cores]

    @property
    def max_frequency_hz(self) -> float:
        return self.pstates.p0.freq_hz

    @property
    def frequency_hz(self) -> float:
        return max(d.frequency_hz for d in self.domains)

    @property
    def pstate_index(self) -> int:
        return min(d.pstate_index for d in self.domains)

    def set_pstate(self, index: int) -> None:
        for domain in self.domains:
            domain.set_pstate(index)
