"""Node wiring: a full server (CPU + OS + NIC + app) and clients.

A :class:`ServerNode` assembles the whole stack for one policy:

- processor package (Table 1), scheduler, IRQ controller;
- per clock domain: a cpufreq driver + the policy's P-state governor, a
  cpuidle driver (when the policy enables C-states), the NIC rx queue's
  driver, and NCAP hardware + driver extension when the policy asks;
- the NIC and the application (Apache or Memcached);
- NCAP software (chip-wide only), when the policy asks for it.

Chip-wide DVFS (the paper's platform) is one domain over all cores and
one rx queue.  A ``per_core`` policy builds one single-core domain and
one rx queue per core: RSS keeps each flow on one queue, and the queue's
driver pins that flow's work to its core (RFS-style), so every domain's
governors and NCAP engine see only their own core's traffic.

The node itself is the link endpoint (frames for ``node.name`` terminate
at its NIC).  A :class:`WindowMeter` reads a node's energy, busy time and
idle accounting at the two edges of a measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.energy import EnergyAttribution, attribution_between
from repro.apps.apache import ApacheApp, ApacheProfile
from repro.apps.memcached import MemcachedApp, MemcachedProfile
from repro.core.config import NCAPConfig
from repro.core.decision_engine import DecisionEngine
from repro.core.ncap_driver import NCAPDriverExtension
from repro.core.ncap_nic import NCAPHardware
from repro.core.ncap_sw import NCAPSoftware
from repro.cluster.policies import PolicyConfig, get_policy
from repro.cpu.config import ProcessorConfig
from repro.cpu.energy import EnergyReport
from repro.cpu.package import ClockDomain, Package
from repro.ext.adrenaline import AdrenalineGovernor, fast_vr_processor
from repro.metrics.energy import energy_delta
from repro.net.driver import NICDriver
from repro.net.interrupts import ModerationConfig
from repro.net.link import LinkPort
from repro.net.nic import NIC
from repro.net.packet import Frame
from repro.oskernel.cpufreq import (
    CpufreqDriver,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.oskernel.cpuidle import (
    CpuidleDriver,
    IdleAccounting,
    LadderGovernor,
    MenuGovernor,
    build_idle_accounting,
)
from repro.oskernel.irq import IRQController
from repro.oskernel.netstack import NetStackCosts
from repro.oskernel.scheduler import Scheduler
from repro.oskernel.sysfs import SysFS
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MS
from repro.telemetry import Telemetry, ensure_telemetry


class WindowMeter:
    """Energy, per-core busy time and idle accounting over one window.

    ``package`` is anything with ``energy_report()`` and
    ``busy_ns_per_core()`` (a :class:`~repro.cpu.package.Package` or one
    clock domain); ``accounting`` is the optional energy-attribution
    observer.  :meth:`mark` reads all three together, so both edges of
    the window see the same meter state; call it once at each edge.
    """

    def __init__(self, package, accounting: Optional[IdleAccounting]):
        self.package = package
        self.accounting = accounting
        self._edges: List[Tuple[EnergyReport, List[int], Optional[Dict]]] = []

    def mark(self) -> None:
        self._edges.append((
            self.package.energy_report(),
            self.package.busy_ns_per_core(),
            self.accounting.snapshot() if self.accounting is not None else None,
        ))

    def energy(self) -> EnergyReport:
        (start, _, _), (end, _, _) = self._edges
        return energy_delta(start, end)

    def utilization(self, measure_ns: int) -> float:
        """Mean per-core busy fraction over a window ``measure_ns`` long."""
        (_, start, _), (_, end, _) = self._edges
        return sum(b - a for a, b in zip(start, end)) / (len(start) * measure_ns)

    def energy_attribution(self) -> Optional[EnergyAttribution]:
        if self.accounting is None:
            return None
        (_, _, start), (_, _, end) = self._edges
        return attribution_between(start, end, self.energy())


@dataclass
class Domain:
    """One clock domain's share of a node: the governors that drive it,
    the driver of the rx queue that feeds it, and that queue's NCAP."""

    clock: ClockDomain
    cpufreq: CpufreqDriver
    governor: object
    cpuidle: Optional[CpuidleDriver]
    driver: NICDriver
    ncap_hw: Optional[NCAPHardware] = None
    ncap_ext: Optional[NCAPDriverExtension] = None


class ServerNode:
    """One OLDI server under a given power-management policy."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        policy: Union[str, PolicyConfig],
        app: str,
        rng: RngRegistry,
        telemetry: Optional[Telemetry] = None,
        processor: ProcessorConfig = ProcessorConfig(),
        netstack: NetStackCosts = NetStackCosts(),
        moderation: ModerationConfig = ModerationConfig(),
        ondemand_period_ns: int = 10 * MS,
        nic_dma_latency_ns: Optional[int] = None,
        ncap_base_config: Optional[NCAPConfig] = None,
        apache_profile: Optional[ApacheProfile] = None,
        memcached_profile: Optional[MemcachedProfile] = None,
    ):
        self.sim = sim
        self.name = name
        self.policy = policy = get_policy(policy)
        self.app_name = app

        # One Telemetry instance is shared by every component of the node,
        # so the stats registry namespaces (nic.*, cpuidle.*, governor.*,
        # ncap.*, app.*) all live together and a single snapshot covers the
        # whole server.  With several domains, per-domain parts count
        # under ``nic.q<i>``, ``driver.q<i>``, ``ncap.q<i>`` and
        # ``cpuidle.core<i>``.
        self.telemetry = ensure_telemetry(telemetry)

        if policy.governor == "adrenaline":
            processor = fast_vr_processor(processor)
        self.package = Package(processor.build_domains(
            sim, policy.per_core, name=f"{name}.cpu", telemetry=self.telemetry
        ))
        self.scheduler = Scheduler(sim, self.package)
        self.irq = IRQController(sim, self.package)
        self.sysfs = SysFS()
        nic_kwargs = {}
        if nic_dma_latency_ns is not None:
            nic_kwargs["dma_latency_ns"] = nic_dma_latency_ns
        self.nic = NIC(
            sim, name=name, moderation=moderation, telemetry=self.telemetry,
            n_queues=len(self.package.domains), **nic_kwargs,
        )

        # -- per-domain governors, rx queue driver and NCAP --
        idle_governor = None
        if policy.cstates:
            governor_cls = (
                LadderGovernor if policy.cpuidle_governor == "ladder" else MenuGovernor
            )
            idle_governor = governor_cls(self.package.cstates, telemetry=self.telemetry)
        ncap_config = policy.ncap_config(ncap_base_config)
        self.domains: List[Domain] = [
            self._build_domain(
                i, clock, idle_governor, ncap_config, netstack, ondemand_period_ns
            )
            for i, clock in enumerate(self.package.domains)
        ]
        multi = len(self.domains) > 1
        if idle_governor is not None:
            if multi:
                by_core = [d.cpuidle for d in self.domains for _ in d.clock.cores]
                self.scheduler.idle_hook = (
                    lambda core: by_core[core.core_id].on_core_idle(core)
                )
            else:
                self.scheduler.idle_hook = self.domains[0].cpuidle.on_core_idle
        # Chip-wide views: the first domain's parts (the only ones unless
        # the policy is per_core).
        first = self.domains[0]
        self.cpufreq = first.cpufreq
        self.governor = first.governor
        self.cpuidle = first.cpuidle
        self.driver = first.driver
        self.ncap_hw = first.ncap_hw
        self.ncap_ext = first.ncap_ext

        # -- application (transmits through the shared tx path) --
        app_rng = rng.stream(f"{name}.{app}")
        if app == "apache":
            self.app = ApacheApp(
                sim, self.scheduler, self.driver, netstack, app_rng, name=name,
                profile=apache_profile or ApacheProfile(),
            )
        elif app == "memcached":
            self.app = MemcachedApp(
                sim, self.scheduler, self.driver, netstack, app_rng, name=name,
                profile=memcached_profile or MemcachedProfile(),
            )
        else:
            raise ValueError(f"unknown app {app!r}")
        for domain in self.domains:
            domain.driver.packet_sink = (
                self._pinned_sink(domain.clock.cores[0].core_id)
                if multi else self.app.on_packet
            )
            if isinstance(domain.governor, AdrenalineGovernor):
                domain.governor.attach(domain.driver, self.app)

        self.ncap_sw: Optional[NCAPSoftware] = None
        if policy.ncap == "sw":
            self.ncap_sw = NCAPSoftware(
                sim, self.driver, self.irq, ncap_config, self.ncap_ext,
            )

    def _build_domain(
        self,
        index: int,
        clock: ClockDomain,
        idle_governor,
        ncap_config: Optional[NCAPConfig],
        netstack: NetStackCosts,
        ondemand_period_ns: int,
    ) -> Domain:
        """Domain ``index`` of the package, served by rx queue ``index``;
        its first core runs the queue's interrupts and the ondemand timer."""
        sim, policy = self.sim, self.policy
        multi = len(self.package.domains) > 1
        core_id = clock.cores[0].core_id
        queue = self.nic.queues[index]
        cpufreq = CpufreqDriver(sim, clock)
        ondemand = None
        if policy.governor == "ondemand":
            governor = ondemand = OndemandGovernor(
                sim, cpufreq, self.irq, period_ns=ondemand_period_ns, core_id=core_id
            )
        elif policy.governor == "adrenaline":
            governor = AdrenalineGovernor(cpufreq, self.telemetry)
        elif policy.governor == "powersave":
            governor = PowersaveGovernor(cpufreq)
        else:
            governor = PerformanceGovernor(cpufreq)
        cpuidle = None
        if idle_governor is not None:
            cpuidle = CpuidleDriver(
                idle_governor, telemetry=self.telemetry,
                stats_prefix=f"cpuidle.core{core_id}" if multi else "cpuidle",
            )
        driver = NICDriver(
            sim, self.nic, self.irq, netstack, core_id=core_id,
            stats_prefix=f"driver.q{index}" if multi else "driver",
            queue_id=index,
        )
        domain = Domain(clock, cpufreq, governor, cpuidle, driver)
        if ncap_config is not None:
            domain.ncap_ext = NCAPDriverExtension(
                ncap_config, cpufreq, cpuidle=cpuidle, ondemand=ondemand
            )
            if policy.ncap == "hw":
                domain.ncap_hw = NCAPHardware(
                    sim, self.nic, ncap_config,
                    cpu_at_max=lambda: clock.at_max_performance,
                    stats_prefix=f"ncap.q{index}" if multi else "ncap",
                    queue_id=index,
                )
                driver.icr_hooks.append(domain.ncap_ext.on_icr)
                domain.ncap_hw.register_sysfs(
                    self.sysfs, prefix=f"/sys/class/net/{queue.name}/ncap"
                )
        return domain

    def _pinned_sink(self, core_id: int):
        """Deliver to the app with its jobs pinned to ``core_id``."""
        app = self.app

        def sink(frame: Frame) -> None:
            app.affinity_hint = core_id
            try:
                app.on_packet(frame)
            finally:
                app.affinity_hint = None

        return sink

    # -- link endpoint (NetDevice) ------------------------------------------

    def receive_frame(self, frame: Frame) -> None:
        self.nic.receive_frame(frame)

    def attach_port(self, port: LinkPort) -> None:
        self.nic.attach_port(port)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        for domain in self.domains:
            domain.governor.start()
        for domain in self.domains:
            if domain.ncap_hw is not None:
                domain.ncap_hw.start()
        if self.ncap_sw is not None:
            self.ncap_sw.start()

    def stop(self) -> None:
        for domain in self.domains:
            domain.governor.stop()
        for domain in self.domains:
            if domain.ncap_hw is not None:
                domain.ncap_hw.stop()
        if self.ncap_sw is not None:
            self.ncap_sw.stop()

    # -- measurement ------------------------------------------------------------------

    def window_meter(self, energy_attribution: bool = False) -> WindowMeter:
        """A :class:`WindowMeter` over this node's package.

        ``energy_attribution=True`` attaches the idle-accounting observer
        first.  It only reads the node's own meters and governor, so the
        payload is the same wherever the node is placed.
        """
        accounting = None
        if energy_attribution:
            accounting = build_idle_accounting(
                self.package.cstates,
                self.cpuidle.governor if self.cpuidle is not None else None,
                telemetry=self.telemetry,
            )
            accounting.attach(self.package.cores)
        return WindowMeter(self.package, accounting)

    def ncap_stats(self) -> Dict[str, int]:
        """The NCAP engines' post counters, summed (empty without NCAP)."""
        engines = self.engines
        if not engines:
            return {}
        return {
            "it_high_posts": sum(e.it_high_posts for e in engines),
            "it_low_posts": sum(e.it_low_posts for e in engines),
            "immediate_rx_posts": sum(e.immediate_rx_posts for e in engines),
        }

    def cstate_entries(self) -> Dict[str, int]:
        """C-state entry counts summed over the package's cores."""
        totals: Dict[str, int] = {}
        for core in self.package.cores:
            for state, count in core.cstate_entries.items():
                totals[state] = totals.get(state, 0) + count
        return totals

    # -- introspection ----------------------------------------------------------------

    @property
    def engines(self) -> List[DecisionEngine]:
        """The active DecisionEngines: the software one, or one per hw queue."""
        if self.ncap_sw is not None:
            return [self.ncap_sw.engine]
        return [d.ncap_hw.engine for d in self.domains if d.ncap_hw is not None]

    @property
    def engine(self) -> Optional[DecisionEngine]:
        """The first DecisionEngine (a chip-wide node's only one), if any."""
        engines = self.engines
        return engines[0] if engines else None
