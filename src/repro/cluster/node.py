"""Node wiring: a full server (CPU + OS + NIC + app) and clients.

A :class:`ServerNode` assembles the whole stack for one policy:

- processor package (Table 1), scheduler, IRQ controller;
- cpufreq driver + the policy's P-state governor;
- cpuidle driver + menu governor (when the policy enables C-states);
- NIC + driver + the application (Apache or Memcached);
- NCAP hardware or software, when the policy asks for it.

The node itself is the link endpoint (frames for ``node.name`` terminate
at its NIC).  A :class:`WindowMeter` reads a node's energy, busy time and
idle accounting at the two edges of a measurement window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.energy import EnergyAttribution, attribution_between
from repro.apps.apache import ApacheApp, ApacheProfile
from repro.apps.memcached import MemcachedApp, MemcachedProfile
from repro.core.config import NCAPConfig
from repro.core.ncap_driver import NCAPDriverExtension
from repro.core.ncap_nic import NCAPHardware
from repro.core.ncap_sw import NCAPSoftware
from repro.cluster.policies import PolicyConfig, get_policy
from repro.cpu.config import ProcessorConfig
from repro.cpu.energy import EnergyReport
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
from repro.sim.trace import TraceRecorder
from repro.sim.units import MS
from repro.telemetry import Telemetry, ensure_telemetry


class WindowMeter:
    """Energy, per-core busy time and idle accounting over one window.

    ``package`` is anything with ``energy_report()`` and
    ``busy_ns_per_core()`` (a processor package or a multi-domain
    processor); ``accounting`` is the optional energy-attribution
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


class ServerNode:
    """One OLDI server under a given power-management policy."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        policy: Union[str, PolicyConfig],
        app: str,
        rng: RngRegistry,
        trace: Optional[TraceRecorder] = None,
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
        self.policy = get_policy(policy)
        self.app_name = app
        self.trace = trace

        # One Telemetry instance is shared by every component of the node,
        # so the stats registry namespaces (nic.*, cpuidle.*, governor.*,
        # ncap.*, app.*) all live together and a single snapshot covers the
        # whole server.  A ChannelSink bridges probe events back into the
        # legacy trace channels when a TraceRecorder is supplied.
        self.telemetry = ensure_telemetry(telemetry, trace)

        self.package = processor.build_package(
            sim, name=f"{name}.cpu", telemetry=self.telemetry
        )
        if trace is not None:
            # Pre-create the per-core C-state channels so traces expose
            # them even for cores that never sleep (the ChannelSink only
            # creates channels lazily, on the first transition).
            for core in self.package.cores:
                trace.event_channel(f"{name}.core{core.core_id}.cstate")
        self.scheduler = Scheduler(sim, self.package)
        self.irq = IRQController(sim, self.package)
        self.cpufreq = CpufreqDriver(sim, self.package)
        self.sysfs = SysFS()

        # -- P-state governor --
        self.ondemand: Optional[OndemandGovernor] = None
        if self.policy.governor == "ondemand":
            self.ondemand = OndemandGovernor(
                sim, self.cpufreq, self.irq, period_ns=ondemand_period_ns
            )
            self.governor = self.ondemand
        elif self.policy.governor == "powersave":
            self.governor = PowersaveGovernor(self.cpufreq)
        else:
            self.governor = PerformanceGovernor(self.cpufreq)

        # -- C-state governor --
        self.cpuidle: Optional[CpuidleDriver] = None
        if self.policy.cstates:
            if self.policy.cpuidle_governor == "ladder":
                idle_governor = LadderGovernor(
                    self.package.cstates, telemetry=self.telemetry
                )
            else:
                idle_governor = MenuGovernor(
                    self.package.cstates, telemetry=self.telemetry
                )
            self.cpuidle = CpuidleDriver(idle_governor, telemetry=self.telemetry)
            self.scheduler.idle_hook = self.cpuidle.on_core_idle

        # -- NIC + driver --
        nic_kwargs = {}
        if nic_dma_latency_ns is not None:
            nic_kwargs["dma_latency_ns"] = nic_dma_latency_ns
        self.nic = NIC(
            sim, name=name, moderation=moderation,
            telemetry=self.telemetry, **nic_kwargs,
        )
        self.driver = NICDriver(sim, self.nic, self.irq, netstack)

        # -- application --
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
        self.driver.packet_sink = self.app.on_packet

        # -- NCAP --
        self.ncap_hw: Optional[NCAPHardware] = None
        self.ncap_sw: Optional[NCAPSoftware] = None
        self.ncap_ext: Optional[NCAPDriverExtension] = None
        ncap_config = self.policy.ncap_config(ncap_base_config)
        if ncap_config is not None:
            self.ncap_ext = NCAPDriverExtension(
                ncap_config,
                self.cpufreq,
                self.scheduler,
                cpuidle=self.cpuidle,
                ondemand=self.ondemand,
            )
            if self.policy.ncap == "hw":
                self.ncap_hw = NCAPHardware(
                    sim,
                    self.nic,
                    ncap_config,
                    cpu_at_max=lambda: self.package.at_max_performance,
                )
                self.driver.icr_hooks.append(self.ncap_ext.on_icr)
                self.ncap_hw.register_sysfs(
                    self.sysfs, prefix=f"/sys/class/net/{name}/ncap"
                )
            else:
                self.ncap_sw = NCAPSoftware(
                    sim, self.driver, self.irq, ncap_config, self.ncap_ext,
                )

    # -- link endpoint (NetDevice) ------------------------------------------

    def receive_frame(self, frame: Frame) -> None:
        self.nic.receive_frame(frame)

    def attach_port(self, port: LinkPort) -> None:
        self.nic.attach_port(port)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        self.governor.start()
        if self.ncap_hw is not None:
            self.ncap_hw.start()
        if self.ncap_sw is not None:
            self.ncap_sw.start()

    def stop(self) -> None:
        self.governor.stop()
        if self.ncap_hw is not None:
            self.ncap_hw.stop()
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
        """The NCAP engine's post counters (empty without NCAP)."""
        engine = self.engine
        if engine is None:
            return {}
        return {
            "it_high_posts": engine.it_high_posts,
            "it_low_posts": engine.it_low_posts,
            "immediate_rx_posts": engine.immediate_rx_posts,
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
    def engine(self):
        """The active DecisionEngine, if any (hw or sw)."""
        if self.ncap_hw is not None:
            return self.ncap_hw.engine
        if self.ncap_sw is not None:
            return self.ncap_sw.engine
        return None
