"""An Adrenaline-style baseline (Hsu et al., HPCA 2015 — the paper's [32]).

Section 8 of the NCAP paper contrasts itself with Adrenaline, which

- identifies latency-critical requests **in a network-stack software
  layer** (so detection happens after DMA + interrupt + SoftIRQ, not at
  wire arrival), and
- boosts V/F **per query** using special on-chip voltage regulators and
  clock-delivery circuits that can switch in tens of nanoseconds,
  unboosting when the query completes.

The ``adrenaline`` policy runs that design on our substrate so the
comparison can be measured instead of argued: a ``per_core`` ServerNode
(one V/F domain and rx queue per core) whose processor gets a
near-instant DVFS timing model (:func:`fast_vr_processor`, the on-chip
VR), and whose P-state governor is :class:`AdrenalineGovernor` —
SoftIRQ-context query detection with its per-packet cycle cost (like
ncap.sw), per-core boost on query start, and unboost when a core's last
outstanding latency-critical query finishes.  No NIC changes at all —
that is the point of the baseline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Set

from repro.apps.base import ServerApp
from repro.core.req_monitor import ReqMonitor
from repro.cpu.config import ProcessorConfig
from repro.net.driver import NICDriver
from repro.net.packet import Frame
from repro.oskernel.cpufreq import CpufreqDriver
from repro.telemetry import Telemetry

#: On-chip VR switching time (tens of ns in the Adrenaline paper).
VR_SWITCH_NS = 100
#: SoftIRQ cycles per packet for software query classification.
INSPECT_CYCLES_PER_PACKET = 1_500.0
#: P-state a core runs at with no latency-critical query outstanding.
IDLE_PSTATE = 14
#: Payload templates that mark a latency-critical query.
TEMPLATES = (b"GET", b"get")


def fast_vr_processor(processor: ProcessorConfig) -> ProcessorConfig:
    """``processor`` behind per-core on-chip VRs: V swings instantly, the
    clock relocks in :data:`VR_SWITCH_NS`, and cores start unboosted."""
    return replace(
        processor,
        v_ramp_rate_mv_per_us=1e9,
        pll_relock_us=VR_SWITCH_NS / 1000,
        initial_pstate=IDLE_PSTATE,
    )


class AdrenalineGovernor:
    """Per-query V/F boosting of one clock domain.

    :meth:`attach` wires it to the domain's NIC driver (a SoftIRQ tap that
    classifies each delivered frame, paying
    :data:`INSPECT_CYCLES_PER_PACKET`) and to the app's response hook.
    Boost and unboost counts are node-wide registry counters.
    """

    name = "adrenaline"

    def __init__(self, cpufreq: CpufreqDriver, telemetry: Telemetry):
        self._cpufreq = cpufreq
        self._monitor = ReqMonitor(
            TEMPLATES, telemetry=telemetry, stats_prefix="adrenaline"
        )
        self._outstanding = 0
        self._queries: Set[int] = set()
        self._boosts = telemetry.counter("governor.adrenaline.boosts")
        self._unboosts = telemetry.counter("governor.adrenaline.unboosts")

    def attach(self, driver: NICDriver, app: ServerApp) -> None:
        driver.rx_sw_taps.append(self.on_rx)
        driver.extra_rx_cycles_per_packet += INSPECT_CYCLES_PER_PACKET
        app.response_listeners.append(self.on_response)

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def on_rx(self, frame: Frame) -> None:
        """A frame reached the stack: a latency-critical query starts here."""
        if frame.kind != "request" or not self._monitor.inspect(frame):
            return
        self._outstanding += 1
        if self._outstanding == 1:
            self._boosts.inc()
            self._cpufreq.set_pstate(0)
        if frame.req_id is not None:
            self._queries.add(frame.req_id)

    def on_response(self, frame: Frame) -> None:
        """A response left: unboost once this domain has no query left."""
        if frame.req_id not in self._queries:
            return
        self._queries.remove(frame.req_id)
        self._outstanding -= 1
        if self._outstanding <= 0:
            self._outstanding = 0
            self._unboosts.inc()
            self._cpufreq.set_pstate(IDLE_PSTATE)
