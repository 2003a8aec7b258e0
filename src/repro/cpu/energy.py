"""Per-core energy metering.

A :class:`PowerMeter` is attached to each core.  Cores call
:meth:`PowerMeter.set_mode` on every power-relevant transition (job start /
completion, C-state entry/exit, DVFS halt, voltage/frequency change); the
meter integrates ``power x dt`` segment by segment and also accumulates
per-mode residency, which Figure 4(b) style analyses need (time in C1/C3/C6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cpu.power import PowerMode, PowerModel
from repro.sim.kernel import Simulator

#: Residency/energy key of each mode (its ``value``), looked up per segment.
_MODE_KEY: Dict[PowerMode, str] = {mode: mode.value for mode in PowerMode}


@dataclass
class EnergyReport:
    """Summary of one meter (or an aggregate of several)."""

    energy_j: float = 0.0
    residency_ns: Dict[str, int] = field(default_factory=dict)
    energy_by_mode_j: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "EnergyReport") -> "EnergyReport":
        merged = EnergyReport(energy_j=self.energy_j + other.energy_j)
        for src in (self.residency_ns, other.residency_ns):
            for key, value in src.items():
                merged.residency_ns[key] = merged.residency_ns.get(key, 0) + value
        for src in (self.energy_by_mode_j, other.energy_by_mode_j):
            for key, value in src.items():
                merged.energy_by_mode_j[key] = merged.energy_by_mode_j.get(key, 0.0) + value
        return merged


class PowerMeter:
    """Integrates one core's power over time."""

    def __init__(self, sim: Simulator, model: PowerModel):
        self._sim = sim
        self._model = model
        self._mode: PowerMode = PowerMode.IDLE_POLL
        self._voltage: float = 0.0
        self._freq_hz: float = 0.0
        self._segment_start: int = sim.now
        self._power_w: float = 0.0
        self._started = False
        self.energy_j: float = 0.0
        self.residency_ns: Dict[str, int] = {}
        self.energy_by_mode_j: Dict[str, float] = {}

    def start(self, mode: PowerMode, voltage: float, freq_hz: float) -> None:
        """Begin metering (call once when the core comes up)."""
        self._mode = mode
        self._voltage = voltage
        self._freq_hz = freq_hz
        self._segment_start = self._sim.now
        self._power_w = self._model.core_power_w(mode, voltage, freq_hz)
        self._started = True

    def set_mode(
        self,
        mode: PowerMode,
        voltage: Optional[float] = None,
        freq_hz: Optional[float] = None,
    ) -> None:
        """Close the current segment and open a new one."""
        if not self._started:
            raise RuntimeError("PowerMeter.start() was never called")
        self._close_segment()
        self._mode = mode
        if voltage is not None:
            self._voltage = voltage
        if freq_hz is not None:
            self._freq_hz = freq_hz
        self._power_w = self._model.core_power_w(self._mode, self._voltage, self._freq_hz)

    def _close_segment(self) -> None:
        now = self._sim.now
        dt_ns = now - self._segment_start
        if dt_ns > 0:
            joules = self._power_w * dt_ns * 1e-9
            self.energy_j += joules
            key = _MODE_KEY[self._mode]
            self.residency_ns[key] = self.residency_ns.get(key, 0) + dt_ns
            self.energy_by_mode_j[key] = self.energy_by_mode_j.get(key, 0.0) + joules
        self._segment_start = now

    def sync(self) -> None:
        """Book the open segment up to ``sim.now`` without changing mode.

        Cumulative ``energy_j`` / ``residency_ns`` / ``energy_by_mode_j``
        are current after this call; the next ``set_mode`` then closes a
        zero-length segment, so syncing never perturbs the totals.
        """
        if self._started:
            self._close_segment()

    @property
    def mode(self) -> PowerMode:
        return self._mode

    def report(self) -> EnergyReport:
        """Finalize the open segment and return totals so far."""
        if self._started:
            self._close_segment()
        return EnergyReport(
            energy_j=self.energy_j,
            residency_ns=dict(self.residency_ns),
            energy_by_mode_j=dict(self.energy_by_mode_j),
        )
