"""An event-exact probe subscriber, kept as the reference for recorded series.

The flight recorder samples state once per interval.  This subscriber
instead records every ``cpu.pstate`` and ``cpu.cstate`` transition and
every ``nic.rx``/``nic.tx`` frame as it is emitted, so tests can check a
sampled series against the value in force at each sample time, and a
binned byte counter against the frames that arrived in each bin.

Attach it like any sink (``run_experiment(config, sinks=[oracle])`` or
``telemetry.add_sink(oracle)``) before the components are built, so it
also sees each clock domain's initial operating point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Dict, List, Optional


class StepSeries:
    """``(time, value)`` transitions of a piecewise-constant quantity."""

    def __init__(self) -> None:
        self.times: List[int] = []
        self.values: List[float] = []

    def record(self, t_ns: int, value: float) -> None:
        assert not self.times or t_ns >= self.times[-1], "time went backwards"
        self.times.append(t_ns)
        self.values.append(value)

    def value_at(self, t_ns: int, default: Optional[float] = None) -> Optional[float]:
        """The value of the latest transition at or before ``t_ns``."""
        idx = bisect_right(self.times, t_ns) - 1
        return self.values[idx] if idx >= 0 else default


class ByteLog:
    """Wire bytes of every frame, in emission order."""

    def __init__(self) -> None:
        self.times: List[int] = []
        self.sizes: List[int] = []

    def add(self, t_ns: int, wire_bytes: int) -> None:
        self.times.append(t_ns)
        self.sizes.append(wire_bytes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def between(self, start_ns: int, end_ns: int) -> int:
        """Bytes of the frames emitted in ``[start, end)``."""
        lo = bisect_left(self.times, start_ns)
        hi = bisect_left(self.times, end_ns)
        return sum(self.sizes[lo:hi])


class ProbeOracle:
    """Frequency per clock domain (GHz), C-state index per core (0 while
    awake) and rx/tx wire bytes, recorded at every probe event."""

    def __init__(self) -> None:
        self.freq_ghz: Dict[str, StepSeries] = defaultdict(StepSeries)
        self.cstate: Dict[int, StepSeries] = defaultdict(StepSeries)
        self.rx = ByteLog()
        self.tx = ByteLog()

    def attach(self, telemetry) -> None:
        bus = telemetry.probes
        bus.subscribe("cpu.pstate", self._on_pstate)
        bus.subscribe("cpu.cstate", self._on_cstate)
        bus.subscribe("nic.rx", lambda e: self.rx.add(e.t_ns, e.wire_bytes))
        bus.subscribe("nic.tx", lambda e: self.tx.add(e.t_ns, e.wire_bytes))

    def _on_pstate(self, event) -> None:
        self.freq_ghz[event.domain].record(event.t_ns, event.freq_hz / 1e9)

    def _on_cstate(self, event) -> None:
        index = 0 if event.phase == "wake" else event.index
        self.cstate[event.core_id].record(event.t_ns, index)
