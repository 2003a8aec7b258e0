"""Time-series helpers for Figure 4 / 8 / 9 style traces.

Utilization sampling lives in the flight recorder
(:class:`~repro.telemetry.recorder.TimeSeriesRecorder` with
:func:`repro.cluster.recording.utilization_source`); these helpers turn
recorded trace channels into plottable series.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.sim.trace import TraceRecorder
from repro.sim.units import MS


def bandwidth_series_mbps(
    trace: TraceRecorder,
    channel: str,
    start_ns: int,
    end_ns: int,
    bin_ns: int = 1 * MS,
) -> List[Tuple[int, float]]:
    """Per-bin bandwidth (Mb/s) from a byte-counter channel."""
    counter = trace.counter_channel(channel)
    return [
        (t, rate_bytes_per_s * 8 / 1e6)
        for t, rate_bytes_per_s in counter.rate_series(start_ns, end_ns, bin_ns)
    ]


def normalized_series(
    series: Sequence[Tuple[int, float]]
) -> List[Tuple[int, float]]:
    """Normalize a series to its own maximum (the paper's BW plots)."""
    peak = max((v for _, v in series), default=0.0)
    if peak <= 0:
        return [(t, 0.0) for t, _ in series]
    return [(t, v / peak) for t, v in series]
