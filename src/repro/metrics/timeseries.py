"""Time-series helpers for Figure 4 / 8 / 9 style plots.

Every series comes from the flight recorder
(:class:`~repro.telemetry.recorder.TimeSeriesRecorder`, exported as a
:class:`~repro.telemetry.recorder.TimeseriesBundle`); these helpers cut a
recorded :class:`~repro.telemetry.recorder.SeriesData` down to a
measurement window and turn cumulative counters into plottable rates.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.telemetry.recorder import SeriesData


def window_points(
    series: SeriesData, start_ns: int, end_ns: int
) -> List[Tuple[int, float]]:
    """Samples with ``start <= t <= end``."""
    return [(t, v) for t, v in series.points() if start_ns <= t <= end_ns]


def counter_bins(
    series: SeriesData, start_ns: int, end_ns: int
) -> List[Tuple[int, int, float]]:
    """``(bin_start, bin_end, increment)`` of a cumulative counter, one bin
    per pair of consecutive samples whose start lies in ``[start, end)``."""
    times, values = series.times, series.values
    return [
        (times[i - 1], times[i], values[i] - values[i - 1])
        for i in range(1, len(times))
        if start_ns <= times[i - 1] < end_ns and times[i] > times[i - 1]
    ]


def bandwidth_series_mbps(
    series: SeriesData, start_ns: int, end_ns: int
) -> List[Tuple[int, float]]:
    """Per-bin bandwidth (Mb/s) from a cumulative byte counter, labelled by
    the bin's start time."""
    return [
        (t0, amount * 1e9 / (t1 - t0) * 8 / 1e6)
        for t0, t1, amount in counter_bins(series, start_ns, end_ns)
    ]


def normalized_series(
    series: Sequence[Tuple[int, float]]
) -> List[Tuple[int, float]]:
    """Normalize a series to its own maximum (the paper's BW plots)."""
    peak = max((v for _, v in series), default=0.0)
    if peak <= 0:
        return [(t, 0.0) for t, _ in series]
    return [(t, v / peak) for t, v in series]
