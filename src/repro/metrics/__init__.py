"""Metrics: latency percentiles, energy windows, time series, text reports."""

from repro.metrics.energy import average_power_w, energy_delta
from repro.metrics.latency import LatencyStats
from repro.metrics.report import format_series, format_table, sparkline
from repro.metrics.timeseries import bandwidth_series_mbps, normalized_series

__all__ = [
    "average_power_w",
    "energy_delta",
    "LatencyStats",
    "format_series",
    "format_table",
    "sparkline",
    "bandwidth_series_mbps",
    "normalized_series",
]
