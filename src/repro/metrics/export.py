"""Time-series and result export: dump recorded data for external tooling.

The benchmark suite prints sparkline reports, but anyone regenerating the
paper's figures in a plotting tool needs the raw series.  These helpers
write flight-recorder series (:class:`~repro.telemetry.recorder.SeriesData`
from a run's :class:`~repro.telemetry.recorder.TimeseriesBundle`) to plain
CSV files — gauges as samples, cumulative counters as per-bin increments —
and round-trip harness :class:`ResultRecord` lists through JSON
(``export_result_records`` / ``load_result_records``).
"""

from __future__ import annotations

import csv
import json
import os
from itertools import count, takewhile
from typing import TYPE_CHECKING, Iterable, List

from repro.metrics.timeseries import counter_bins
from repro.telemetry.recorder import SeriesData, TimeseriesBundle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.record import ResultRecord


def export_series(series: SeriesData, path: str) -> int:
    """Write one recorded series as ``time_ns,value`` rows; returns row count."""
    _ensure_dir(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ns", "value"])
        writer.writerows(series.points())
    return len(series.times)


def export_counter_bins(
    series: SeriesData, path: str, start_ns: int, end_ns: int
) -> int:
    """Write a cumulative counter's per-interval increments over
    ``[start, end)`` as ``bin_start_ns,amount`` rows; returns row count."""
    bins = counter_bins(series, start_ns, end_ns)
    _ensure_dir(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start_ns", "amount"])
        for bin_start, _, amount in bins:
            writer.writerow([bin_start, amount])
    return len(bins)


def export_figure4_bundle(
    bundle: TimeseriesBundle, directory: str, start_ns: int, end_ns: int
) -> List[str]:
    """Export everything a Figure 4 plot needs from a server's recorder
    bundle: received/transmitted bytes binned over the measurement window,
    then utilization, frequency and every core's C-state index over the
    whole run.  Returns the written paths."""
    paths = []
    for name, stem in (("nic.rx.bytes", "rx_bytes"), ("nic.tx.bytes", "tx_bytes")):
        path = os.path.join(directory, f"server_{stem}.csv")
        export_counter_bins(bundle.get(name), path, start_ns, end_ns)
        paths.append(path)
    cstates = takewhile(bundle.__contains__, (f"core{i}.cstate" for i in count()))
    for name in ("cpu.util", "cpu.freq_ghz", *cstates):
        path = os.path.join(directory, "server_" + name.replace(".", "_") + ".csv")
        export_series(bundle.get(name), path)
        paths.append(path)
    return paths


def export_chrome_trace(sink, path: str) -> int:
    """Write a :class:`repro.telemetry.ChromeTraceSink` as Chrome-trace JSON.

    The output loads directly in Perfetto / ``chrome://tracing``.  Returns
    the number of trace events written.
    """
    _ensure_dir(path)
    return sink.write(path)


def export_result_records(
    records: Iterable["ResultRecord"], path: str
) -> str:
    """Write harness result records as a JSON array; returns ``path``.

    The file is self-describing (each record carries its schema version)
    and reloadable with :func:`load_result_records`.
    """
    _ensure_dir(path)
    payload = [record.to_json_dict() for record in records]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_result_records(path: str) -> List["ResultRecord"]:
    """Read a JSON array written by :func:`export_result_records`."""
    from repro.harness.record import ResultRecord

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON array of result records")
    return [ResultRecord.from_json_dict(entry) for entry in payload]


def _ensure_dir(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
