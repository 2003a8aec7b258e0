"""Tests for CSV time-series export."""

import csv
import os

from repro.metrics.export import (
    export_counter_bins,
    export_figure4_bundle,
    export_series,
)
from repro.sim.units import MS
from repro.telemetry.recorder import SeriesData


class TestSeriesExport:
    def test_roundtrip(self, tmp_path):
        series = SeriesData("cpu.freq_ghz", "gauge", 1, [0, 5 * MS], [3.1, 0.8])
        path = os.path.join(tmp_path, "freq.csv")
        rows = export_series(series, path)
        assert rows == 2
        with open(path) as fh:
            data = list(csv.reader(fh))
        assert data[0] == ["time_ns", "value"]
        assert data[1] == ["0", "3.1"]
        assert data[2] == [str(5 * MS), "0.8"]

    def test_empty_series(self, tmp_path):
        path = os.path.join(tmp_path, "empty.csv")
        assert export_series(SeriesData("nothing", "gauge", 1), path) == 0
        with open(path) as fh:
            assert len(list(csv.reader(fh))) == 1  # header only


class TestCounterExport:
    def test_binned_rows(self, tmp_path):
        # Cumulative samples at 0, 1, 2, 3 ms; bins start in [0, 2 ms).
        series = SeriesData(
            "rx", "counter", 1, [0, MS, 2 * MS, 3 * MS],
            [0.0, 1000.0, 1500.0, 1600.0],
        )
        path = os.path.join(tmp_path, "rx.csv")
        rows = export_counter_bins(series, path, 0, 2 * MS)
        assert rows == 2
        with open(path) as fh:
            data = list(csv.reader(fh))
        assert data[0] == ["bin_start_ns", "amount"]
        assert data[1] == ["0", "1000.0"]
        assert data[2] == [str(MS), "500.0"]


class TestBundle:
    def test_figure4_bundle_from_real_run(self, tmp_path):
        from repro import ExperimentConfig, run_experiment

        result = run_experiment(
            ExperimentConfig(
                app="apache", policy="ond.idle", target_rps=24_000,
                warmup_ns=5 * MS, measure_ns=30 * MS, drain_ns=20 * MS,
            ),
            record_timeseries="coarse",
        )
        paths = export_figure4_bundle(
            result.timeseries, str(tmp_path), 5 * MS, 35 * MS
        )
        names = [os.path.basename(p) for p in paths]
        assert names == [
            "server_rx_bytes.csv", "server_tx_bytes.csv",
            "server_cpu_util.csv", "server_cpu_freq_ghz.csv",
            "server_core0_cstate.csv", "server_core1_cstate.csv",
            "server_core2_cstate.csv", "server_core3_cstate.csv",
        ]
        for path in paths:
            assert os.path.exists(path)
        # The rx series carries real traffic: one 1 ms bin per row over
        # the 30 ms window.
        rx_path = paths[0]
        with open(rx_path) as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 30
        assert sum(float(row[1]) for row in rows) > 0
