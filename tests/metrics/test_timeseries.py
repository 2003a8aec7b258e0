"""Tests for time-series sampling helpers."""

import pytest

from repro.cluster.recording import utilization_source
from repro.cpu import Job, ProcessorConfig
from repro.metrics import bandwidth_series_mbps, normalized_series
from repro.metrics.timeseries import window_points
from repro.sim import Simulator
from repro.sim.units import MS
from repro.telemetry.recorder import SeriesData, TimeSeriesRecorder


def _sampler(sim, package, bin_ns=MS):
    """A recorder sampling the server recorder's utilization source."""
    recorder = TimeSeriesRecorder(sim, interval_ns=bin_ns)
    recorder.add_source("cpu.util", utilization_source(package, bin_ns))
    return recorder


class _ReferenceSampler:
    """The original (pre-recorder) utilization sampler, verbatim but for
    its output lists, as the parity oracle for the recorder's
    utilization source."""

    def __init__(self, sim, package, bin_ns=1 * MS):
        self._sim = sim
        self._package = package
        self.times = []
        self.values = []
        self.bin_ns = bin_ns
        self._last_busy = package.busy_ns_per_core()
        self._running = False

    def start(self):
        if self._running:
            return
        self._running = True
        self._last_busy = self._package.busy_ns_per_core()
        self._sim.schedule(self.bin_ns, self._sample)

    def _sample(self):
        if not self._running:
            return
        busy = self._package.busy_ns_per_core()
        deltas = [b - last for b, last in zip(busy, self._last_busy)]
        self._last_busy = busy
        mean_util = sum(deltas) / (len(deltas) * self.bin_ns)
        self.times.append(self._sim.now)
        self.values.append(min(1.0, mean_util))
        self._sim.schedule(self.bin_ns, self._sample)


class TestUtilizationSampler:
    def test_samples_busy_fraction(self):
        sim = Simulator()
        package = ProcessorConfig(n_cores=2).build_package(sim)
        sampler = _sampler(sim, package, bin_ns=MS)
        sampler.start()
        # Core 0 busy for exactly half of the first bin.
        package.cores[0].dispatch(Job(3.1e9 * 500e-6))
        sim.run(until=2 * MS)
        channel = sampler.buffer("cpu.util")
        # Mean across 2 cores: core0 50%, core1 0% -> 25%.
        assert channel.values[0] == pytest.approx(0.25, abs=0.01)
        assert channel.values[1] == pytest.approx(0.0, abs=0.01)

    def test_stop(self):
        sim = Simulator()
        package = ProcessorConfig(n_cores=1).build_package(sim)
        sampler = _sampler(sim, package, bin_ns=MS)
        sampler.start()
        sim.schedule_at(int(2.5 * MS), sampler.stop)
        sim.run(until=10 * MS)
        assert len(sampler.buffer("cpu.util")) == 2

    def test_start_idempotent(self):
        sim = Simulator()
        package = ProcessorConfig(n_cores=1).build_package(sim)
        sampler = _sampler(sim, package, bin_ns=MS)
        sampler.start()
        sampler.start()
        sim.run(until=MS)
        assert len(sampler.buffer("cpu.util")) == 1

    def test_restart_after_stop_does_not_double_schedule(self):
        # Regression: the original sampler left its queued callback alive
        # across stop(), so stop() + start() before the callback fired
        # stacked a second sampling chain and produced duplicate bins.
        sim = Simulator()
        package = ProcessorConfig(n_cores=1).build_package(sim)
        sampler = _sampler(sim, package, bin_ns=MS)
        sampler.start()
        sim.run(until=int(1.5 * MS))
        sampler.stop()
        sampler.start()  # first chain's next tick (t=2ms) still queued
        sim.run(until=5 * MS)
        times = list(sampler.buffer("cpu.util").times)
        assert times == sorted(set(times)), "duplicate bins: two chains"
        assert times == [MS, int(2.5 * MS), int(3.5 * MS), int(4.5 * MS)]

    def test_parity_with_original_implementation(self):
        # The recorder (a) and the verbatim original math (b) driven by
        # the same simulation must bin identically.
        sim = Simulator()
        package = ProcessorConfig(n_cores=2).build_package(sim)
        recorder = _sampler(sim, package, bin_ns=MS)
        reference = _ReferenceSampler(sim, package, bin_ns=MS)
        recorder.start()
        reference.start()
        # Staggered work so bins land at varied fractions.
        for i, us in enumerate((200, 750, 0, 1000, 333)):
            if us:
                sim.schedule_at(
                    i * MS + 100_000,
                    (lambda core, n: lambda: core.dispatch(Job(3.1e9 * n * 1e-6)))(
                        package.cores[i % 2], us * 0.8
                    ),
                )
        sim.run(until=6 * MS)
        a = recorder.buffer("cpu.util")
        assert a.times == reference.times
        assert a.values == reference.values  # bit-identical bins


class TestBandwidthSeries:
    def test_bytes_to_mbps(self):
        # 125 KB in a 1 ms bin = 1 Gb/s; bins are labelled by their start
        # and only bins starting in [start, end) count.
        counter = SeriesData(
            "rx", "counter", 1, [0, MS, 2 * MS], [0.0, 125_000.0, 150_000.0]
        )
        series = bandwidth_series_mbps(counter, 0, MS)
        assert series == [(0, pytest.approx(1000.0))]


class TestWindowPoints:
    def test_bounds_inclusive(self):
        series = SeriesData("f", "gauge", 1, [0, MS, 2 * MS, 3 * MS],
                            [3.1, 2.0, 1.0, 0.8])
        assert window_points(series, MS, 2 * MS) == [(MS, 2.0), (2 * MS, 1.0)]


class TestNormalizedSeries:
    def test_normalizes_to_peak(self):
        series = [(0, 2.0), (1, 8.0), (2, 4.0)]
        assert normalized_series(series) == [(0, 0.25), (1, 1.0), (2, 0.5)]

    def test_all_zero_series(self):
        assert normalized_series([(0, 0.0), (1, 0.0)]) == [(0, 0.0), (1, 0.0)]

    def test_empty(self):
        assert normalized_series([]) == []
