"""Shared experiment plumbing.

:class:`RunSettings` moved to :mod:`repro.harness.settings` when the sweep
harness grew underneath the experiment layer; it is re-exported here so
``from repro.experiments.common import RunSettings`` keeps working.
:func:`run_window` drives a one-server star built outside
:class:`~repro.cluster.simulation.Cluster` (the load-dynamics runner's).
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.node import WindowMeter
from repro.harness.settings import RunSettings
from repro.metrics.latency import LatencyStats
from repro.sim.kernel import Simulator

__all__ = ["RunSettings", "run_window"]


def run_window(
    sim: Simulator,
    meter: WindowMeter,
    clients: Sequence,
    settings: RunSettings,
) -> LatencyStats:
    """Run a built star through warmup, measurement and drain.

    Starts ``clients``, marks ``meter`` at both window edges, stops the
    clients at window end and simulates the drain.  Returns the latency
    of the requests sent inside the window; read the energy from
    ``meter``.  Start the server before calling.
    """
    window_start = settings.warmup_ns
    window_end = settings.warmup_ns + settings.measure_ns
    for client in clients:
        client.start()
    sim.schedule_at(window_start, meter.mark)
    sim.schedule_at(window_end, meter.mark)
    for client in clients:
        sim.schedule_at(window_end, client.stop)
    sim.run(until=window_end + settings.drain_ns)
    rtts = []
    for client in clients:
        rtts.extend(client.rtts_in_window(window_start, window_end))
    return LatencyStats.from_values(rtts)
