"""Simulator self-profiling: where does *wall-clock* time go?

The rest of the repo observes the simulated system (telemetry, critical
paths, flight recorder); this package observes the simulator.  A
:class:`SimProfiler` attached via
:meth:`repro.sim.kernel.Simulator.set_profiler` is called through hooks
by the kernel's one dispatch loop; it attributes wall time and event
counts to each handler (keyed by callable qualname and owner subsystem)
and tracks event-queue health.  Detached, it costs the loop one
``is None`` check per event.

Exporters turn a finished :class:`LoopProfile` into a top-N handler
table, collapsed-stack text for flamegraph tooling, and a wall-clock
lane for the existing Chrome-trace export.

    from repro.profiling import SimProfiler

    profiler = SimProfiler()
    sim.set_profiler(profiler)
    sim.run()
    print(format_top_handlers(profiler.profile()))
"""

from repro.profiling.export import (
    collapsed_stacks,
    format_top_handlers,
    wall_clock_trace_events,
)
from repro.profiling.profiler import (
    PROFILE_SCHEMA_VERSION,
    HandlerStats,
    LoopProfile,
    SimProfiler,
    peak_rss_bytes,
)

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "HandlerStats",
    "LoopProfile",
    "SimProfiler",
    "collapsed_stacks",
    "format_top_handlers",
    "peak_rss_bytes",
    "wall_clock_trace_events",
]
