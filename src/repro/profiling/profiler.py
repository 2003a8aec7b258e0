"""The event-loop profiler: per-handler wall-time attribution.

A :class:`SimProfiler` is attached to a
:class:`~repro.sim.kernel.Simulator` with ``sim.set_profiler(...)``.
The kernel's one dispatch loop then calls four hooks and nothing else:
:meth:`SimProfiler._begin` and :meth:`SimProfiler._end` at the loop
edges, :meth:`SimProfiler._charge` after each handler fires (once per
batch entry), and :meth:`SimProfiler._cancelled` per cancelled-event
pop.  How the loop is timed is decided here alone: each hook reads the
timer once and charges the interval since the previous reading — bucket
bookkeeping, the handler and the previous hook's accounting — to the
handler that fired (or to a dedicated cancelled-pop bucket), so the
per-handler totals telescope to the measured loop total.  Attribution
state accumulates across ``run()`` calls; :meth:`SimProfiler.profile`
snapshots it into an immutable, picklable :class:`LoopProfile`.

Handlers are keyed by the callable itself during the run (one dict
lookup per event) and folded into ``(qualname, subsystem)`` aggregates
lazily — at snapshot time, or early whenever the per-callable dict
exceeds :attr:`SimProfiler.fold_threshold` (so workloads that schedule
fresh closures per call cannot grow memory without bound).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Bump when the serialized profile payload changes shape.
PROFILE_SCHEMA_VERSION = 1


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


def describe_handler(fn: Callable[..., Any]) -> Tuple[str, str]:
    """``(qualname, subsystem)`` for a dispatch-loop callable.

    Bound methods report their underlying function; ``functools.partial``
    chains unwrap to the wrapped callable.  The subsystem is the first
    package component under ``repro.`` (``net``, ``oskernel``, ``cpu``,
    ...), or the bare module name for anything else.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    target = getattr(fn, "__func__", fn)
    qualname = getattr(target, "__qualname__", None) or repr(target)
    module = getattr(target, "__module__", None) or "?"
    if module.startswith("repro."):
        parts = module.split(".")
        subsystem = parts[1] if len(parts) > 1 else "repro"
    else:
        subsystem = module
    return qualname, subsystem


@dataclass(frozen=True)
class HandlerStats:
    """One handler's aggregate cost."""

    qualname: str
    subsystem: str
    calls: int
    wall_ns: int

    @property
    def key(self) -> str:
        return f"{self.subsystem};{self.qualname}"


@dataclass
class LoopProfile:
    """An immutable snapshot of a profiled dispatch loop.

    Plain data: picklable, JSON-round-trippable, safe to hang off an
    :class:`~repro.cluster.simulation.ExperimentResult`.
    """

    #: Per-handler attribution, sorted by descending wall time.
    handlers: List[HandlerStats] = field(default_factory=list)
    #: Total wall time spent inside the profiled ``run()`` loop(s).
    loop_wall_ns: int = 0
    #: Wall time charged to lazy-deletion pops of cancelled events.
    cancelled_wall_ns: int = 0
    events: int = 0
    sim_ns: int = 0
    max_heap_depth: int = 0
    final_heap_size: int = 0
    cancelled_pops: int = 0
    #: Cancelled events eagerly unlinked by the wheel's tail fast path
    #: (never entered the lazy-tombstone machinery).
    cancelled_unlinked: int = 0
    compactions: int = 0
    compacted_events: int = 0
    peak_rss_bytes: int = 0
    #: ``(wall_ns_since_first_loop, sim_ns, events)`` throughput samples.
    checkpoints: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def attributed_wall_ns(self) -> int:
        """Handler + cancelled-pop wall time; should telescope to
        :attr:`loop_wall_ns` within the loop's own bookkeeping residual."""
        return sum(h.wall_ns for h in self.handlers) + self.cancelled_wall_ns

    @property
    def events_per_wall_s(self) -> float:
        if self.loop_wall_ns <= 0:
            return 0.0
        return self.events * 1e9 / self.loop_wall_ns

    @property
    def sim_ns_per_wall_s(self) -> float:
        """Simulated nanoseconds advanced per wall-clock second."""
        if self.loop_wall_ns <= 0:
            return 0.0
        return self.sim_ns * 1e9 / self.loop_wall_ns

    def top(self, n: int = 10) -> List[HandlerStats]:
        return self.handlers[:n]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "loop_wall_ns": self.loop_wall_ns,
            "cancelled_wall_ns": self.cancelled_wall_ns,
            "events": self.events,
            "sim_ns": self.sim_ns,
            "events_per_wall_s": self.events_per_wall_s,
            "sim_ns_per_wall_s": self.sim_ns_per_wall_s,
            "max_heap_depth": self.max_heap_depth,
            "final_heap_size": self.final_heap_size,
            "cancelled_pops": self.cancelled_pops,
            "cancelled_unlinked": self.cancelled_unlinked,
            "compactions": self.compactions,
            "compacted_events": self.compacted_events,
            "peak_rss_bytes": self.peak_rss_bytes,
            "checkpoints": [list(c) for c in self.checkpoints],
            "handlers": [
                {
                    "qualname": h.qualname,
                    "subsystem": h.subsystem,
                    "calls": h.calls,
                    "wall_ns": h.wall_ns,
                }
                for h in self.handlers
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "LoopProfile":
        schema = data.get("schema")
        if schema != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"profile schema {schema!r} != {PROFILE_SCHEMA_VERSION}"
            )
        return cls(
            handlers=[
                HandlerStats(
                    qualname=h["qualname"],
                    subsystem=h["subsystem"],
                    calls=int(h["calls"]),
                    wall_ns=int(h["wall_ns"]),
                )
                for h in data.get("handlers", [])
            ],
            loop_wall_ns=int(data["loop_wall_ns"]),
            cancelled_wall_ns=int(data.get("cancelled_wall_ns", 0)),
            events=int(data["events"]),
            sim_ns=int(data["sim_ns"]),
            max_heap_depth=int(data.get("max_heap_depth", 0)),
            final_heap_size=int(data.get("final_heap_size", 0)),
            cancelled_pops=int(data.get("cancelled_pops", 0)),
            cancelled_unlinked=int(data.get("cancelled_unlinked", 0)),
            compactions=int(data.get("compactions", 0)),
            compacted_events=int(data.get("compacted_events", 0)),
            peak_rss_bytes=int(data.get("peak_rss_bytes", 0)),
            checkpoints=[tuple(c) for c in data.get("checkpoints", [])],
        )


class SimProfiler:
    """Accumulates dispatch-loop attribution for one or more ``run()`` calls.

    The kernel touches nothing here but the four hooks; all timing state
    (the previous timer reading, ``_record``, ``_countdown``, the
    counters and checkpoints) is the profiler's own.
    """

    def __init__(self, checkpoint_every: int = 50_000, fold_threshold: int = 4096):
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        #: Events between throughput checkpoints.
        self.checkpoint_every = checkpoint_every
        #: Fold the per-callable dict into string aggregates past this
        #: size, bounding memory under per-call closure churn.
        self.fold_threshold = fold_threshold
        #: callable -> [calls, wall_ns]; folded lazily into ``_agg``.
        self._record: Dict[Callable[..., Any], List[int]] = {}
        self._agg: Dict[Tuple[str, str], List[int]] = {}
        self._countdown = checkpoint_every
        self._wall0_ns: Optional[int] = None
        #: Timer reading at the start of the current ``run()``.
        self._loop_start_ns = 0
        #: Previous timer reading; the next hook charges from here.
        self._t_prev = 0
        self._sim_ns0: Optional[int] = None
        self._counters0: Dict[str, int] = {}
        self.loop_wall_ns = 0
        self.cancelled_wall_ns = 0
        self.events = 0
        self.cancelled_pops = 0
        self.max_heap_depth = 0
        self.checkpoints: List[Tuple[int, int, int]] = []
        self._sim_ns = 0
        self._final_heap_size = 0
        self._compactions = 0
        self._compacted_events = 0
        self._cancelled_unlinked = 0

    # -- kernel-facing hooks --------------------------------------------

    def _begin(self, sim) -> None:
        """Loop start.  The first profiled run also baselines the
        simulator's lifetime counters, so the profile reports deltas,
        not totals that predate the profiler."""
        now = perf_counter_ns()
        if self._wall0_ns is None:
            self._wall0_ns = now
            self._sim_ns0 = sim.now
            self._counters0 = {
                "compactions": sim.compactions,
                "compacted_events": sim.compacted_events,
                "cancelled_unlinked": sim.cancelled_unlinked,
            }
        self._loop_start_ns = now
        self._t_prev = now

    def _charge(self, fn: Callable[..., Any], calls: int, depth: int, now: int) -> None:
        """``calls`` invocations of ``fn`` just fired at sim time ``now``
        with ``depth`` call units still queued."""
        t = perf_counter_ns()
        elapsed = t - self._t_prev
        self._t_prev = t
        record = self._record
        entry = record.get(fn)
        if entry is None:
            record[fn] = [calls, elapsed]
            if len(record) >= self.fold_threshold:
                self._fold()
        else:
            entry[0] += calls
            entry[1] += elapsed
        self.events += calls
        if depth > self.max_heap_depth:
            self.max_heap_depth = depth
        self._countdown -= calls
        if self._countdown <= 0:
            self.checkpoints.append((t - self._wall0_ns, now, self.events))
            self._countdown = self.checkpoint_every

    def _cancelled(self) -> None:
        """One cancelled tombstone was popped."""
        t = perf_counter_ns()
        self.cancelled_wall_ns += t - self._t_prev
        self._t_prev = t
        self.cancelled_pops += 1

    def _end(self, sim) -> None:
        """Loop end (normal, stopped or raising)."""
        self.loop_wall_ns += perf_counter_ns() - self._loop_start_ns
        self._sim_ns = sim.now - self._sim_ns0
        self._final_heap_size = sim.heap_size()
        counters0 = self._counters0
        self._compactions = sim.compactions - counters0["compactions"]
        self._compacted_events = sim.compacted_events - counters0["compacted_events"]
        self._cancelled_unlinked = (
            sim.cancelled_unlinked - counters0["cancelled_unlinked"]
        )

    def _fold(self) -> None:
        """Collapse the per-callable dict into the string-keyed aggregate."""
        agg = self._agg
        for fn, (calls, wall_ns) in self._record.items():
            key = describe_handler(fn)
            entry = agg.get(key)
            if entry is None:
                agg[key] = [calls, wall_ns]
            else:
                entry[0] += calls
                entry[1] += wall_ns
        self._record.clear()

    # -- snapshot --------------------------------------------------------

    def profile(self) -> LoopProfile:
        """Snapshot everything accumulated so far."""
        self._fold()
        handlers = sorted(
            (
                HandlerStats(
                    qualname=qualname,
                    subsystem=subsystem,
                    calls=calls,
                    wall_ns=wall_ns,
                )
                for (qualname, subsystem), (calls, wall_ns) in self._agg.items()
            ),
            key=lambda h: (-h.wall_ns, h.key),
        )
        return LoopProfile(
            handlers=handlers,
            loop_wall_ns=self.loop_wall_ns,
            cancelled_wall_ns=self.cancelled_wall_ns,
            events=self.events,
            sim_ns=self._sim_ns,
            max_heap_depth=self.max_heap_depth,
            final_heap_size=self._final_heap_size,
            cancelled_pops=self.cancelled_pops,
            cancelled_unlinked=self._cancelled_unlinked,
            compactions=self._compactions,
            compacted_events=self._compacted_events,
            peak_rss_bytes=peak_rss_bytes(),
            checkpoints=list(self.checkpoints),
        )
