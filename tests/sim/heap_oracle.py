"""The classic binary-heap scheduler, kept as the differential oracle.

This is the kernel the timing wheel in :mod:`repro.sim.kernel` replaced:
lazy cancellation, in-place compaction, one heap pop per event.  It is
extended with naive equivalents of the wheel's bulk API that consume
sequence numbers the same way, so event order is bit-identical to
:class:`~repro.sim.kernel.Simulator` and the parity tests can diff the
two directly.  The heap holds ``(time, seq, event)`` tuples, so
:class:`~repro.sim.kernel.Event` needs no ordering of its own.

It has no profiler hooks: the parity tests run it unprofiled.  To rerun
an experiment or a micro scenario on it, patch the module-global
``Simulator`` of the module that builds the simulator
(``repro.cluster.simulation`` or ``repro.harness.suites``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.kernel import Event, SimulationError


class HeapScheduler:
    """Binary-heap scheduler with the same API and observable behaviour
    as :class:`~repro.sim.kernel.Simulator`."""

    COMPACT_FRACTION = 0.5
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        #: Current simulated time in ns; only :meth:`run` writes it.
        self.now: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self.events_executed: int = 0
        #: Cancelled events lazily discarded off the top of the heap.
        self.cancelled_pops: int = 0
        #: The heap has no unlink fast path; kept for a uniform stats API.
        self.cancelled_unlinked: int = 0
        #: In-place heap rebuilds triggered by cancellation pressure.
        self.compactions: int = 0
        #: Cancelled events removed by those compactions.
        self.compacted_events: int = 0
        #: Best-effort count of cancelled events still in the heap.  May
        #: overcount when an already-fired event is cancelled; compaction
        #: re-derives the truth.
        self._cancelled_in_heap: int = 0

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> Event:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self.schedule_at(self.now + int(delay), fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> Event:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} ns; now is t={self.now} ns"
            )
        self._seq += 1
        event = Event(int(time), self._seq, fn, args, self)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def call_now(self, fn: Callable[..., None], *args: Any) -> Event:
        return self.schedule_at(self.now, fn, *args)

    def schedule_many(
        self, times: Iterable[int], fn: Callable[..., None], *args: Any
    ) -> int:
        """Naive loop equivalent of :meth:`Simulator.schedule_many`."""
        n = 0
        for t in times:
            self.schedule_at(int(t), fn, *args)
            n += 1
        return n

    def schedule_batch(
        self, delay: int, count: int, fn: Callable[..., None], *args: Any
    ) -> int:
        """Naive loop equivalent of :meth:`Simulator.schedule_batch`."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        if count <= 0:
            raise SimulationError(f"batch count must be positive, got {count}")
        time = self.now + int(delay)
        for _ in range(count):
            self.schedule_at(time, fn, *args)
        return count

    def reschedule(self, event: Event, delay: int) -> Event:
        """Cancel-plus-schedule equivalent of :meth:`Simulator.reschedule`."""
        if event._queued and not event.cancelled:
            event.cancel()
        return self.schedule(delay, event.fn, *event.args)

    # -- heap hygiene ----------------------------------------------------

    def heap_size(self) -> int:
        """Entries currently in the heap, cancelled ones included."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        return self._cancelled_in_heap

    def _note_cancel(self, _event: Event) -> None:
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            len(heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap >= len(heap) * self.COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (:meth:`run`
        holds a local alias to the heap list)."""
        heap = self._heap
        before = len(heap)
        heap[:] = [rec for rec in heap if not rec[2].cancelled]
        heapq.heapify(heap)
        self.compactions += 1
        self.compacted_events += before - len(heap)
        self._cancelled_in_heap = 0

    # -- execution -------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True

    def run(self, until: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            heap = self._heap
            while heap and not self._stopped:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heapq.heappop(heap)
                    event._queued = False
                    self.cancelled_pops += 1
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and time > until:
                    break
                heapq.heappop(heap)
                event._queued = False
                self.now = time
                self.events_executed += 1
                event.fn(*event.args)
            if until is not None and self.now < until and not self._stopped:
                self.now = until
        finally:
            self._running = False
        return self.now

    def peek_next_time(self) -> Optional[int]:
        """Next pending timestamp; pops cancelled entries off the top."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self.cancelled_pops += 1
            self._cancelled_in_heap -= 1
        return heap[0][0] if heap else None

    def pending_count(self) -> int:
        return sum(1 for rec in self._heap if not rec[2].cancelled)
