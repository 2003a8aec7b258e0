"""Host-speed calibration for the benchmark's host-time metrics.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes (other tenants, frequency scaling).  Host times are
therefore reported in *reference seconds*: each measured interval is
scaled by ``(REFERENCE_S / calibration) ** SPEED_EXPONENT``, where the
calibration is this fixed pure-Python kernel timed between the runs of
the same pass.  The kernel mixes what the simulator spends its time on —
attribute access, method calls, small-object allocation, dict updates
and a heap — and touches nothing from ``src/``, so no change to the
program moves it.
"""

from __future__ import annotations

import heapq
import time

#: The kernel's typical time on a 2-core x86-64 VM under Python
#: 3.11; it only sets the scale of reference seconds.
REFERENCE_S = 0.025
#: How strongly the simulator's host time follows the kernel's.  The
#: kernel slows down more than the simulator when the machine is busy:
#: regressing per-run simulator time on adjacent kernel samples gave a
#: slope of 0.62 in log-log, and between two 20-minute measurement
#: periods a 1.60x slower kernel came with a 1.21x slower ``node_grid``
#: (exponent 0.42).  Full scaling (1.0) over-corrected that shift to 19%;
#: 0.5 brought it to 4%.
SPEED_EXPONENT = 0.5


class _Port:
    __slots__ = ("name", "sent", "bytes", "queue")

    def __init__(self, name: str):
        self.name = name
        self.sent = 0
        self.bytes = 0.0
        self.queue: list = []

    def send(self, t: int, size: int) -> int:
        self.sent += 1
        self.bytes += size * 1.25
        if self.sent % 3 == 0:
            heapq.heappush(self.queue, (t + self.sent % 7, self.sent))
        return self.sent


def _kernel(n: int = 40_000) -> int:
    ports = [_Port(f"p{i}") for i in range(16)]
    counts: dict = {}
    events = []
    for i in range(n):
        port = ports[i & 15]
        k = port.send(i, 64 + (i & 1023))
        counts[k & 1023] = counts.get(k & 1023, 0) + 1
        if port.queue and port.queue[0][0] < i:
            heapq.heappop(port.queue)
        if i & 7 == 0:
            events.append((i, port.name))
    return len(counts) + len(events)


def calibrate() -> float:
    """Host seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def to_reference(seconds: float, calib_s: float) -> float:
    """``seconds`` measured while the kernel took ``calib_s``, in
    reference seconds."""
    return seconds * (REFERENCE_S / calib_s) ** SPEED_EXPONENT
