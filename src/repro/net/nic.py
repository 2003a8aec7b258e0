"""NIC model (Intel 82574-like, no TOE), with one rx queue or several.

The default single-queue NIC is the paper's.  With ``n_queues > 1`` it is
the Section 7 multi-queue NIC: receive-side scaling steers each frame to
a queue by a stable hash of its source (flow affinity), and every queue
has its own ring, ICR, interrupt moderator and vector, so a driver and an
NCAP engine bound to a queue serve one core.  Transmit is shared.

The receive path reproduces the sequence of Section 2.2 / Figure 3:

1. a frame arrives from the link (hardware taps — where NCAP's ReqMonitor
   sits — observe it here, *before* DMA);
2. the DMA engine copies it into a main-memory ``skb`` via the descriptor
   ring (``dma_latency_ns`` per frame, covering the PCIe transactions);
3. the frame is appended to the rx ring and the interrupt moderator is
   notified; when an interrupt is posted the ICR is set and the attached
   driver's top half runs.

Receive accounting distinguishes **wire-level** counters (``rx.frames`` /
``rx.bytes``, charged at link delivery, before the ring-full check) from
**delivered** counters (``rx.delivered_frames`` / ``rx.delivered_bytes``,
charged only when the frame lands in the rx ring); drops book both the
frame and its bytes under ``rx.dropped_*``.  Wire counters live under
``nic.rx`` / ``nic.tx``; delivery and drop counters are per queue, under
``nic.q<i>`` on a multi-queue NIC and under ``nic`` on a single queue.

Transmit-complete interrupts are coalesced into the driver's per-segment
kernel cost rather than modelled individually (their handler is trivial
and would only add events); transmitted frames/bytes are still observed by
the hardware tx taps at transmit time, which is what NCAP's TxBytesCounter
needs.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.net.interrupts import ICR, InterruptModerator, ModerationConfig
from repro.net.link import LinkPort
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.sim.units import US
from repro.telemetry import (
    NicRx,
    NicTx,
    RequestPhase,
    RingOccupancy,
    Telemetry,
    ensure_telemetry,
)


class NICQueue:
    """One rx queue: descriptor ring, ICR, moderator and interrupt vector.

    The driver binds to a queue's ``read_icr`` / ``take_rx`` /
    ``rx_pending`` / ``on_interrupt``; NCAP hardware taps its
    ``rx_hw_taps`` and posts through :meth:`post_interrupt_now`.
    """

    def __init__(self, nic: "NIC", queue_id: int, name: str, stats, moderation: ModerationConfig):
        self._nic = nic
        self._sim = nic._sim
        self.queue_id = queue_id
        self.name = name
        self.icr = ICR()
        self.moderator = InterruptModerator(nic._sim, moderation, self._post_interrupt)
        self._ring: Deque[Frame] = deque()
        #: Hardware observation points for this queue's frames (NCAP hooks),
        #: run at wire arrival, before DMA.
        self.rx_hw_taps: List[Callable[[Frame], None]] = []
        #: Driver top half, invoked when an interrupt is posted.
        self.on_interrupt: Optional[Callable[[], None]] = None
        self._delivered_frames = stats.counter("rx.delivered_frames")
        self._delivered_bytes = stats.counter("rx.delivered_bytes")
        self._dropped_frames = stats.counter("rx.dropped_frames")
        self._dropped_bytes = stats.counter("rx.dropped_bytes")
        self._ring_probe = nic.telemetry.probe("nic.ring")
        self._span_probe = nic.telemetry.probe("request.span")

    @property
    def rx_delivered_frames(self) -> int:
        """Frames that made it into this queue's ring."""
        return int(self._delivered_frames.value)

    @property
    def rx_dropped(self) -> int:
        """Frames dropped because this queue's ring was full."""
        return int(self._dropped_frames.value)

    def _dma_complete(self, frame: Frame) -> None:
        ring = self._ring
        size = self._nic.rx_ring_size
        dropped = len(ring) >= size
        if dropped:
            self._dropped_frames.inc()
            self._dropped_bytes.inc(frame.wire_bytes)
        else:
            ring.append(frame)
            self._delivered_frames.inc()
            self._delivered_bytes.inc(frame.wire_bytes)
        if self._ring_probe.enabled:
            self._ring_probe.emit(
                RingOccupancy(self._sim.now, self.name, len(ring), size, dropped=dropped)
            )
        if self._span_probe.enabled and frame.kind == "request":
            self._span_probe.emit(
                RequestPhase(
                    self._sim.now, frame.src, frame.req_id,
                    "dropped" if dropped else "dma",
                )
            )
        if not dropped:
            self.icr.set(ICR.IT_RX)
            self.moderator.notify_event()

    # -- driver-side interface ---------------------------------------------------

    def read_icr(self) -> int:
        """PCIe read of the ICR (read-to-clear), done by the top half."""
        return self.icr.read_and_clear()

    def take_rx(self, budget: int) -> List[Frame]:
        """Pop up to ``budget`` frames from the rx ring (NAPI poll)."""
        ring = self._ring
        batch: List[Frame] = []
        while ring and len(batch) < budget:
            batch.append(ring.popleft())
        return batch

    @property
    def rx_pending(self) -> int:
        return len(self._ring)

    def post_interrupt_now(self, bits: int) -> None:
        """Set ICR ``bits`` and post an interrupt immediately (NCAP path)."""
        self.icr.set(bits)
        self.moderator.force_fire_now()

    def _post_interrupt(self) -> None:
        if self.on_interrupt is not None:
            self.on_interrupt()


class NIC:
    """A NIC with ``n_queues`` rx queues, DMA latency and interrupt moderation.

    ``rx_ring_size`` is each queue's ring size.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "eth0",
        dma_latency_ns: int = 10 * US,
        tx_dma_latency_ns: int = 5 * US,
        rx_ring_size: int = 2048,
        moderation: ModerationConfig = ModerationConfig(),
        tx_complete_interrupts: bool = False,
        telemetry: Optional[Telemetry] = None,
        stats_prefix: str = "nic",
        n_queues: int = 1,
    ):
        if n_queues < 1:
            raise ValueError("need at least one rx queue")
        self._sim = sim
        self.name = name
        self.dma_latency_ns = dma_latency_ns
        self.tx_dma_latency_ns = tx_dma_latency_ns
        self.rx_ring_size = rx_ring_size
        self._port: Optional[LinkPort] = None
        #: Hardware observation point on the transmit path (NCAP's
        #: TxBytesCounter).
        self.tx_hw_taps: List[Callable[[Frame], None]] = []

        self.telemetry = ensure_telemetry(telemetry)
        stats = self.telemetry.scope(stats_prefix)
        self._rx_frames = stats.counter("rx.frames")
        self._rx_bytes = stats.counter("rx.bytes")
        self._tx_frames = stats.counter("tx.frames")
        self._tx_bytes = stats.counter("tx.bytes")
        self._rx_probe = self.telemetry.probe("nic.rx")
        self._tx_probe = self.telemetry.probe("nic.tx")
        self._span_probe = self.telemetry.probe("request.span")
        if n_queues == 1:
            self.queues = [NICQueue(self, 0, name, stats, moderation)]
        else:
            self.queues = [
                NICQueue(
                    self, i, f"{name}.q{i}",
                    self.telemetry.scope(f"{stats_prefix}.q{i}"), moderation,
                )
                for i in range(n_queues)
            ]

        #: When enabled, completed transmissions set IT_TX on queue 0 and go
        #: through the same moderation as rx events, so the driver can
        #: reclaim tx descriptors (off by default: the paper's rx path is
        #: the story, and reclamation cost is otherwise folded into the tx
        #: syscall).
        self.tx_complete_interrupts = tx_complete_interrupts
        self.tx_completions_pending = 0

    # -- stat views (wire-level rx counters include dropped frames) --------

    @property
    def rx_frames(self) -> int:
        """Frames seen on the wire (including ones later dropped)."""
        return int(self._rx_frames.value)

    @property
    def rx_bytes(self) -> int:
        """Wire bytes seen (including ones later dropped)."""
        return int(self._rx_bytes.value)

    @property
    def rx_delivered_frames(self) -> int:
        """Frames that made it into an rx ring."""
        return sum(q.rx_delivered_frames for q in self.queues)

    @property
    def rx_dropped(self) -> int:
        """Frames dropped because their queue's rx ring was full."""
        return sum(q.rx_dropped for q in self.queues)

    @property
    def rx_pending(self) -> int:
        """Frames waiting in the rx rings."""
        return sum(q.rx_pending for q in self.queues)

    @property
    def tx_frames(self) -> int:
        return int(self._tx_frames.value)

    @property
    def tx_bytes(self) -> int:
        return int(self._tx_bytes.value)

    # -- wiring ----------------------------------------------------------

    def attach_port(self, port: LinkPort) -> None:
        self._port = port

    # -- receive path -------------------------------------------------------

    def queue_for(self, frame: Frame) -> NICQueue:
        """RSS steering: a stable hash of the flow's source picks the queue."""
        queues = self.queues
        return queues[zlib.crc32(frame.src.encode("utf-8")) % len(queues)]

    def receive_frame(self, frame: Frame) -> None:
        """Frame arrived on the wire (link delivery point)."""
        self._rx_frames.inc()
        self._rx_bytes.inc(frame.wire_bytes)
        if self._rx_probe.enabled:
            self._rx_probe.emit(
                NicRx(self._sim.now, self.name, frame.wire_bytes, frame.kind)
            )
        if self._span_probe.enabled and frame.kind == "request":
            self._span_probe.emit(
                RequestPhase(self._sim.now, frame.src, frame.req_id, "arrival")
            )
        queues = self.queues
        queue = queues[0] if len(queues) == 1 else self.queue_for(frame)
        for tap in queue.rx_hw_taps:
            tap(frame)
        self._sim.schedule(self.dma_latency_ns, queue._dma_complete, frame)

    # -- transmit path --------------------------------------------------------------

    def transmit(self, frame: Frame) -> None:
        """Queue ``frame`` for transmission (descriptor fetch + DMA, then wire)."""
        self._tx_frames.inc()
        self._tx_bytes.inc(frame.wire_bytes)
        if self._tx_probe.enabled:
            self._tx_probe.emit(
                NicTx(self._sim.now, self.name, frame.wire_bytes, frame.kind)
            )
        for tap in self.tx_hw_taps:
            tap(frame)
        self._sim.schedule(self.tx_dma_latency_ns, self._tx_to_wire, frame)

    def _tx_to_wire(self, frame: Frame) -> None:
        assert self._port is not None, "NIC has no attached link port"
        self._port.send(frame)
        if self.tx_complete_interrupts:
            self.tx_completions_pending += 1
            queue = self.queues[0]
            queue.icr.set(ICR.IT_TX)
            queue.moderator.notify_event()

    def take_tx_completions(self) -> int:
        """Driver-side reclamation: how many tx descriptors completed."""
        count, self.tx_completions_pending = self.tx_completions_pending, 0
        return count
