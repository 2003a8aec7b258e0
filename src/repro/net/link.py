"""Full-duplex point-to-point Ethernet links.

Table 1: 10 Gb/s links with 1 µs latency.  Each direction serializes frames
FIFO at the link bandwidth, then delivers after the propagation latency.
Endpoints implement ``receive_frame(frame)`` (see :class:`NetDevice`).
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.sim.units import US, gbps, transmission_delay_ns


class NetDevice(Protocol):
    """Anything that terminates a link."""

    name: str

    def receive_frame(self, frame: Frame) -> None:  # pragma: no cover
        ...


class _Direction:
    """One direction of a link: an analytic serializing FIFO.

    The wire's only state is ``_tail_ns``, the instant the last booked
    frame finishes serializing.  A frame offered at ``t`` starts at
    ``max(t, tail)``, occupies the wire for its transmission delay and is
    delivered one propagation latency later — one event per frame.  Sends
    must be booked in non-decreasing offer time (every transmitter books
    at or after ``sim.now``, and each direction has one transmitter), so
    deliveries leave in FIFO order.  Wire counters are bumped at booking.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float, latency_ns: int):
        self._sim = sim
        self._bandwidth = bandwidth_bps
        self._latency = latency_ns
        self._tail_ns = 0
        self._sink: Optional[NetDevice] = None
        self.frames_carried = 0
        self.bytes_carried = 0

    def attach_sink(self, sink: NetDevice) -> None:
        self._sink = sink

    def send_at(self, t: int, frame: Frame) -> None:
        """Offer ``frame`` to the wire at sim-time ``t`` (>= ``sim.now``)."""
        assert self._sink is not None, "link endpoint not attached"
        wire_bytes = frame.wire_bytes
        tail = self._tail_ns
        start = t if t > tail else tail
        tail = start + transmission_delay_ns(wire_bytes, self._bandwidth)
        self._tail_ns = tail
        self.frames_carried += 1
        self.bytes_carried += wire_bytes
        self._sim.schedule_at(tail + self._latency, self._sink.receive_frame, frame)

    def send(self, frame: Frame) -> None:
        self.send_at(self._sim.now, frame)


class Link:
    """A full-duplex link between two devices."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = gbps(10),
        latency_ns: int = 1 * US,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_ns < 0:
            raise ValueError("latency must be non-negative")
        self._a_to_b = _Direction(sim, bandwidth_bps, latency_ns)
        self._b_to_a = _Direction(sim, bandwidth_bps, latency_ns)
        self._a: Optional[NetDevice] = None
        self._b: Optional[NetDevice] = None

    def attach(self, a: NetDevice, b: NetDevice) -> None:
        """Connect endpoints ``a`` and ``b``."""
        self._a, self._b = a, b
        self._a_to_b.attach_sink(b)
        self._b_to_a.attach_sink(a)

    def endpoint_port(self, device: NetDevice) -> "LinkPort":
        """The transmit port ``device`` should use on this link."""
        if device is self._a:
            return LinkPort(self._a_to_b, self._b)
        if device is self._b:
            return LinkPort(self._b_to_a, self._a)
        raise ValueError(f"{device!r} is not attached to this link")


class LinkPort:
    """A device's handle for transmitting onto one link direction."""

    def __init__(self, direction: _Direction, peer: Optional[NetDevice]):
        self._direction = direction
        self.peer = peer

    def send(self, frame: Frame) -> None:
        self._direction.send(frame)

    def send_at(self, t: int, frame: Frame) -> None:
        """Offer ``frame`` at sim-time ``t`` — see :meth:`_Direction.send_at`."""
        self._direction.send_at(t, frame)

    @property
    def bytes_carried(self) -> int:
        return self._direction.bytes_carried

    @property
    def frames_carried(self) -> int:
        return self._direction.frames_carried
