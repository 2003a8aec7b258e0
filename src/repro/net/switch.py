"""A store-and-forward Ethernet switch.

Routes frames between attached links by destination name.  Forwarding adds
a fixed per-frame latency; output contention is handled by the outgoing
link's serialization FIFO.  Frames for unknown destinations are dropped
(and counted), like a real switch with no matching CAM entry and flooding
disabled.
"""

from __future__ import annotations

from typing import Dict

from repro.net.link import Link, LinkPort, NetDevice
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.sim.units import US, gbps


class Switch:
    """A named multi-port switch."""

    def __init__(self, sim: Simulator, name: str = "switch", forward_latency_ns: int = 1 * US):
        self._sim = sim
        self.name = name
        self.forward_latency_ns = forward_latency_ns
        self._ports: Dict[str, LinkPort] = {}
        self.frames_forwarded = 0
        self.frames_dropped = 0

    def connect(
        self,
        device: NetDevice,
        bandwidth_bps: float = gbps(10),
        latency_ns: int = 1 * US,
    ) -> Link:
        """Join ``device`` to this switch over a new full-duplex link.

        The device gets its transmit port (``device.attach_port``) and
        frames addressed to ``device.name`` are routed down the link.
        """
        link = Link(self._sim, bandwidth_bps, latency_ns)
        link.attach(device, self)
        device.attach_port(link.endpoint_port(device))
        self._ports[device.name] = link.endpoint_port(self)
        return link

    def receive_frame(self, frame: Frame) -> None:
        """Book ``frame`` on its output port one forwarding latency from now.

        No forwarding event is needed: the switch is the only transmitter
        on its output link directions and books them at ``now + forward
        latency``, which never decreases, so each output FIFO is offered
        its frames in arrival order.
        """
        port = self._ports.get(frame.dst)
        if port is None:
            self.frames_dropped += 1
            return
        self.frames_forwarded += 1
        port.send_at(self._sim.now + self.forward_latency_ns, frame)

    @property
    def known_destinations(self):
        return sorted(self._ports)
