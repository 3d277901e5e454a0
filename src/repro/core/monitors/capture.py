"""Data-plane capture: a tcpdump-like tap on a simulated link.

Wraps both delivery directions of a :class:`~repro.dataplane.link.DataLink`
and records every frame with a timestamp and protocol label.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dataplane.link import DataLink
from repro.netlib.packet import decode_ethernet, payload_protocol_name
from repro.core.monitors.base import RecordingMonitor
from repro.sim.engine import SimulationEngine


class LinkCapture(RecordingMonitor):
    """Records frames crossing one data-plane link."""

    def __init__(
        self,
        engine: SimulationEngine,
        link: DataLink,
        name: Optional[str] = None,
        capacity: Optional[int] = 100_000,
    ) -> None:
        super().__init__(name=name or f"capture:{link.name}", capacity=capacity)
        self.engine = engine
        self.link = link
        self.frames_by_protocol: Dict[str, int] = {}
        self.bytes_total = 0
        self._wrap(link)

    def _wrap(self, link: DataLink) -> None:
        """Put a tap in front of each direction's receiver.

        A direction calls its receiver as ``deliver(port, data)`` for a
        switch and ``deliver(data)`` for a host; the tap records the
        frame (the last argument) and passes every argument on.
        """
        for direction, label in ((link._b_to_a, "b->a"), (link._a_to_b, "a->b")):
            original = direction.deliver

            def tap(*args, original=original, label=label) -> None:
                self._capture(args[-1], label)
                if original is not None:
                    original(*args)

            direction.deliver = tap

    def _capture(self, data: bytes, direction: str) -> None:
        try:
            protocol = payload_protocol_name(decode_ethernet(data))
        except Exception:
            protocol = "undecodable"
        self.frames_by_protocol[protocol] = self.frames_by_protocol.get(protocol, 0) + 1
        self.bytes_total += len(data)
        self.record(
            self.engine.now,
            "frame",
            {"direction": direction, "protocol": protocol, "length": len(data)},
        )

    def frames_of(self, protocol: str) -> int:
        return self.frames_by_protocol.get(protocol, 0)
