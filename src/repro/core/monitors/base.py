"""Monitor primitives: timestamped event records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class MonitorEvent:
    """One recorded event."""

    time: float
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<Event t={self.time:.6f} {self.kind} {self.data}>"


class RecordingMonitor:
    """A monitor that accumulates :class:`MonitorEvent` records."""

    def __init__(self, name: str = "monitor", capacity: Optional[int] = None) -> None:
        self.name = name
        self.capacity = capacity
        self.events: List[MonitorEvent] = []
        self.dropped_events = 0
        self.tracer = None

    def record(self, time: float, kind: str, data: Optional[Dict[str, Any]] = None) -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped_events += 1
            return
        payload = dict(data or {})
        self.events.append(MonitorEvent(time, kind, payload))
        if self.tracer is not None:
            self.tracer.emit("monitor", t=time, monitor=self.name,
                             sample=kind, data=payload)

    def events_of(self, kind: str) -> List[MonitorEvent]:
        return [event for event in self.events if event.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    def between(self, start: float, end: float) -> List[MonitorEvent]:
        return [event for event in self.events if start <= event.time <= end]

    def clear(self) -> None:
        self.events.clear()
        self.dropped_events = 0

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<RecordingMonitor {self.name} events={len(self.events)}>"
