"""Control-plane monitor: counts interposed messages and rule notifications.

The paper's runtime injector "logged all control plane connections, all
messages sent across such connections, and rule notifications (when
actuated)" (Section VII-A2).  This monitor plugs into the runtime injector
as an observer and provides the counters the experiments report (e.g. the
control-plane traffic amplification of the suppression attack).  Its
per-message records (``message``, ``rule_fired``, ``state_changed``,
``action:*``) are built only while a tracer is attached: the trace
(``--trace``, :mod:`repro.obs`) is this reproduction's form of the paper's
control-plane log, and nothing else reads them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.lang.actions import OutgoingMessage
from repro.core.lang.properties import Direction, InterposedMessage
from repro.core.monitors.base import RecordingMonitor


class ControlPlaneMonitor(RecordingMonitor):
    """Observer for :class:`~repro.core.injector.runtime.RuntimeInjector`."""

    def __init__(self, name: str = "control-plane", capacity: Optional[int] = None) -> None:
        super().__init__(name=name, capacity=capacity)
        self.message_counts: Dict[str, int] = {}
        self.per_connection: Dict[Tuple[str, str], int] = {}
        self.dropped_by_type: Dict[str, int] = {}
        #: Names of the fired rules, in firing order: a paper-scale run
        #: fires about a million, so the log keeps the name alone.
        self.rule_names: List[str] = []
        self.state_transitions: List[Tuple[float, str, str]] = []

    # -- RuntimeInjector observer hooks ---------------------------------- #

    def message_interposed(
        self,
        message: InterposedMessage,
        outgoing: List[OutgoingMessage],
        now: float,
    ) -> None:
        # The header peek is enough to classify the message; reading
        # message_type_name here would force a full body decode on every
        # interposed message and defeat the proxy's lazy-decode fast lane.
        self._message(message.connection, message.direction, len(message.raw),
                      message.coarse_type_name, now, message.dropped, outgoing)

    def message_passed(self, connection: Tuple[str, str], direction: Direction,
                       frame: bytes, type_name: Optional[str], now: float) -> None:
        """A message no rule could fire on, forwarded as its frame."""
        self._message(connection, direction, len(frame), type_name, now, False, ())

    def _message(self, connection, direction, length, type_name, now,
                 dropped, outgoing) -> None:
        type_name = type_name or "UNDECODABLE"
        self.message_counts[type_name] = self.message_counts.get(type_name, 0) + 1
        self.per_connection[connection] = self.per_connection.get(connection, 0) + 1
        if dropped:  # the executor's verdict
            self.dropped_by_type[type_name] = self.dropped_by_type.get(type_name, 0) + 1
        if self.tracer is not None:
            self.record(
                now,
                "message",
                {
                    "connection": connection,
                    "direction": direction.value,
                    "type": type_name,
                    "length": length,
                    "forwarded": not dropped,
                    "injected_count": sum(1 for entry in outgoing if entry.injected),
                },
            )

    # -- ExecutorObserver hooks ------------------------------------------ #

    def rule_fired(self, state: str, rule_name: str, message: InterposedMessage) -> None:
        self.rule_names.append(rule_name)
        if self.tracer is not None:
            self.record(
                message.timestamp,
                "rule_fired",
                {"state": state, "rule": rule_name, "message_id": message.msg_id},
            )

    def state_changed(self, previous: str, current: str, at: float) -> None:
        self.state_transitions.append((at, previous, current))
        if self.tracer is not None:
            self.record(at, "state_changed", {"from": previous, "to": current})

    def action_record(self, kind: str, data: dict, at: float) -> None:
        if self.tracer is not None:
            self.record(at, f"action:{kind}", data)

    # -- Queries ----------------------------------------------------------- #

    def total_messages(self) -> int:
        return sum(self.message_counts.values())

    def dropped_total(self) -> int:
        return sum(self.dropped_by_type.values())

    def count_of(self, type_name: str) -> int:
        return self.message_counts.get(type_name, 0)

    def fired_rules(self) -> List[str]:
        return list(self.rule_names)

    def visited_states(self) -> List[str]:
        states = []
        for (_t, previous, current) in self.state_transitions:
            if not states:
                states.append(previous)
            states.append(current)
        return states
