"""Control-plane monitor: counts interposed messages and rule notifications.

The paper's runtime injector "logged all control plane connections, all
messages sent across such connections, and rule notifications (when
actuated)" (Section VII-A2).  That log is the trace (``--trace``,
:mod:`repro.obs`): the proxy's ``message`` events and the executor's
``rule_fired``, ``state``, ``record`` and ``message_drop`` events.  This
monitor only counts: it plugs into the runtime injector as an observer
and keeps the counters the experiments report (e.g. the control-plane
traffic amplification of the suppression attack).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.lang.actions import OutgoingMessage
from repro.core.lang.properties import Direction, InterposedMessage


class ControlPlaneMonitor:
    """Observer for :class:`~repro.core.injector.runtime.RuntimeInjector`."""

    def __init__(self) -> None:
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
        self._count(message.connection, message.coarse_type_name, message.dropped)

    def message_passed(self, connection: Tuple[str, str], direction: Direction,
                       frame: bytes, type_name: Optional[str], now: float) -> None:
        """A message no rule could fire on, forwarded as its frame."""
        self._count(connection, type_name, False)

    def _count(self, connection, type_name, dropped) -> None:
        type_name = type_name or "UNDECODABLE"
        self.message_counts[type_name] = self.message_counts.get(type_name, 0) + 1
        self.per_connection[connection] = self.per_connection.get(connection, 0) + 1
        if dropped:  # the executor's verdict
            self.dropped_by_type[type_name] = self.dropped_by_type.get(type_name, 0) + 1

    # -- ExecutorObserver hooks ------------------------------------------ #

    def rule_fired(self, state: str, rule_name: str, message: InterposedMessage) -> None:
        self.rule_names.append(rule_name)

    def state_changed(self, previous: str, current: str, at: float) -> None:
        self.state_transitions.append((at, previous, current))

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
