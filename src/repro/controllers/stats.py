"""Flow-statistics collection service.

Polls every connected switch's flow table with OFPST_FLOW requests on a
fixed period and keeps the latest per-switch snapshot — the "traffic
statistics associated with instantiated forwarding rules" query path of
the paper's system model.  Because the replies traverse the interposed
control plane, statistics-tampering attacks (MODIFYMESSAGE on STATS_REPLY
payloads, or DROPMESSAGE starving the monitoring loop) act on this
service's view.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.openflow.constants import StatsType
from repro.openflow.messages import StatsReply
from repro.openflow.stats import (
    FlowStatsEntry,
    flow_stats_request,
    parse_flow_stats_reply,
)
from repro.controllers.apps import ControllerApp


class StatsCollectorApp(ControllerApp):
    """Periodic OFPST_FLOW polling with per-datapath snapshots."""

    POLL_INTERVAL = 5.0

    def __init__(self, poll_interval: float = POLL_INTERVAL) -> None:
        self.poll_interval = poll_interval
        #: datapath id -> latest decoded flow-stats records
        self.snapshots: Dict[int, List[FlowStatsEntry]] = {}
        #: datapath id -> simulated time of the latest snapshot
        self.snapshot_times: Dict[int, float] = {}
        self.polls_sent = 0
        self.replies_received = 0
        self.decode_failures = 0

    def switch_ready(self, controller, session) -> None:
        self._poll(controller, session)

    def _poll(self, controller, session) -> None:
        if session.state.value == "closed":
            return
        self.polls_sent += 1
        session.send(flow_stats_request(xid=controller.engine.ctx.next_xid()).pack())
        controller.engine.schedule(self.poll_interval, self._poll, controller, session)

    def stats_reply(self, controller, session, message: StatsReply) -> None:
        if message.stats_type != StatsType.FLOW or session.datapath_id is None:
            return
        try:
            entries = parse_flow_stats_reply(message)
        except Exception:
            self.decode_failures += 1
            return
        self.replies_received += 1
        self.snapshots[session.datapath_id] = entries
        self.snapshot_times[session.datapath_id] = controller.engine.now

    def switch_down(self, controller, session) -> None:
        if session.datapath_id is not None:
            self.snapshots.pop(session.datapath_id, None)
            self.snapshot_times.pop(session.datapath_id, None)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def total_packets(self, datapath_id: int) -> int:
        """Sum of packet counters in the latest snapshot for a switch."""
        return sum(e.packet_count for e in self.snapshots.get(datapath_id, []))

    def total_bytes(self, datapath_id: int) -> int:
        return sum(e.byte_count for e in self.snapshots.get(datapath_id, []))

    def flow_count(self, datapath_id: int) -> int:
        return len(self.snapshots.get(datapath_id, []))

    def staleness(self, datapath_id: int, now: float) -> Optional[float]:
        """Seconds since the last snapshot (None if never polled)."""
        taken = self.snapshot_times.get(datapath_id)
        return None if taken is None else now - taken
