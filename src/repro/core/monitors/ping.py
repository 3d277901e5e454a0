"""Ping monitor: drives and aggregates ICMP latency/loss trials.

Models the paper's use of the ``ping`` utility: a series of 1-second
trials between two hosts, reporting per-trial RTTs, loss, and summary
statistics (Fig. 11b's latency metric).
"""

from __future__ import annotations

from typing import List, Optional

from repro.dataplane.host import Host, PingResult
from repro.core.monitors.base import RecordingMonitor


class PingMonitor(RecordingMonitor):
    """Runs ping series between host pairs and collects the results."""

    def __init__(self, name: str = "ping") -> None:
        super().__init__(name=name)
        self.results: List[PingResult] = []

    def start_series(
        self,
        source: Host,
        target_ip,
        count: int,
        interval: float = 1.0,
        timeout: float = 1.0,
        label: str = "",
    ):
        """Kick off a ping series; the result lands in :attr:`results`."""
        run = source.ping(target_ip, count=count, interval=interval, timeout=timeout)
        started = source.engine.now

        def on_done(result: PingResult, monitor=self) -> None:
            monitor.results.append(result)
            monitor.record(
                source.engine.now,
                "ping_series_done",
                {
                    "label": label,
                    "source": source.name,
                    "target": str(target_ip),
                    "started": started,
                    "sent": result.sent,
                    "received": result.received,
                    "loss_rate": result.loss_rate,
                    "median_rtt": result.median_rtt,
                },
            )

        run.on_done.append(on_done)
        return run

    # -- Aggregates --------------------------------------------------------- #

    def all_rtts(self) -> List[float]:
        rtts: List[float] = []
        for result in self.results:
            rtts.extend(result.successful_rtts)
        return rtts

    def overall_loss_rate(self) -> float:
        """Loss across every series; 0.0 (not an error) with zero pings sent.

        Experiments that end before a probe window opens must still be
        able to aggregate their monitors.
        """
        sent = sum(result.sent for result in self.results)
        received = sum(result.received for result in self.results)
        return 1.0 - received / sent if sent else 0.0

    def median_rtt(self) -> Optional[float]:
        """Median of all successful RTTs; None when there are none."""
        rtts = sorted(self.all_rtts())
        if not rtts:
            return None
        mid = len(rtts) // 2
        if len(rtts) % 2:
            return rtts[mid]
        return (rtts[mid - 1] + rtts[mid]) / 2
