"""Iperf monitor: drives and aggregates TCP throughput trials.

Models the paper's use of ``iperf``: repeated client/server transfer
trials whose achieved throughput is the Fig. 11a metric.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dataplane.host import Host, IperfResult
from repro.core.monitors.base import RecordingMonitor


class IperfMonitor(RecordingMonitor):
    """Runs iperf-style transfers and collects :class:`IperfResult` records."""

    def __init__(self, name: str = "iperf") -> None:
        super().__init__(name=name)
        self.results: List[IperfResult] = []

    def start_trial(
        self,
        client: Host,
        server: Host,
        duration: float = 10.0,
        port: int = 5001,
        label: str = "",
    ):
        """Start the server then the client; collect the client's result."""
        server.start_iperf_server(port)
        run = client.run_iperf_client(server.ip, port=port, duration=duration)
        started = client.engine.now

        def on_done(result: IperfResult, monitor=self) -> None:
            monitor.results.append(result)
            monitor.record(
                client.engine.now,
                "iperf_trial_done",
                {
                    "label": label,
                    "client": client.name,
                    "server": server.name,
                    "started": started,
                    "bytes": result.bytes_acked,
                    "throughput_mbps": result.throughput_mbps,
                    "connected": result.connected,
                    "retransmits": result.retransmits,
                },
            )

        run.on_done.append(on_done)
        return run

    # -- Aggregates --------------------------------------------------------- #

    def throughputs_mbps(self) -> List[float]:
        return [result.throughput_mbps for result in self.results]

    def mean_throughput_mbps(self) -> Optional[float]:
        """Mean over completed trials; None (not an error) with zero trials."""
        values = self.throughputs_mbps()
        return sum(values) / len(values) if values else None

    def median_throughput_mbps(self) -> Optional[float]:
        """Median over completed trials; None with zero trials."""
        values = sorted(self.throughputs_mbps())
        if not values:
            return None
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return (values[mid - 1] + values[mid]) / 2

    def connect_failures(self) -> int:
        return sum(1 for result in self.results if not result.connected)
