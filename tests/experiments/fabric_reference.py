"""The UDP fabric workload's up-front scheduler, kept as an oracle.

Before each flow kept one pending send, a data region pushed all of a
flow's ``packets`` sends onto its heap at build time, one
``schedule_at(start_s + i * interval_s, ...)`` per send.
:class:`UpFrontRegion` builds that way; everything else about the region
is the shipping :class:`~repro.experiments.fabric._FabricDataRegion`.
``tests/experiments/test_fabric_event_order.py`` requires both to fire
the same ``(time, band, seq)`` sequence in every region.
"""

from repro.experiments.fabric import (
    UDP_DST_PORT,
    UDP_SRC_PORT,
    _FabricDataRegion,
)


class UpFrontRegion(_FabricDataRegion):
    """A data region that schedules every UDP send when it is built."""

    def _build_workload(self) -> None:
        if self.config["workload"] != "udp":
            super()._build_workload()
            return
        config, plan = self.config, self.plan
        topo = plan.fabric.topology
        local = self.network.hosts
        for a, b in plan.pairs:
            if a in local:
                local[a].learn_arp(topo.hosts[b].ip, topo.hosts[b].mac)
            if b in local:
                local[b].learn_arp(topo.hosts[a].ip, topo.hosts[a].mac)
        for src, dst in plan.pairs:
            if dst in local:
                local[dst].register_udp_handler(UDP_DST_PORT,
                                                self._udp_received)
            if src in local:
                dst_ip = topo.hosts[dst].ip
                for i in range(config["packets"]):
                    self.engine.schedule_at(
                        config["start_s"] + i * config["interval_s"],
                        self._send_up_front, local[src], dst_ip,
                    )

    def _send_up_front(self, host, dst_ip) -> None:
        self.packets_sent += 1
        host.send_udp(dst_ip, UDP_SRC_PORT, UDP_DST_PORT, self._payload)
