"""Fabric oracles: the UDP workload's up-front scheduler and the
controller's next-hop tables picked one ``_ecmp_pick`` at a time.

Before each flow kept one pending send, a data region pushed all of a
flow's ``packets`` sends onto its heap at build time, one
``schedule_at(start_s + i * interval_s, ...)`` per send.
:class:`UpFrontRegion` builds that way; everything else about the region
is the shipping :class:`~repro.experiments.fabric._FabricDataRegion`.
``tests/experiments/test_fabric_event_order.py`` requires both to fire
the same ``(time, band, seq)`` sequence in every region.

:func:`controller_routes` hashes each ``(switch, destination MAC)``
through :func:`~repro.experiments.fabric._ecmp_pick`, which joins the two
as text; the shipping function must pick the same next hops.
"""

from typing import Dict, List

from repro.dataplane.topology import Topology
from repro.experiments.fabric import (
    UDP_DST_PORT,
    UDP_SRC_PORT,
    _bfs_parents,
    _ecmp_pick,
    _FabricDataRegion,
    _host_attach,
    _port_map,
    switch_adjacency,
)


def controller_routes(topo: Topology) -> Dict[int, Dict[int, int]]:
    """``datapath_id -> {host MAC as int -> out_port}`` toward every host."""
    adjacency = switch_adjacency(topo)
    ports = _port_map(topo)
    attach = _host_attach(topo)
    dpid = {name: spec.datapath_id for name, spec in topo.switches.items()}
    routes: Dict[int, Dict[int, int]] = {d: {} for d in dpid.values()}
    by_edge: Dict[str, List[str]] = {}
    for host, edge in attach.items():
        by_edge.setdefault(edge, []).append(host)
    for edge, hosts in sorted(by_edge.items()):
        parents = _bfs_parents(adjacency, edge)
        for host in sorted(hosts):
            mac = topo.hosts[host].mac
            for switch in topo.switches:
                if switch == edge:
                    routes[dpid[switch]][int(mac)] = ports[(edge, host)]
                elif switch in parents:
                    choice = _ecmp_pick(parents[switch], switch, str(mac))
                    routes[dpid[switch]][int(mac)] = ports[(switch, choice)]
    return routes


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
