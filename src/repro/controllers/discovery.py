"""LLDP topology discovery service.

Controllers "use the southbound API to query the switches about network
topology" (Section II-A1): this app floods LLDP probes out every switch
port and learns inter-switch links when a probe returns as a PACKET_IN on
the far side — the standard OFDP mechanism Floodlight/POX/Ryu all
implement.

The paper notes (Section II-A4, citing Hong et al. [9]) that "LLDP
messages can be used to fabricate fake links to manipulate the controller
into believing that such links exist, thus causing black hole routing".
:func:`repro.attacks.link_fabrication.link_fabrication_attack` implements
exactly that against this service: an INJECTNEWMESSAGE of a forged LLDP
PACKET_IN poisons :attr:`TopologyDiscoveryApp.links`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.netlib.addresses import MacAddress
from repro.netlib.ethernet import EtherType, EthernetFrame, FrameDecodeError
from repro.netlib.lldp import LldpPacket
from repro.netlib.addresses import LLDP_MULTICAST_MAC
from repro.netlib.packet import decode_ethernet
from repro.openflow.actions import OutputAction
from repro.openflow.constants import OFP_NO_BUFFER, Port
from repro.openflow.messages import PacketIn, PacketOut
from repro.controllers.apps import DL_TYPE, ControllerApp, FlowKey

LinkKey = Tuple[int, int, int, int]  # (src_dpid, src_port, dst_dpid, dst_port)


@dataclass
class DiscoveredLink:
    """One directed inter-switch link with freshness bookkeeping."""

    src_dpid: int
    src_port: int
    dst_dpid: int
    dst_port: int
    first_seen: float
    last_seen: float
    probe_count: int = 1

    @property
    def key(self) -> LinkKey:
        return (self.src_dpid, self.src_port, self.dst_dpid, self.dst_port)


class TopologyDiscoveryApp(ControllerApp):
    """Periodic LLDP probing + link learning (OFDP)."""

    PROBE_INTERVAL = 5.0
    LINK_TTL = 15.0
    CHASSIS_PREFIX = "dpid:"

    def __init__(self, probe_interval: float = PROBE_INTERVAL,
                 link_ttl: float = LINK_TTL) -> None:
        self.probe_interval = probe_interval
        self.link_ttl = link_ttl
        self._links: Dict[LinkKey, DiscoveredLink] = {}
        self.probes_sent = 0
        self.probes_received = 0
        self.malformed_probes = 0

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #

    def switch_ready(self, controller, session) -> None:
        self._probe_session(controller, session)

    def _probe_session(self, controller, session) -> None:
        if session.state.value == "closed":
            return
        for port in session.ports:
            self._send_probe(controller, session, port)
        controller.engine.schedule(
            self.probe_interval, self._probe_session, controller, session
        )

    def _send_probe(self, controller, session, port: int) -> None:
        if session.datapath_id is None:
            return
        lldp = LldpPacket(f"{self.CHASSIS_PREFIX}{session.datapath_id}", port)
        frame = EthernetFrame(
            LLDP_MULTICAST_MAC,
            MacAddress((session.datapath_id << 8) | port),
            EtherType.LLDP,
            lldp.pack(),
        )
        self.probes_sent += 1
        session.send(
            PacketOut(
                buffer_id=OFP_NO_BUFFER,
                in_port=Port.NONE,
                actions=[OutputAction(port)],
                data=frame.pack(),
                xid=controller.engine.ctx.next_xid(),
            ).pack()
        )

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #

    def packet_in(self, controller, session, message: PacketIn, key: FlowKey) -> bool:
        if key[DL_TYPE] != EtherType.LLDP:
            return False
        try:
            lldp = decode_ethernet(message.data).l3
        except (FrameDecodeError, ValueError):
            lldp = None
        if not isinstance(lldp, LldpPacket):
            self.malformed_probes += 1
            return True  # consume: LLDP must not reach the learning switch
        if not lldp.chassis_id.startswith(self.CHASSIS_PREFIX):
            self.malformed_probes += 1
            return True
        try:
            src_dpid = int(lldp.chassis_id[len(self.CHASSIS_PREFIX):])
        except ValueError:
            self.malformed_probes += 1
            return True
        self.probes_received += 1
        now = controller.engine.now
        key = (src_dpid, lldp.port_id, session.datapath_id, message.in_port)
        existing = self._links.get(key)
        if existing is None:
            self._links[key] = DiscoveredLink(
                src_dpid, lldp.port_id, session.datapath_id, message.in_port,
                first_seen=now, last_seen=now,
            )
        else:
            existing.last_seen = now
            existing.probe_count += 1
        return True

    def switch_down(self, controller, session) -> None:
        if session.datapath_id is None:
            return
        dead = session.datapath_id
        self._links = {
            key: link for key, link in self._links.items()
            if dead not in (link.src_dpid, link.dst_dpid)
        }

    def port_status(self, controller, session, message) -> None:
        """PORT_STATUS with LINK_DOWN purges the port's links immediately
        (faster than waiting for the probe TTL to lapse)."""
        from repro.openflow.constants import PortState

        if session.datapath_id is None:
            return
        if not (message.port.state & int(PortState.LINK_DOWN)):
            return
        dpid, port = session.datapath_id, message.port.port_no
        self._links = {
            key: link for key, link in self._links.items()
            if not ((link.src_dpid, link.src_port) == (dpid, port)
                    or (link.dst_dpid, link.dst_port) == (dpid, port))
        }

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def links(self, now: Optional[float] = None) -> Dict[LinkKey, DiscoveredLink]:
        """Currently live links (fresh within the TTL when ``now`` given)."""
        if now is None:
            return dict(self._links)
        return {
            key: link for key, link in self._links.items()
            if now - link.last_seen <= self.link_ttl
        }

    def has_link(self, src_dpid: int, dst_dpid: int,
                 now: Optional[float] = None) -> bool:
        """True if any directed link src -> dst is known (and fresh)."""
        return any(
            link.src_dpid == src_dpid and link.dst_dpid == dst_dpid
            for link in self.links(now).values()
        )

    def bidirectional_links(self, now: Optional[float] = None):
        """Undirected link set: pairs confirmed in both directions."""
        live = self.links(now)
        pairs = set()
        for (src_dpid, src_port, dst_dpid, dst_port) in live:
            if (dst_dpid, dst_port, src_dpid, src_port) in live:
                pairs.add(tuple(sorted([(src_dpid, src_port), (dst_dpid, dst_port)])))
        return pairs
