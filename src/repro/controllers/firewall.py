"""DMZ firewall application for the enterprise case study.

The case study's network "enforce[s] isolation through network
partitioning": external traffic entering through the gateway (h2) may reach
the public-facing web server (h1) but not internal hosts.  The firewall is
enforced at the DMZ switch (s2).  When a blocked flow appears there, the
app installs a *drop* flow entry — and that drop FLOW_MOD on connection
(c1, s2) is precisely the message the connection-interruption attack's
rule φ2 waits for.

The drop rule's match is built with the host controller's own match
personality (``LearningSwitchBehavior.match_key``), which is what makes
the Ryu anomaly reproducible: Ryu-style matches carry no ``nw_src`` /
``nw_dst``, so the attack's conditional over those type options never
fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, SupportsInt

from repro.netlib.addresses import Ipv4Address
from repro.netlib.ethernet import EtherType
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketIn
from repro.controllers.apps import (DL_TYPE, NW_DST, NW_SRC, ControllerApp, FlowKey,
                                    LearningSwitchBehavior)


@dataclass(frozen=True)
class FirewallPolicy:
    """Source/destination IP sets (as ints) whose traffic is blocked at the DMZ."""

    blocked_sources: FrozenSet[int]
    protected_destinations: FrozenSet[int]

    @classmethod
    def isolate(cls, external_ips, internal_ips) -> "FirewallPolicy":
        """Block the given external sources from the given internal hosts."""
        return cls(
            blocked_sources=frozenset(int(Ipv4Address(ip)) for ip in external_ips),
            protected_destinations=frozenset(int(Ipv4Address(ip)) for ip in internal_ips),
        )

    def blocks(self, src: Optional[SupportsInt], dst: Optional[SupportsInt]) -> bool:
        return (
            src is not None
            and dst is not None
            and int(src) in self.blocked_sources
            and int(dst) in self.protected_destinations
        )


class DmzFirewallApp(ControllerApp):
    """Enforces a :class:`FirewallPolicy` at designated enforcement switches.

    Runs ahead of the learning switch in the pipeline.  Blocked packets are
    answered with a drop flow entry (a FLOW_MOD with an empty action list);
    the buffered packet is left unreleased, which is how OpenFlow drops it.
    ARP is always allowed so address resolution still works — the policy is
    an L3 policy, as in a conventional DMZ firewall.
    """

    def __init__(
        self,
        policy: FirewallPolicy,
        enforcement_dpids: FrozenSet[int],
        behavior: LearningSwitchBehavior,
        drop_idle_timeout: int = 10,
        drop_priority: int = 2,
    ) -> None:
        self.policy = policy
        self.enforcement_dpids = frozenset(enforcement_dpids)
        self.behavior = behavior
        self.drop_idle_timeout = drop_idle_timeout
        self.drop_priority = drop_priority
        self.blocked_packets = 0
        self.drop_rules_installed = 0

    def packet_in(self, controller, session, message: PacketIn, key: FlowKey) -> bool:
        if session.datapath_id not in self.enforcement_dpids:
            return False
        if key[DL_TYPE] != EtherType.IPV4:
            return False  # ARP/LLDP pass through to the learning switch
        if not self.policy.blocks(key[NW_SRC], key[NW_DST]):
            return False
        self.blocked_packets += 1
        self.drop_rules_installed += 1
        session.send(
            FlowMod(
                Match.from_key(self.behavior.match_key(key)),
                idle_timeout=self.drop_idle_timeout,
                priority=self.drop_priority,
                actions=[],  # no actions: matching packets are dropped
                xid=controller.engine.ctx.next_xid(),
            ).pack()
        )
        return True  # stop the pipeline; no forwarding for blocked traffic
