"""Controller applications: pipeline interface and the learning switch.

``LearningSwitchBehavior`` captures the per-controller implementation
differences (match construction, timeouts, buffered-packet release policy)
that the paper's evaluation shows to matter; the three controller modules
instantiate it with their documented parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.netlib.flowkey import MATCH_FIELD_NAMES
from repro.openflow.actions import pack_output
from repro.openflow.constants import OFP_NO_BUFFER, Port
from repro.openflow.match import wire_fields
from repro.openflow.messages import (
    ErrorMessage,
    FlowRemoved,
    PacketIn,
    PortStatus,
    pack_flow_mod,
    pack_packet_out,
)


#: A PACKET_IN's flow key: ``(in_port,)`` plus the frame's
#: ``fastframe.base_key``, in ``MATCH_FIELD_NAMES`` order — addresses as
#: ints, absent fields ``None``.
FlowKey = Tuple[Optional[int], ...]

#: Flow-key positions the apps read.
IN_PORT, DL_SRC, DL_DST, DL_TYPE, NW_SRC, NW_DST = (
    MATCH_FIELD_NAMES.index(name)
    for name in ("in_port", "dl_src", "dl_dst", "dl_type", "nw_src", "nw_dst")
)

#: The nine fields an ``l2`` match leaves wildcarded.
_L2_WILDCARDS = (None,) * 9


def _is_group_mac(mac: int) -> bool:
    """True for a broadcast or multicast MAC (its I/G bit is set)."""
    return bool(mac >> 40 & 1)


class ControllerApp:
    """Base class for controller applications (no-op hooks)."""

    def switch_ready(self, controller, session) -> None:
        """A switch finished its handshake."""

    def switch_down(self, controller, session) -> None:
        """A switch connection was lost."""

    def packet_in(self, controller, session, message: PacketIn, key: FlowKey) -> bool:
        """Handle a PACKET_IN whose packet has flow key ``key``; return
        True to stop the pipeline."""
        return False

    def flow_removed(self, controller, session, message: FlowRemoved) -> None:
        """A flow entry expired on a switch."""

    def port_status(self, controller, session, message: PortStatus) -> None:
        """A switch port changed state."""

    def error_received(self, controller, session, message: ErrorMessage) -> None:
        """The switch reported an error."""

    def stats_reply(self, controller, session, message) -> None:
        """The switch answered a statistics request."""


@dataclass(frozen=True)
class LearningSwitchBehavior:
    """The controller-specific knobs of a learning-switch implementation.

    ``match_granularity`` selects the fields the app puts in its flow-mod
    matches:

    * ``"full"`` — the exact twelve-tuple extracted from the packet
      (Floodlight Forwarding, POX l2_learning);
    * ``"l2"`` — only ``in_port``, ``dl_src``, ``dl_dst`` (Ryu
      simple_switch) — the difference behind the Table II Ryu anomaly.

    ``release_via`` selects how the buffered packet is released:

    * ``"flow_mod"`` — the FLOW_MOD itself carries the buffer id (POX);
      when the suppression attack drops the FLOW_MOD, the packet dies with
      it — the Fig. 11 denial-of-service case;
    * ``"packet_out"`` — a separate PACKET_OUT carries the buffer id
      (Floodlight, Ryu); suppression then degrades but does not stop
      traffic.
    """

    name: str
    match_granularity: str = "full"   # "full" | "l2"
    idle_timeout: int = 5
    hard_timeout: int = 0
    priority: int = 1
    release_via: str = "packet_out"   # "flow_mod" | "packet_out"

    def __post_init__(self) -> None:
        if self.match_granularity not in ("full", "l2"):
            raise ValueError(f"bad match_granularity {self.match_granularity!r}")
        if self.release_via not in ("flow_mod", "packet_out"):
            raise ValueError(f"bad release_via {self.release_via!r}")

    def match_key(self, key: FlowKey) -> FlowKey:
        """The flow key of this controller's flow-mod match for a packet
        (``Match.from_key`` builds the match)."""
        if self.match_granularity == "l2":
            return key[:3] + _L2_WILDCARDS
        return key


class LearningSwitchApp(ControllerApp):
    """A per-switch MAC-learning forwarding application.

    Implements the common algorithm of Floodlight's ``Forwarding``, POX's
    ``forwarding.l2_learning``, and Ryu's ``simple_switch``: learn the
    source MAC's port; if the destination is known, install a flow and
    forward; otherwise flood.
    """

    STATE_KEY = "learning.mac_table"

    def __init__(self, behavior: LearningSwitchBehavior) -> None:
        self.behavior = behavior
        self.flows_installed = 0
        self.floods = 0

    def _mac_table(self, session) -> Dict[int, int]:
        """``MAC (as int) -> port`` for one switch."""
        return session.app_state.setdefault(self.STATE_KEY, {})

    def packet_in(self, controller, session, message: PacketIn, key: FlowKey) -> bool:
        table = self._mac_table(session)
        in_port, src, dst = key[IN_PORT], key[DL_SRC], key[DL_DST]
        table[src] = in_port

        out_port: Optional[int] = table.get(dst)
        if _is_group_mac(dst) or out_port is None:
            self._flood(controller, session, message)
            return True
        if out_port == in_port:
            return True  # destination is behind the ingress port: drop
        self.flows_installed += 1
        _install_flow(self.behavior, controller, session, message, key, out_port)
        return True

    def _flood(self, controller, session, message: PacketIn) -> None:
        self.floods += 1
        _release(controller, session, message, pack_output(Port.FLOOD))

    def switch_down(self, controller, session) -> None:
        session.app_state.pop(self.STATE_KEY, None)


class FabricRoutingApp(ControllerApp):
    """Topology-aware unicast routing for generated fabrics.

    MAC learning floods unknown destinations, and on a multi-path fabric
    (fat-tree, leaf-spine) flooding is a broadcast storm: the topology has
    cycles and no spanning-tree protocol is modelled.  This app is the
    idealized alternative every real controller ships in some form
    (Floodlight's topology/forwarding, ONOS intents): next-hop ports are
    precomputed from the fabric graph, unknown or broadcast destinations
    are dropped, and nothing is ever flooded.

    ``routes`` maps ``datapath_id -> {dst MAC as int -> out_port}``.  The
    installed flows use the same behavior knobs (match granularity,
    timeouts, buffered-packet release) as the learning switch, so attack
    semantics — which control messages matter, what a dropped FLOW_MOD
    costs — carry over from the paper's evaluation unchanged.
    """

    def __init__(
        self,
        routes: Dict[int, Dict[int, int]],
        behavior: LearningSwitchBehavior,
    ) -> None:
        self.routes = routes
        self.behavior = behavior
        self.flows_installed = 0
        self.dropped_unroutable = 0

    def packet_in(self, controller, session, message: PacketIn, key: FlowKey) -> bool:
        dst = key[DL_DST]
        if _is_group_mac(dst):
            self.dropped_unroutable += 1
            return True
        table = self.routes.get(session.datapath_id)
        out_port = None if table is None else table.get(dst)
        if out_port is None:
            self.dropped_unroutable += 1
            return True
        if out_port == key[IN_PORT]:
            return True  # destination is behind the ingress port: drop
        self.flows_installed += 1
        _install_flow(self.behavior, controller, session, message, key, out_port)
        return True


def _install_flow(behavior: LearningSwitchBehavior, controller, session,
                  message: PacketIn, key: FlowKey, out_port: int) -> None:
    """Install ``behavior``'s flow for ``key`` out of ``out_port`` and
    release the packet the way ``behavior`` does."""
    actions = pack_output(out_port)
    via_flow_mod = behavior.release_via == "flow_mod"
    session.send(pack_flow_mod(
        controller.engine.ctx.next_xid(), wire_fields(behavior.match_key(key)), actions,
        idle_timeout=behavior.idle_timeout, hard_timeout=behavior.hard_timeout,
        priority=behavior.priority,
        buffer_id=message.buffer_id if via_flow_mod else OFP_NO_BUFFER))
    if not via_flow_mod:
        _release(controller, session, message, actions)


def _release(controller, session, message: PacketIn, actions: bytes) -> None:
    """PACKET_OUT ``message``'s packet with the packed ``actions``: by its
    buffer id when the switch buffered it, else with its bytes."""
    buffer_id = message.buffer_id
    session.send(pack_packet_out(
        controller.engine.ctx.next_xid(), buffer_id, message.in_port, actions,
        b"" if buffer_id != OFP_NO_BUFFER else message.data))
