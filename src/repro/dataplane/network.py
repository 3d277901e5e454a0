"""Network assembly: instantiate a Topology into simulated devices.

``Network`` builds hosts, switches, and links from a declarative
:class:`~repro.dataplane.topology.Topology`, and wires each switch's
control connection to a target endpoint — either a controller directly or
the ATTAIN runtime injector's connection proxy (the paper's deployment
model: "a practitioner need only modify his or her network's switch
configurations to point to the proxy as the SDN controller").
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.dataplane.control import ControlChannel, ControlEndpoint, connect_endpoints
from repro.dataplane.host import Host
from repro.dataplane.link import DataLink
from repro.dataplane.switch import FailMode, OpenFlowSwitch
from repro.dataplane.topology import LinkSpec, Topology
from repro.sim.engine import SimulationEngine

DEFAULT_CONTROL_LATENCY = 0.00025

#: A boundary factory receives ``(link_index, link_spec, local_side)`` for
#: every topology link with exactly one endpoint inside this network's
#: ``include`` subset, and returns a half-link object exposing
#: ``transmit(data) -> bool`` (local device sends toward the far region)
#: and ``attach(deliver, port=None)`` (frames arriving from the far
#: region, as ``deliver(port, data)`` or ``deliver(data)``).
BoundaryFactory = Callable[[int, LinkSpec, str], object]


class Network:
    """A fully wired simulated network.

    By default the whole topology is instantiated.  A sharded region
    passes ``include`` (the device names it owns) and ``boundary`` (a
    factory for the cross-region half-links); links between two excluded
    devices are skipped entirely, links with one excluded endpoint are
    wired through the boundary.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        topology: Topology,
        fail_mode: FailMode = FailMode.SECURE,
        include: Optional[set] = None,
        boundary: Optional[BoundaryFactory] = None,
        table_capacity: Optional[int] = None,
        table_eviction: str = "refuse",
    ) -> None:
        topology.validate()
        self.engine = engine
        self.topology = topology
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, OpenFlowSwitch] = {}
        self.links: Dict[str, DataLink] = {}
        # switch name -> {target name: (endpoint, latency)}
        self._control_targets: Dict[str, Dict[str, tuple]] = {}
        self._started = False

        included = set(include) if include is not None else None
        for spec in topology.hosts.values():
            if included is None or spec.name in included:
                self.hosts[spec.name] = Host(engine, spec.name, spec.mac, spec.ip)
        for spec in topology.switches.values():
            if included is None or spec.name in included:
                self.switches[spec.name] = OpenFlowSwitch(
                    engine, spec.name, spec.datapath_id, fail_mode=fail_mode,
                    table_capacity=table_capacity,
                    table_eviction=table_eviction,
                )
        for index, link_spec in enumerate(topology.links):
            a_in = included is None or link_spec.a in included
            b_in = included is None or link_spec.b in included
            if not a_in and not b_in:
                continue
            if a_in and b_in:
                name = f"{link_spec.a}-{link_spec.b}#{index}"
                link = DataLink(
                    engine,
                    link_spec.bandwidth_bps,
                    link_spec.latency_s,
                    name=name,
                )
                self.links[name] = link
                self._attach(link, "a", link_spec.a, link_spec.a_port)
                self._attach(link, "b", link_spec.b, link_spec.b_port)
                continue
            if boundary is None:
                raise ValueError(
                    f"link {link_spec.a}-{link_spec.b} crosses the include "
                    f"boundary but no boundary factory was given"
                )
            side = "a" if a_in else "b"
            device = link_spec.a if a_in else link_spec.b
            port = link_spec.a_port if a_in else link_spec.b_port
            half = boundary(index, link_spec, side)
            self._wire(half.transmit, half.attach, None, device, port)

    def _attach(self, link: DataLink, side: str, device: str, port: Optional[int]) -> None:
        send = link.send_from_a if side == "a" else link.send_from_b
        attach_receiver = link.attach_a if side == "a" else link.attach_b
        self._wire(send, attach_receiver, link.add_status_observer, device, port)

    def _wire(
        self,
        send: Callable[[bytes], bool],
        attach_receiver: Callable[..., None],
        add_status_observer: Optional[Callable],
        device: str,
        port: Optional[int],
    ) -> None:
        if device in self.switches:
            switch = self.switches[device]
            if port is None:
                raise ValueError(f"switch endpoint {device!r} missing a port number")
            switch.attach_port(port, send)
            attach_receiver(switch.frame_received, port)
            if add_status_observer is not None:
                add_status_observer(
                    lambda up, s=switch, p=port: s.port_link_status(p, up)
                )
        else:
            host = self.hosts[device]
            host.attach(send)
            attach_receiver(host.frame_received)

    # ------------------------------------------------------------------ #
    # Control-plane wiring
    # ------------------------------------------------------------------ #

    def set_controller_target(
        self,
        switch_name: str,
        endpoint: ControlEndpoint,
        latency_s: float = DEFAULT_CONTROL_LATENCY,
    ) -> None:
        """Point a switch's (sole) control connection at ``endpoint``.

        The endpoint is a controller for a direct deployment, or the
        runtime injector's proxy when an attack is being injected.
        Replaces any previously registered targets; use
        :meth:`add_controller_target` for redundant multi-controller
        deployments.
        """
        if switch_name not in self.switches:
            raise KeyError(f"unknown switch {switch_name!r}")
        self._control_targets[switch_name] = {"default": (endpoint, latency_s)}
        switch = self.switches[switch_name]
        switch.set_connect_factory(self._make_dialer(switch_name, "default"))

    def add_controller_target(
        self,
        switch_name: str,
        endpoint: ControlEndpoint,
        latency_s: float = DEFAULT_CONTROL_LATENCY,
        target_name: str = None,
    ) -> None:
        """Register an additional controller connection for a switch.

        This realizes the system model's many-to-many N_C: "a switch can
        communicate with multiple controllers for redundancy or fault
        tolerance" (Section IV-A5).
        """
        if switch_name not in self.switches:
            raise KeyError(f"unknown switch {switch_name!r}")
        targets = self._control_targets.setdefault(switch_name, {})
        name = target_name or f"target-{len(targets)}"
        if name in targets:
            raise ValueError(f"target {name!r} already set for {switch_name!r}")
        targets[name] = (endpoint, latency_s)
        self.switches[switch_name].add_controller_target(
            name, self._make_dialer(switch_name, name)
        )

    def set_all_controller_targets(
        self,
        endpoint: ControlEndpoint,
        latency_s: float = DEFAULT_CONTROL_LATENCY,
    ) -> None:
        for switch_name in self.switches:
            self.set_controller_target(switch_name, endpoint, latency_s)

    def _make_dialer(
        self, switch_name: str, target_name: str
    ) -> Callable[[OpenFlowSwitch], Optional[ControlChannel]]:
        def dial(switch: OpenFlowSwitch) -> Optional[ControlChannel]:
            target = self._control_targets.get(switch_name, {}).get(target_name)
            if target is None:
                return None
            endpoint, latency_s = target
            chan_switch, _chan_target = connect_endpoints(
                self.engine,
                switch,
                endpoint,
                latency_s=latency_s,
                name=f"ctrl-{switch_name}-{target_name}",
            )
            return chan_switch

        return dial

    # ------------------------------------------------------------------ #
    # Lifecycle / access
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start all switches (begin dialing controllers and ticking)."""
        if self._started:
            return
        self._started = True
        for switch in self.switches.values():
            switch.start()

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def switch(self, name: str) -> OpenFlowSwitch:
        return self.switches[name]

    def host_ip(self, name: str):
        return self.hosts[name].ip

    def all_connected(self) -> bool:
        """True when every switch completed its OpenFlow handshake."""
        return all(switch.connected for switch in self.switches.values())

    def total_stat(self, key: str) -> int:
        """Sum a named counter across all switches."""
        return sum(switch.stats.get(key, 0) for switch in self.switches.values())

    def __repr__(self) -> str:
        return (
            f"<Network hosts={len(self.hosts)} switches={len(self.switches)} "
            f"links={len(self.links)}>"
        )
