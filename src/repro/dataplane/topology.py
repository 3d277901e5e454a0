"""Topology description: the concrete realization of the paper's N_D graph.

A :class:`Topology` is a declarative description (names, addresses, links);
:class:`repro.dataplane.network.Network` instantiates it into simulated
devices.  :meth:`Topology.data_plane_graph` exports the formal
``N_D = (V, E, A)`` structure consumed by :mod:`repro.core.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.netlib.addresses import Ipv4Address, MacAddress


class TopologyError(Exception):
    """Raised for inconsistent topology declarations."""


@dataclass(frozen=True)
class HostSpec:
    """A declared end host (h_i in the system model)."""

    name: str
    mac: MacAddress
    ip: Ipv4Address


@dataclass(frozen=True)
class SwitchSpec:
    """A declared OpenFlow switch (s_i in the system model)."""

    name: str
    datapath_id: int


@dataclass(frozen=True)
class LinkSpec:
    """A declared bidirectional link between two attachment points.

    ``a``/``b`` are device names; ``a_port``/``b_port`` are switch port
    numbers (``None`` for host endpoints, which have a single interface —
    the NULL ingress ports of Figure 3).
    """

    a: str
    a_port: Optional[int]
    b: str
    b_port: Optional[int]
    bandwidth_bps: float
    latency_s: float


Endpoint = Union[str, Tuple[str, int]]


class Topology:
    """Mutable builder + validated container for a network topology."""

    DEFAULT_BANDWIDTH = 100e6  # the paper's 100 Mbps GENI links
    DEFAULT_LATENCY = 0.0002

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.hosts: Dict[str, HostSpec] = {}
        self.switches: Dict[str, SwitchSpec] = {}
        self.links: List[LinkSpec] = []
        self._next_port: Dict[str, int] = {}
        self._used_ports: Dict[str, set] = {}
        self._link_pairs: set = set()
        self._linked_hosts: set = set()

    # ------------------------------------------------------------------ #
    # Declaration
    # ------------------------------------------------------------------ #

    def add_host(
        self,
        name: str,
        mac: Optional[str] = None,
        ip: Optional[str] = None,
    ) -> HostSpec:
        """Declare an end host; MAC/IP default to values derived from order."""
        self._check_fresh(name)
        index = len(self.hosts) + 1
        host = HostSpec(
            name=name,
            mac=MacAddress(mac) if mac else MacAddress(index),
            ip=Ipv4Address(ip) if ip else Ipv4Address(f"10.0.0.{index}"),
        )
        self.hosts[name] = host
        return host

    def add_switch(self, name: str, datapath_id: Optional[int] = None) -> SwitchSpec:
        """Declare an OpenFlow switch; datapath id defaults to order."""
        self._check_fresh(name)
        switch = SwitchSpec(
            name=name,
            datapath_id=datapath_id if datapath_id is not None else len(self.switches) + 1,
        )
        self.switches[name] = switch
        self._next_port[name] = 1
        self._used_ports[name] = set()
        return switch

    def add_link(
        self,
        a: Endpoint,
        b: Endpoint,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
        latency_s: float = DEFAULT_LATENCY,
    ) -> LinkSpec:
        """Declare a link; switch endpoints may name an explicit port."""
        a_name = a[0] if isinstance(a, tuple) else a
        b_name = b[0] if isinstance(b, tuple) else b
        if a_name == b_name:
            raise TopologyError(f"self-loop link on {a_name!r}")
        pair = frozenset((a_name, b_name))
        if pair in self._link_pairs:
            raise TopologyError(
                f"duplicate link between {a_name!r} and {b_name!r}"
            )
        for name in (a_name, b_name):
            if name in self._linked_hosts:
                raise TopologyError(
                    f"host {name!r} already has a link (hosts have a single interface)"
                )
        a_name, a_port = self._resolve_endpoint(a)
        b_name, b_port = self._resolve_endpoint(b)
        if bandwidth_bps <= 0:
            raise TopologyError(f"bandwidth must be positive, got {bandwidth_bps!r}")
        if latency_s < 0:
            raise TopologyError(f"latency must be non-negative, got {latency_s!r}")
        link = LinkSpec(a_name, a_port, b_name, b_port, bandwidth_bps, latency_s)
        self._link_pairs.add(pair)
        self._linked_hosts.update(name for name in (a_name, b_name)
                                  if name in self.hosts)
        self.links.append(link)
        return link

    def _resolve_endpoint(self, endpoint: Endpoint) -> Tuple[str, Optional[int]]:
        if isinstance(endpoint, tuple):
            name, port = endpoint
            if name not in self.switches:
                raise TopologyError(f"explicit port given for non-switch {name!r}")
            if port in self._used_ports[name]:
                raise TopologyError(f"port {port} on {name!r} already in use")
            self._used_ports[name].add(port)
            self._next_port[name] = max(self._next_port[name], port + 1)
            return name, port
        name = endpoint
        if name in self.switches:
            port = self._next_port[name]
            while port in self._used_ports[name]:
                port += 1
            self._used_ports[name].add(port)
            self._next_port[name] = port + 1
            return name, port
        if name in self.hosts:
            return name, None
        raise TopologyError(f"unknown device {name!r}")

    def _check_fresh(self, name: str) -> None:
        if name in self.hosts or name in self.switches:
            raise TopologyError(f"device name {name!r} already declared")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the system-model preconditions from Section IV-A.

        Besides the paper's minimum-size rules this re-checks every link
        record, so topologies assembled by appending ``LinkSpec`` entries
        directly (generators, loaders) fail fast with an error naming the
        offending node rather than failing obscurely at build time.
        """
        if len(self.switches) < 1:
            raise TopologyError("a functional SDN network needs at least one switch")
        if len(self.hosts) < 2:
            raise TopologyError("a functional SDN network needs at least two end hosts")
        seen_pairs: set = set()
        seen_ports: Dict[str, set] = {name: set() for name in self.switches}
        host_degree: Dict[str, int] = {name: 0 for name in self.hosts}
        for link in self.links:
            if link.a == link.b:
                raise TopologyError(f"self-loop link on {link.a!r}")
            pair = frozenset((link.a, link.b))
            if pair in seen_pairs:
                raise TopologyError(
                    f"duplicate link between {link.a!r} and {link.b!r}"
                )
            seen_pairs.add(pair)
            for name, port in ((link.a, link.a_port), (link.b, link.b_port)):
                if name in self.switches:
                    if port is None:
                        raise TopologyError(
                            f"switch endpoint {name!r} is missing a port number"
                        )
                    if port in seen_ports[name]:
                        raise TopologyError(
                            f"port {port} on switch {name!r} referenced by two links"
                        )
                    seen_ports[name].add(port)
                elif name in self.hosts:
                    if port is not None:
                        raise TopologyError(
                            f"host endpoint {name!r} carries a port number"
                        )
                    host_degree[name] += 1
                    if host_degree[name] > 1:
                        raise TopologyError(
                            f"host {name!r} has more than one link "
                            f"(hosts have a single interface)"
                        )
                else:
                    raise TopologyError(
                        f"link references unknown device {name!r}"
                    )
        attached = {link.a for link in self.links} | {link.b for link in self.links}
        for name in list(self.hosts) + list(self.switches):
            if name not in attached:
                raise TopologyError(f"device {name!r} has no links")

    def switch_names(self) -> List[str]:
        return sorted(self.switches)

    def switch_ports(self, switch: str) -> List[int]:
        """All declared port numbers on ``switch``, in order."""
        ports = []
        for link in self.links:
            if link.a == switch and link.a_port is not None:
                ports.append(link.a_port)
            if link.b == switch and link.b_port is not None:
                ports.append(link.b_port)
        return sorted(ports)

    def data_plane_graph(self) -> Dict[str, object]:
        """Export the formal N_D = (V_ND, E_ND, A_ND) of Section IV-A4.

        Vertices are device names, edges are directed pairs (both
        directions of each declared link), and attributes map each edge to
        its (ingress_port, egress_port) pair with ``None`` playing the role
        of NULL for host interfaces.
        """
        vertices = set(self.hosts) | set(self.switches)
        edges = set()
        attributes: Dict[Tuple[str, str], Tuple[Optional[int], Optional[int]]] = {}
        for link in self.links:
            edges.add((link.a, link.b))
            edges.add((link.b, link.a))
            attributes[(link.a, link.b)] = (link.a_port, link.b_port)
            attributes[(link.b, link.a)] = (link.b_port, link.a_port)
        return {"vertices": vertices, "edges": edges, "attributes": attributes}

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r} hosts={len(self.hosts)} "
            f"switches={len(self.switches)} links={len(self.links)}>"
        )
