"""The system model (Section IV-A): C, S, H, N_D, and N_C.

``SystemModel`` is the formal structure the compiler parses and the
injector consults; it can be built programmatically, from a
:class:`repro.dataplane.topology.Topology`, or from the system-model XML
file (see :mod:`repro.core.compiler.system_parser`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.netlib.addresses import Ipv4Address, MacAddress

ConnectionKey = Tuple[str, str]


class SystemModelError(Exception):
    """Raised when a system model violates the Section IV-A assumptions."""


@dataclass(frozen=True)
class ControllerSpec:
    """A controller c_i ∈ C."""

    name: str
    address: str = ""


@dataclass(frozen=True)
class SwitchSpec:
    """A switch s_i ∈ S with its port set P_i."""

    name: str
    datapath_id: int
    ports: Tuple[int, ...] = ()


@dataclass(frozen=True)
class HostSpec:
    """An end host h_i ∈ H."""

    name: str
    mac: Optional[MacAddress] = None
    ip: Optional[Ipv4Address] = None


@dataclass(frozen=True)
class ControlConnection:
    """An element of N_C ⊆ C × S (a controller-switch TCP connection)."""

    controller: str
    switch: str

    @property
    def key(self) -> ConnectionKey:
        return (self.controller, self.switch)

    def __str__(self) -> str:
        return f"({self.controller}, {self.switch})"


@dataclass(frozen=True)
class DataPlaneEdge:
    """A directed edge of N_D with its (ingress, egress) port attribute."""

    src: str
    dst: str
    src_port: Optional[int]  # NULL for host interfaces
    dst_port: Optional[int]


class SystemModel:
    """The complete system model: components plus N_D and N_C."""

    def __init__(
        self,
        controllers: Iterable[ControllerSpec],
        switches: Iterable[SwitchSpec],
        hosts: Iterable[HostSpec],
        data_plane_edges: Iterable[DataPlaneEdge] = (),
        control_connections: Iterable[ControlConnection] = (),
    ) -> None:
        self.controllers: Dict[str, ControllerSpec] = {c.name: c for c in controllers}
        self.switches: Dict[str, SwitchSpec] = {s.name: s for s in switches}
        self.hosts: Dict[str, HostSpec] = {h.name: h for h in hosts}
        self.data_plane_edges: List[DataPlaneEdge] = list(data_plane_edges)
        self.control_connections: List[ControlConnection] = list(control_connections)
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation (Section IV-A assumptions)
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        if len(self.controllers) < 1:
            raise SystemModelError("a functional SDN network requires |C| >= 1")
        if len(self.switches) < 1:
            raise SystemModelError("a functional SDN network requires |S| >= 1")
        if len(self.hosts) < 2:
            raise SystemModelError("a functional SDN network requires |H| >= 2")
        names = set(self.controllers) | set(self.switches) | set(self.hosts)
        if len(names) != len(self.controllers) + len(self.switches) + len(self.hosts):
            raise SystemModelError("controller/switch/host names must be disjoint")
        vertices = self.data_plane_vertices()
        for edge in self.data_plane_edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in vertices:
                    raise SystemModelError(
                        f"data-plane edge endpoint {endpoint!r} is not in V_ND "
                        "(switches and hosts only)"
                    )
            if edge.src in self.hosts and edge.src_port is not None:
                raise SystemModelError(
                    f"host {edge.src!r} must have a NULL egress port"
                )
        seen: Set[ConnectionKey] = set()
        for connection in self.control_connections:
            if connection.controller not in self.controllers:
                raise SystemModelError(
                    f"control connection references unknown controller "
                    f"{connection.controller!r}"
                )
            if connection.switch not in self.switches:
                raise SystemModelError(
                    f"control connection references unknown switch "
                    f"{connection.switch!r}"
                )
            if connection.key in seen:
                raise SystemModelError(f"duplicate control connection {connection}")
            seen.add(connection.key)

    # ------------------------------------------------------------------ #
    # N_D / N_C views
    # ------------------------------------------------------------------ #

    def data_plane_vertices(self) -> FrozenSet[str]:
        """V_ND = S ∪ H."""
        return frozenset(self.switches) | frozenset(self.hosts)

    def connection_keys(self) -> List[ConnectionKey]:
        return [connection.key for connection in self.control_connections]

    def neighbors(self, device: str) -> List[str]:
        """Data-plane neighbours of a device (for reachability analyses)."""
        result = []
        for edge in self.data_plane_edges:
            if edge.src == device:
                result.append(edge.dst)
        return sorted(set(result))

    # ------------------------------------------------------------------ #
    # Scalability accounting (Section VI-D1)
    # ------------------------------------------------------------------ #

    def memory_cells(self) -> Dict[str, int]:
        """Abstract memory-cell counts used by the scalability benchmark.

        N_D stores |S|+|H| vertices, |E| edges, and 2|E| port attributes;
        N_C stores up to |C|×|S| relations.
        """
        edge_count = len(self.data_plane_edges)
        return {
            "nd_vertices": len(self.switches) + len(self.hosts),
            "nd_edges": edge_count,
            "nd_attributes": 2 * edge_count,
            "nc_relations": len(self.control_connections),
        }

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_topology(
        cls,
        topology,
        controllers: Iterable[str],
        control_connections: Optional[Iterable[ConnectionKey]] = None,
    ) -> "SystemModel":
        """Derive a SystemModel from a dataplane Topology.

        By default every controller connects to every switch (the
        fully-connected worst case of Section VI-D1); pass explicit
        ``control_connections`` to restrict it.
        """
        controller_specs = [ControllerSpec(name) for name in controllers]
        switch_specs = [
            SwitchSpec(
                spec.name,
                spec.datapath_id,
                tuple(topology.switch_ports(spec.name)),
            )
            for spec in topology.switches.values()
        ]
        host_specs = [
            HostSpec(spec.name, spec.mac, spec.ip) for spec in topology.hosts.values()
        ]
        graph = topology.data_plane_graph()
        edges = [
            DataPlaneEdge(src, dst, *graph["attributes"][(src, dst)])
            for (src, dst) in sorted(graph["edges"])
        ]
        if control_connections is None:
            connections = [
                ControlConnection(controller, switch)
                for controller in sorted(c.name for c in controller_specs)
                for switch in sorted(s.name for s in switch_specs)
            ]
        else:
            connections = [ControlConnection(c, s) for (c, s) in control_connections]
        return cls(controller_specs, switch_specs, host_specs, edges, connections)

    def host_ip(self, name: str) -> Ipv4Address:
        host = self.hosts.get(name)
        if host is None or host.ip is None:
            raise KeyError(f"host {name!r} has no IP in the system model")
        return host.ip

    def __repr__(self) -> str:
        return (
            f"<SystemModel |C|={len(self.controllers)} |S|={len(self.switches)} "
            f"|H|={len(self.hosts)} |N_C|={len(self.control_connections)}>"
        )
