"""Generated datacenter fabrics: fat-tree, leaf-spine, and Waxman graphs.

The paper's evaluation stops at a 4-switch enterprise network; the
scale-out direction needs topologies with hundreds of switches and
thousands of hosts.  Every generator returns a :class:`Fabric`: a fully
validated :class:`~repro.dataplane.topology.Topology` plus the natural
partition groups the sharded simulation core uses as min-cut hints
(pods of a fat-tree, leaves of a leaf-spine).

Determinism contract: a fabric is a pure function of its name string.
``generate_fabric("fat-tree-k4")`` builds the identical topology in every
process, so sharded workers can rebuild their regions from the name alone
instead of pickling device graphs across the pool.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataplane.topology import Topology, TopologyError
from repro.netlib.addresses import MacAddress
from repro.sim.rng import SeededRng

#: Fabric link parameters.  Inter-switch latency doubles as the sharding
#: lookahead: cross-region frames are exchanged at barriers one link
#: latency apart, so the epoch grid is exactly this coarse.
FABRIC_BANDWIDTH = 1e9
FABRIC_LINK_LATENCY = 0.001
HOST_LINK_LATENCY = 0.0005
#: Switch-to-controller latency on generated fabrics.  Kept equal to the
#: inter-switch latency so control channels never shrink the sharding
#: lookahead below the fabric's epoch grid.
FABRIC_CONTROL_LATENCY = 0.001


@dataclass(frozen=True)
class Fabric:
    """A generated topology plus its natural sharding groups."""

    name: str
    topology: Topology
    #: Partition hints: tuples of switch names that belong together
    #: (a fat-tree pod, a leaf-spine leaf).  Hosts follow their switch.
    groups: Tuple[Tuple[str, ...], ...]

    @property
    def switch_count(self) -> int:
        return len(self.topology.switches)

    @property
    def host_count(self) -> int:
        return len(self.topology.hosts)


def _host_ip(index: int) -> str:
    """A unique 10/8 address for host ``index`` (0-based).

    ``add_host``'s default of ``10.0.0.{n}`` exhausts one octet at 254
    hosts; fabrics need thousands.
    """
    if index >= 250 * 250:
        raise TopologyError(f"fabric too large: host index {index}")
    return f"10.{100 + index // 250}.{index % 250 + 1}.1"


# --------------------------------------------------------------------- #
# Fat-tree (Al-Fares et al.): k pods, 5k^2/4 switches, k^3/4 hosts
# --------------------------------------------------------------------- #

def fat_tree(k: int) -> Fabric:
    """A k-ary fat-tree: k pods of k/2 edge + k/2 aggregation switches,
    (k/2)^2 core switches, and k/2 hosts per edge switch.

    ``k`` must be even and between 4 and 16 (k=16 already means 320
    switches and 1024 hosts).  Pods are the natural sharding groups; each
    core row (the k/2 switches a given aggregation index uplinks to)
    forms a group of its own, since core switches share no links.
    """
    if k % 2 != 0 or not 4 <= k <= 16:
        raise TopologyError(f"fat-tree k must be even and in 4..16, got {k}")
    half = k // 2
    topo = Topology(name=f"fat-tree-k{k}")
    groups: List[Tuple[str, ...]] = []

    core = [
        [f"cs{i:02d}x{j:02d}" for j in range(half)] for i in range(half)
    ]
    for row in core:
        for name in row:
            topo.add_switch(name)
        # Core switches never link to each other, so each core row is its
        # own sharding group: splitting them adds zero cut links while
        # spreading the cross-pod transit work (every inter-pod packet
        # crosses the core) over multiple regions instead of serializing
        # it in one.
        groups.append(tuple(row))

    host_index = 0
    for p in range(k):
        edges = [f"p{p:02d}e{i:02d}" for i in range(half)]
        aggs = [f"p{p:02d}a{i:02d}" for i in range(half)]
        for name in edges + aggs:
            topo.add_switch(name)
        groups.append(tuple(edges + aggs))
        # Full bipartite edge<->agg inside the pod.
        for edge in edges:
            for agg in aggs:
                topo.add_link(edge, agg, FABRIC_BANDWIDTH, FABRIC_LINK_LATENCY)
        # Aggregation switch i uplinks to core row i.
        for i, agg in enumerate(aggs):
            for j in range(half):
                topo.add_link(agg, core[i][j], FABRIC_BANDWIDTH,
                              FABRIC_LINK_LATENCY)
        # k/2 hosts per edge switch, addressed 10.pod.edge-style via the
        # flat host index (explicit MAC keeps addresses unique past the
        # 254-host default ceiling).
        for i, edge in enumerate(edges):
            for j in range(half):
                name = f"p{p:02d}e{i:02d}h{j:02d}"
                topo.add_host(
                    name,
                    mac=str(MacAddress((1 << 24) | (p << 16) | (i << 8) | j)),
                    ip=_host_ip(host_index),
                )
                host_index += 1
                topo.add_link(name, edge, FABRIC_BANDWIDTH, HOST_LINK_LATENCY)

    topo.validate()
    return Fabric(topo.name, topo, tuple(groups))


# --------------------------------------------------------------------- #
# Leaf-spine
# --------------------------------------------------------------------- #

def leaf_spine(leaves: int, spines: int, hosts_per_leaf: int = 4) -> Fabric:
    """A two-tier leaf-spine fabric: every leaf connects to every spine.

    Each leaf (with its hosts) is a sharding group; the spines form one
    group of their own.
    """
    if leaves < 2 or spines < 1 or hosts_per_leaf < 1:
        raise TopologyError(
            f"leaf-spine needs >=2 leaves, >=1 spine, >=1 host/leaf "
            f"(got {leaves}x{spines}x{hosts_per_leaf})"
        )
    topo = Topology(name=f"leaf-spine-{leaves}x{spines}")
    spine_names = [f"sp{i:03d}" for i in range(spines)]
    for name in spine_names:
        topo.add_switch(name)
    groups: List[Tuple[str, ...]] = [tuple(spine_names)]
    host_index = 0
    for l in range(leaves):
        leaf = f"lf{l:03d}"
        topo.add_switch(leaf)
        groups.append((leaf,))
        for spine in spine_names:
            topo.add_link(leaf, spine, FABRIC_BANDWIDTH, FABRIC_LINK_LATENCY)
        for h in range(hosts_per_leaf):
            name = f"lf{l:03d}h{h:02d}"
            topo.add_host(
                name,
                mac=str(MacAddress((2 << 24) | (l << 8) | h)),
                ip=_host_ip(host_index),
            )
            host_index += 1
            topo.add_link(name, leaf, FABRIC_BANDWIDTH, HOST_LINK_LATENCY)
    topo.validate()
    return Fabric(topo.name, topo, tuple(groups))


# --------------------------------------------------------------------- #
# Waxman random graph
# --------------------------------------------------------------------- #

def waxman(
    switches: int,
    hosts: int,
    seed: int = 0,
    alpha: float = 0.4,
    beta: float = 0.4,
) -> Fabric:
    """A seeded Waxman random graph over switches on the unit square.

    Edge probability is ``alpha * exp(-d / (beta * sqrt(2)))`` for
    inter-switch distance ``d``; a deterministic chain over the placement
    order guarantees connectivity.  Hosts attach round-robin.  The same
    ``(switches, hosts, seed, alpha, beta)`` always yields the same graph.
    """
    if switches < 2 or hosts < 2:
        raise TopologyError(
            f"waxman needs >=2 switches and >=2 hosts (got {switches}, {hosts})"
        )
    rng = SeededRng(seed).child(f"waxman-{switches}-{hosts}")
    topo = Topology(name=f"waxman-s{switches}-h{hosts}-seed{seed}")
    names = [f"w{i:03d}" for i in range(switches)]
    points = {}
    for name in names:
        topo.add_switch(name)
        points[name] = (rng.random(), rng.random())
    scale = beta * math.sqrt(2.0)
    linked = set()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ax, ay = points[a]
            bx, by = points[b]
            d = math.hypot(ax - bx, ay - by)
            if rng.random() < alpha * math.exp(-d / scale):
                topo.add_link(a, b, FABRIC_BANDWIDTH, FABRIC_LINK_LATENCY)
                linked.add(frozenset((a, b)))
    # Connectivity backstop: chain consecutive switches that the random
    # pass left unlinked.
    for a, b in zip(names, names[1:]):
        if frozenset((a, b)) not in linked:
            topo.add_link(a, b, FABRIC_BANDWIDTH, FABRIC_LINK_LATENCY)
    for h in range(hosts):
        name = f"wh{h:04d}"
        topo.add_host(
            name,
            mac=str(MacAddress((3 << 24) | h)),
            ip=_host_ip(h),
        )
        topo.add_link(name, names[h % switches], FABRIC_BANDWIDTH,
                      HOST_LINK_LATENCY)
    topo.validate()
    # No structural groups: the sharder falls back to BFS region growing.
    return Fabric(topo.name, topo, ())


# --------------------------------------------------------------------- #
# Name-based construction (CLI / campaign descriptors)
# --------------------------------------------------------------------- #

_FAT_TREE_RE = re.compile(r"^fat-tree-k(\d+)$")
_LEAF_SPINE_RE = re.compile(r"^leaf-spine-(\d+)x(\d+)(?:x(\d+))?$")
_WAXMAN_RE = re.compile(r"^waxman-s(\d+)-h(\d+)(?:-seed(\d+))?$")


def is_fabric_name(name: str) -> bool:
    """True when ``name`` parses as a *buildable* fabric descriptor.

    Checks the generator parameter ranges too (``fat-tree-k5`` parses
    but cannot be built), without constructing the topology.
    """
    match = _FAT_TREE_RE.match(name)
    if match:
        k = int(match.group(1))
        return k % 2 == 0 and 4 <= k <= 16
    match = _LEAF_SPINE_RE.match(name)
    if match:
        return (int(match.group(1)) >= 2 and int(match.group(2)) >= 1
                and int(match.group(3) or 4) >= 1)
    match = _WAXMAN_RE.match(name)
    if match:
        return int(match.group(1)) >= 2 and int(match.group(2)) >= 2
    return False


def generate_fabric(name: str) -> Fabric:
    """Build the fabric a descriptor names.

    Recognized forms: ``fat-tree-k{k}``, ``leaf-spine-{L}x{S}[x{H}]``,
    ``waxman-s{S}-h{H}[-seed{N}]``.
    """
    match = _FAT_TREE_RE.match(name)
    if match:
        return fat_tree(int(match.group(1)))
    match = _LEAF_SPINE_RE.match(name)
    if match:
        leaves, spines, hosts = match.group(1), match.group(2), match.group(3)
        return leaf_spine(int(leaves), int(spines),
                          int(hosts) if hosts else 4)
    match = _WAXMAN_RE.match(name)
    if match:
        return waxman(int(match.group(1)), int(match.group(2)),
                      seed=int(match.group(3) or 0))
    raise TopologyError(
        f"unknown fabric {name!r}; expected fat-tree-k<k>, "
        f"leaf-spine-<L>x<S>[x<H>], or waxman-s<S>-h<H>[-seed<N>]"
    )


# --------------------------------------------------------------------- #
# Region partitioning
# --------------------------------------------------------------------- #

def switch_adjacency(topo: Topology) -> Dict[str, List[str]]:
    """``switch -> its switch neighbours``, sorted (hosts left out)."""
    adjacency: Dict[str, List[str]] = {name: [] for name in topo.switches}
    for link in topo.links:
        if link.a in topo.switches and link.b in topo.switches:
            adjacency[link.a].append(link.b)
            adjacency[link.b].append(link.a)
    for neighbors in adjacency.values():
        neighbors.sort()
    return adjacency


def _bfs_regions(topo: Topology, regions: int) -> List[List[str]]:
    """Greedy balanced multi-source BFS over the switch graph.

    Seeds are chosen farthest-point-first (deterministic: ties break on
    name), then regions grow breadth-first one switch at a time, always
    extending the currently smallest region — a cheap approximation of a
    balanced min-cut partition.
    """
    adjacency = switch_adjacency(topo)
    names = sorted(adjacency)
    seeds = [names[0]]
    while len(seeds) < regions:
        # BFS distance from the existing seed set.
        distance = {seed: 0 for seed in seeds}
        frontier = list(seeds)
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor not in distance:
                        distance[neighbor] = distance[node] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        farthest = max(names, key=lambda n: (distance.get(n, 0), n))
        if farthest in seeds:
            break
        seeds.append(farthest)
    assignment = {seed: rid for rid, seed in enumerate(seeds)}
    frontiers: List[List[str]] = [[seed] for seed in seeds]
    sizes = [1] * len(seeds)
    while any(frontiers):
        # Grow the smallest region that still has a frontier.
        rid = min(
            (r for r in range(len(seeds)) if frontiers[r]),
            key=lambda r: (sizes[r], r),
        )
        node = frontiers[rid].pop(0)
        for neighbor in adjacency[node]:
            if neighbor not in assignment:
                assignment[neighbor] = rid
                sizes[rid] += 1
                frontiers[rid].append(neighbor)
    # Disconnected leftovers (cannot happen on generated fabrics, but be
    # total): assign to the smallest region.
    for name in names:
        if name not in assignment:
            rid = sizes.index(min(sizes))
            assignment[name] = rid
            sizes[rid] += 1
    result: List[List[str]] = [[] for _ in seeds]
    for name in names:
        result[assignment[name]].append(name)
    return [sorted(region) for region in result if region]


def partition_topology(
    topo: Topology,
    regions: int,
    groups: Optional[Sequence[Sequence[str]]] = None,
) -> List[List[str]]:
    """Partition a topology into ``regions`` device groups for sharding.

    Returns a list of device-name lists (switches plus their attached
    hosts), one per region, sorted for determinism.  The partition is a
    pure function of ``(topology, regions, groups)`` — crucially it does
    NOT depend on how many worker processes later execute the regions,
    which is what makes sharded runs byte-identical for any worker count.

    With ``groups`` (generator hints: pods, leaves) the groups are packed
    into at most ``regions`` bins largest-first onto the lightest bin;
    without hints a balanced BFS growth over the switch graph approximates
    a min-cut split.
    """
    if regions < 1:
        raise TopologyError(f"regions must be >= 1, got {regions}")
    switch_regions: List[List[str]]
    if groups:
        ordered = sorted(
            (tuple(group) for group in groups),
            key=lambda g: (-len(g), g),
        )
        bins = min(regions, len(ordered))
        packed: List[List[str]] = [[] for _ in range(bins)]
        for group in ordered:
            lightest = min(range(bins), key=lambda b: (len(packed[b]), b))
            packed[lightest].extend(group)
        switch_regions = [sorted(b) for b in packed]
    elif regions == 1:
        switch_regions = [sorted(topo.switches)]
    else:
        switch_regions = _bfs_regions(topo, regions)

    owner: Dict[str, int] = {}
    for rid, switch_names in enumerate(switch_regions):
        for name in switch_names:
            owner[name] = rid
    result = [list(names) for names in switch_regions]
    # Hosts are co-located with their (single) attached switch, so host
    # links never cross a region boundary.
    for link in topo.links:
        for host, peer in ((link.a, link.b), (link.b, link.a)):
            if host in topo.hosts and peer in owner:
                result[owner[peer]].append(host)
    return [sorted(devices) for devices in result]


def cut_links(topo: Topology, partition: Sequence[Sequence[str]]) -> int:
    """Count the links crossing region boundaries (the shard cut size)."""
    owner = {
        name: rid
        for rid, devices in enumerate(partition)
        for name in devices
    }
    return sum(
        1
        for link in topo.links
        if owner.get(link.a) != owner.get(link.b)
    )
