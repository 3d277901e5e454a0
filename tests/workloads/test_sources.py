"""Traffic sources: registry, stream determinism, source semantics."""

import pytest

from repro.dataplane.fabrics import generate_fabric
from repro.openflow.match import Match
from repro.workloads import (
    build_source,
    list_sources,
    register_source,
    source_info,
    source_names,
)
from repro.workloads.sources import (
    FLOOD_UDP_PORT,
    OVERFLOW_PORT_BASE,
)

BUILTINS = ("arp-poison", "benign-mix", "packetin-flood", "table-overflow")


def _fabric():
    return generate_fabric("fat-tree-k4").topology


def _stream(source, n=200):
    """The first ``n`` frames of every emitter, as bytes."""
    return {
        emitter.host: [bytes(emitter.next_frame()) for _ in range(n)]
        for emitter in source.emitters
    }


def test_builtin_sources_are_registered():
    assert tuple(source_names()) == BUILTINS
    listed = {entry["name"]: entry for entry in list_sources()}
    assert listed["packetin-flood"]["needs_controller"] is True
    assert listed["table-overflow"]["needs_controller"] is True
    assert listed["benign-mix"]["needs_controller"] is False


def test_unknown_source_name_raises():
    with pytest.raises(KeyError, match="unknown traffic source"):
        source_info("syn-cookie-storm")


def test_duplicate_registration_raises():
    with pytest.raises(ValueError, match="already registered"):
        register_source("benign-mix")(lambda topo, seed, params: None)


@pytest.mark.parametrize("name", BUILTINS)
def test_same_seed_and_params_give_byte_identical_streams(name):
    topo = _fabric()
    params = {"senders": 4, "duration_s": 0.5}
    first = _stream(build_source(name, topo, seed=42, params=params))
    second = _stream(build_source(name, topo, seed=42, params=params))
    assert first == second


def test_different_seeds_diverge_for_randomized_sources():
    topo = _fabric()
    a = _stream(build_source("packetin-flood", topo, 1, {"senders": 2}))
    b = _stream(build_source("packetin-flood", topo, 2, {"senders": 2}))
    assert a != b


def test_a_hosts_stream_is_independent_of_the_sender_set():
    # Shard regions build the full source and keep only their hosts, so
    # host streams must not depend on which other senders exist.
    topo = _fabric()
    wide = _stream(build_source("benign-mix", topo, 7, {"senders": 6}))
    narrow = _stream(build_source("benign-mix", topo, 7, {"senders": 2}))
    for host, frames in narrow.items():
        assert wide[host] == frames


def test_packetin_flood_spoofs_a_fresh_mac_per_packet():
    topo = _fabric()
    source = build_source("packetin-flood", topo, 3, {"senders": 1})
    frames = _stream(source, n=100)[source.emitters[0].host]
    macs = {Match.from_packet(f, 0).dl_src for f in frames}
    assert len(macs) == 100
    for mac in macs:
        assert int(mac) >> 40 == 0x02  # locally administered unicast


def test_packetin_flood_mac_pool_cycles():
    topo = _fabric()
    source = build_source("packetin-flood", topo, 3,
                          {"senders": 1, "spoof_macs": 8})
    frames = _stream(source, n=64)[source.emitters[0].host]
    macs = [Match.from_packet(f, 0).dl_src for f in frames]
    assert len(set(macs)) == 8
    assert macs[:8] == macs[8:16]


def test_table_overflow_sweeps_distinct_keys_cyclically():
    topo = _fabric()
    source = build_source("table-overflow", topo, 0,
                          {"senders": 1, "keys": 16})
    frames = _stream(source, n=40)[source.emitters[0].host]
    ports = [Match.from_packet(f, 0).tp_src for f in frames]
    assert ports[:16] == [OVERFLOW_PORT_BASE + i for i in range(16)]
    assert ports[16:32] == ports[:16]
    assert all(Match.from_packet(f, 0).tp_dst == FLOOD_UDP_PORT + 1
               for f in frames)


def test_table_overflow_validates_keys():
    with pytest.raises(ValueError, match="keys"):
        build_source("table-overflow", _fabric(), 0, {"keys": 0})


def test_arp_poison_claims_the_impersonated_ip_at_the_attacker_mac():
    topo = _fabric()
    source = build_source("arp-poison", topo, 5, {"senders": 2})
    hosts = sorted(topo.hosts)
    half = len(hosts) // 2
    attacker = topo.hosts[hosts[0]]
    impersonated = topo.hosts[hosts[half]]
    frames = _stream(source, n=6)[hosts[0]]
    for frame in frames:
        match = Match.from_packet(frame, 0)
        assert match.dl_src == attacker.mac
        assert match.nw_src == impersonated.ip  # the poisoned mapping
        assert match.dl_dst != impersonated.mac


def test_arp_poison_needs_two_pairs():
    with pytest.raises(ValueError, match="senders"):
        build_source("arp-poison", _fabric(), 0, {"senders": 1})
