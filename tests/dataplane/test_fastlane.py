"""The packet fast lane: interning, key memoization, and invalidation."""

import pytest

from repro.netlib import (
    EtherType,
    EthernetFrame,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
)
from repro.netlib import fastframe
from repro.netlib.fastframe import FastFrame
from repro.openflow.actions import (
    OutputAction,
    SetDlDstAction,
    SetNwDstAction,
)
from repro.openflow.constants import Port
from repro.netlib.flowkey import extract_flow_key
from repro.openflow.match import Match
from repro.dataplane.switch import FailMode, OpenFlowSwitch
from repro.sim.engine import SimulationEngine
from tests.netlib import plain_frames
from tests.netlib.flowkey_reference import flow_key_reference

MAC_A = MacAddress("00:00:00:00:00:0a")
MAC_B = MacAddress("00:00:00:00:00:0b")
IP_A = Ipv4Address("10.0.0.10")
IP_B = Ipv4Address("10.0.0.11")


def tcp_frame(payload=b"x" * 64) -> bytes:
    segment = TcpSegment(40000, 5001, payload=payload)
    packet = Ipv4Packet(IP_A, IP_B, 6, segment.pack())
    return EthernetFrame(MAC_B, MAC_A, EtherType.IPV4, packet.pack()).pack()


class TestInterning:
    def test_identical_content_interns_to_one_object(self):
        pool = {}
        first, hit1 = fastframe.intern(tcp_frame(), pool)
        second, hit2 = fastframe.intern(tcp_frame(), pool)
        assert not hit1 and hit2
        assert first is second
        assert type(first) is FastFrame

    def test_interned_frame_passes_through_unchanged(self):
        pool = {}
        frame, _ = fastframe.intern(tcp_frame(), pool)
        again, hit = fastframe.intern(frame, pool)
        assert again is frame and not hit

    def test_intern_preserves_bytes_semantics(self):
        raw = tcp_frame()
        frame, _ = fastframe.intern(raw, {})
        assert frame == raw
        assert bytes(frame) == raw
        assert hash(frame) == hash(raw)
        assert len(frame) == len(raw)

    def test_pool_is_bounded(self):
        pool = {}
        for index in range(fastframe.POOL_MAX + 10):
            fastframe.intern(tcp_frame(payload=index.to_bytes(4, "big")), pool)
            assert len(pool) <= fastframe.POOL_MAX
        assert len(pool) == 10  # emptied once, at the full pool's next add


@pytest.fixture
def parses(monkeypatch):
    """The parses ``flow_key`` makes, by extractor name: the calls the
    benchmark's ``netlib.decodes`` counts."""
    calls = []
    for name in ("extract_flow_base", "extract_flow_key"):
        def counted(*args, _real=getattr(fastframe, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(fastframe, name, counted)
    return calls


class TestFlowKeyMemoization:
    def test_key_computed_once_per_port(self, parses):
        frame, _ = fastframe.intern(tcp_frame(), {})
        key1 = fastframe.flow_key(frame, 1)
        assert parses == ["extract_flow_base"]
        key2 = fastframe.flow_key(frame, 1)
        assert parses == ["extract_flow_base"]
        assert key2 is key1  # the same tuple, not a re-parse

    def test_key_matches_plain_extraction(self):
        raw = tcp_frame()
        frame, _ = fastframe.intern(raw, {})
        key = fastframe.flow_key(frame, 3)
        assert key == extract_flow_key(raw, 3)
        assert key == flow_key_reference(raw, 3)

    def test_distinct_ports_get_distinct_keys(self, parses):
        frame, _ = fastframe.intern(tcp_frame(), {})
        key1 = fastframe.flow_key(frame, 1)
        key2 = fastframe.flow_key(frame, 2)
        # A second port builds its own key from the memoized base.
        assert key2 is not key1
        assert parses == ["extract_flow_base"]
        assert key1[0] == 1 and key2[0] == 2
        assert key1[1:] == key2[1:] == frame._base

    def test_memoized_tuple_equals_field_tuple(self):
        frame, _ = fastframe.intern(tcp_frame(), {})
        key = fastframe.flow_key(frame, 7)
        assert frame._by_port == {7: key}
        assert key == flow_key_reference(bytes(frame), 7)

    def test_plain_bytes_bypass_the_cache(self, parses):
        raw = tcp_frame()
        key = fastframe.flow_key(raw, 1)
        assert fastframe.flow_key(raw, 1) is not key
        assert parses == ["extract_flow_key"] * 2
        assert not hasattr(raw, "_by_port")


class TestDeriveFrame:
    def test_set_dl_dst_replaces_only_that_field(self):
        parent, _ = fastframe.intern(tcp_frame(), {})
        parent_key = fastframe.flow_key(parent, 1)
        new_mac = MacAddress("00:00:00:00:00:99")
        frame = EthernetFrame.unpack(parent)
        frame.dst = new_mac
        derived = fastframe.derive_frame(frame.pack(), parent, "dl_dst", int(new_mac))
        derived_key = fastframe.flow_key(derived, 1)
        # The derived key equals a from-scratch extraction of the new bytes.
        assert derived_key == extract_flow_key(bytes(derived), 1)
        assert Match.from_key(derived_key).dl_dst == new_mac
        assert derived_key[1] == parent_key[1]  # dl_src

    def test_unparsed_parent_passes_through(self):
        parent, _ = fastframe.intern(tcp_frame(), {})  # key never computed
        derived = fastframe.derive_frame(b"\x00" * 60, parent, "dl_dst", int(MAC_A))
        assert type(derived) is bytes


def make_switch(fail_mode=FailMode.SECURE):
    engine = SimulationEngine()
    switch = OpenFlowSwitch(engine, "s1", 1, fail_mode=fail_mode)
    received = {1: [], 2: []}
    switch.attach_port(1, received[1].append)
    switch.attach_port(2, received[2].append)
    return engine, switch, received


class TestSwitchFastLane:
    def install(self, switch, raw, in_port=1, out_port=2, actions=None):
        match = Match.from_packet(raw, in_port)
        from repro.openflow.messages import FlowMod

        flow_mod = FlowMod(match, actions=actions or [OutputAction(out_port)])
        switch.flow_table.apply_flow_mod(flow_mod, switch.engine.now)

    def test_repeat_frames_hit_the_key_cache(self, parses):
        engine, switch, received = make_switch()
        raw = tcp_frame()
        self.install(switch, raw)
        del parses[:]  # Match.from_packet's own extraction
        for _ in range(5):
            switch.frame_received(1, raw)
        assert len(received[2]) == 5
        # One parse; the other four arrivals read the memoized key.
        assert parses == ["extract_flow_base"]
        assert switch.stats["frames_interned"] == 4
        # Delivered bytes are exactly the sent bytes.
        assert all(frame == raw for frame in received[2])

    def test_stats_counters_exist_in_snapshot(self):
        _, switch, _ = make_switch()
        assert "frames_interned" in switch.stats
        assert "rx_no_lookup" in switch.stats
        # A table hit writes no switch counter (tests/dataplane/test_hop_counters.py).
        for key in ("rx_frames", "tx_frames", "flow_matches",
                    "flowkey_cache_hits"):
            assert key not in switch.stats

    def test_set_field_actions_deliver_rewritten_bytes(self):
        engine, switch, received = make_switch()
        raw = tcp_frame()
        new_mac = MacAddress("00:00:00:00:00:42")
        new_ip = Ipv4Address("10.9.9.9")
        self.install(
            switch, raw,
            actions=[SetDlDstAction(new_mac), SetNwDstAction(new_ip),
                     OutputAction(2)],
        )
        switch.frame_received(1, raw)
        (delivered,) = received[2]
        match = Match.from_packet(bytes(delivered), 1)
        assert match.dl_dst == new_mac
        assert match.nw_dst == new_ip
        assert match.tp_src == 40000  # L4 untouched
        # And the carried (derived) key agrees with the bytes.
        assert fastframe.flow_key(delivered, 1) == match.key

    def test_standalone_forwarding_learns_from_mac_pair(self):
        engine, switch, received = make_switch(fail_mode=FailMode.STANDALONE)
        switch.standalone_active = True
        raw = tcp_frame()
        switch.frame_received(1, raw)  # unknown dst: flooded out 2
        assert received[2] == [raw]
        # Runt frames are silently dropped, as EthernetFrame.unpack was.
        switch.frame_received(1, b"\x00" * 8)
        assert received[2] == [raw]

    def test_fast_lane_off_produces_identical_forwarding(self, monkeypatch):
        raw = tcp_frame()
        outputs = {}
        for plain in (False, True):
            with monkeypatch.context() as patch:
                if plain:
                    plain_frames.apply(patch)
                engine, switch, received = make_switch()
                self.install(switch, raw)
                for _ in range(3):
                    switch.frame_received(1, raw)
            outputs[plain] = received[2]
            assert switch.flow_table.matched == 3
        assert all(type(f) is FastFrame for f in outputs[False])
        assert all(type(f) is bytes for f in outputs[True])
        assert outputs[True] == outputs[False]
