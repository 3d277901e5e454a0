"""Compiled output actions vs. the action interpreter.

A flow entry compiles its action list when it is installed:
``FlowEntry.out`` is the port number when the list is exactly one OUTPUT
to a physical port, and a table hit transmits there without walking the
list.  The oracle is ``OpenFlowSwitch._execute_actions``, the general
interpreter, run on the same list: over lists of physical ports (the
ingress port among them), FLOOD, ALL, IN_PORT, CONTROLLER, NORMAL,
set-field actions and the empty list, an installed entry must send the
same bytes to the same ports.  MODIFY and MODIFY_STRICT re-target an
installed entry.

A buffered packet released by a PACKET_OUT or by a FLOW_MOD's
``buffer_id`` goes through the same compiled port.  Against the same
oracle, on a connected switch, each release must send the same bytes to
the same ports and the same PACKET_INs, in the same order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.switch import OpenFlowSwitch
from repro.netlib import (
    EtherType,
    EthernetFrame,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TcpSegment,
)
from repro.openflow.actions import (
    OutputAction,
    SetDlDstAction,
    SetDlSrcAction,
    SetNwDstAction,
    SetNwSrcAction,
    SetTpDstAction,
)
from repro.openflow.constants import FlowModCommand, Port
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketOut, parse_message
from repro.sim.engine import SimulationEngine

PORTS = (1, 2, 3, 4)
MAC_A = MacAddress("00:00:00:00:00:0a")
MAC_B = MacAddress("00:00:00:00:00:0b")
FRAME = EthernetFrame(
    MAC_B, MAC_A, EtherType.IPV4,
    Ipv4Packet(Ipv4Address("10.0.0.10"), Ipv4Address("10.0.0.11"), 6,
               TcpSegment(40000, 5001, payload=b"x" * 32).pack()).pack(),
).pack()

MACS = st.sampled_from([MAC_A, MAC_B, MacAddress("02:00:00:00:00:07")])
IPS = st.sampled_from([Ipv4Address("10.0.0.10"), Ipv4Address("192.168.1.1")])
ACTIONS = st.one_of(
    # Physical ports, one of them never attached.
    st.sampled_from(PORTS + (7,)).map(OutputAction),
    st.sampled_from([Port.FLOOD, Port.ALL, Port.IN_PORT, Port.CONTROLLER,
                     Port.NORMAL]).map(OutputAction),
    MACS.map(SetDlSrcAction),
    MACS.map(SetDlDstAction),
    IPS.map(SetNwSrcAction),
    IPS.map(SetNwDstAction),
    st.just(SetTpDstAction(80)),  # accepted, not interpreted
)


def make_switch():
    """A switch with ports 1-4 attached; ``sent`` logs ``(port, bytes)``."""
    switch = OpenFlowSwitch(SimulationEngine(), "s1", 1)
    sent = []
    for port in PORTS:
        switch.attach_port(port, lambda data, port=port: sent.append(
            (port, bytes(data))))
    return switch, sent


def make_connected_switch():
    """``make_switch`` with a controller: the control bytes the switch
    sends are logged in ``sent`` as ``("controller", bytes)``."""
    switch, sent = make_switch()
    switch.connected = True
    switch._send = lambda data: sent.append(("controller", data))
    return switch, sent


def compiled_port(actions):
    if len(actions) == 1 and isinstance(actions[0], OutputAction):
        port = actions[0].port
        return port if port < Port.MAX else None
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(ACTIONS, max_size=4), st.sampled_from(PORTS))
def test_an_installed_entry_sends_what_the_interpreter_sends(actions, in_port):
    switch, sent = make_switch()
    switch.preinstall_flow(Match(), actions)
    (entry,) = switch.flow_table.entries
    assert entry.out == compiled_port(actions)
    for _ in range(2):  # the second hit reads a memoized key
        switch.frame_received(in_port, FRAME)

    reference, expected = make_switch()
    for _ in range(2):
        reference._execute_actions(actions, FRAME, in_port)
    assert sent == expected


def release_via_packet_out(switch, buffer_id, in_port, actions):
    switch._handle_packet_out(parse_message(PacketOut(buffer_id, in_port, actions).pack()))


def release_via_flow_mod(switch, buffer_id, in_port, actions):
    flow_mod = FlowMod(Match(dl_type=0x9999), buffer_id=buffer_id, actions=actions)
    switch._handle_flow_mod(None, parse_message(flow_mod.pack()))


@settings(max_examples=300, deadline=None)
@given(st.lists(ACTIONS, max_size=4), st.sampled_from(PORTS),
       st.sampled_from([release_via_packet_out, release_via_flow_mod]))
def test_a_released_buffer_sends_what_the_interpreter_sends(actions, in_port, release):
    switch, sent = make_connected_switch()
    buffer_id = switch._buffer_packet(FRAME, in_port)
    release(switch, buffer_id, in_port, actions)
    assert buffer_id not in switch._buffers

    reference, expected = make_connected_switch()
    reference._execute_actions(actions, FRAME, in_port)
    assert sent == expected


@pytest.mark.parametrize("command", [FlowModCommand.MODIFY,
                                     FlowModCommand.MODIFY_STRICT])
def test_modify_retargets_an_installed_entry(command):
    switch, sent = make_switch()
    match = Match(dl_dst=MAC_B)
    switch.preinstall_flow(match, [OutputAction(2)], priority=10)
    switch.frame_received(1, FRAME)
    assert sent == [(2, FRAME)]

    for actions, out, ports in (([OutputAction(3)], 3, [3]),
                                ([OutputAction(Port.FLOOD)], None, [2, 3, 4]),
                                ([OutputAction(4)], 4, [4])):
        modify = FlowMod(match, command=command, priority=10, actions=actions)
        assert switch.flow_table.apply_flow_mod(modify, 0.0) == ([], False)
        (entry,) = switch.flow_table.entries
        assert entry.out == out
        sent.clear()
        switch.frame_received(1, FRAME)
        assert sent == [(port, FRAME) for port in ports]


def test_assigning_actions_recompiles():
    switch, _ = make_switch()
    switch.preinstall_flow(Match(), [OutputAction(2)])
    (entry,) = switch.flow_table.entries
    entry.actions = [OutputAction(2), OutputAction(3)]
    assert entry.out is None
    entry.actions = [OutputAction(Port.IN_PORT)]
    assert entry.out is None
    entry.actions = (OutputAction(1),)
    assert entry.out == 1 and type(entry.actions) is list
