"""Unit tests for OpenFlow stream framing."""

import pytest

from repro.openflow import (
    EchoRequest,
    FlowMod,
    Hello,
    Match,
    MessageFramer,
    OpenFlowDecodeError,
    PacketIn,
)


def test_single_message():
    framer = MessageFramer()
    message = Hello(xid=1)
    decoded = framer.feed(message.pack())
    assert decoded == [message]


def test_multiple_messages_one_feed():
    framer = MessageFramer()
    messages = [Hello(xid=1), EchoRequest(payload=b"x", xid=2),
                PacketIn(1, 3, 2, 0, b"abc", xid=3)]
    stream = b"".join(m.pack() for m in messages)
    assert framer.feed(stream) == messages


def test_byte_at_a_time_reassembly():
    framer = MessageFramer()
    messages = [Hello(xid=1), FlowMod(Match.wildcard_all(), xid=2)]
    stream = b"".join(m.pack() for m in messages)
    decoded = []
    for index in range(len(stream)):
        decoded.extend(framer.feed(stream[index:index + 1]))
    assert decoded == messages
    assert framer.pending_bytes == 0


def test_split_across_header_boundary():
    framer = MessageFramer()
    message = PacketIn(9, 100, 1, 0, b"\xbb" * 100)
    raw = message.pack()
    assert framer.feed(raw[:5]) == []
    assert framer.feed(raw[5:]) == [message]


def test_impossible_header_length_rejected():
    framer = MessageFramer()
    with pytest.raises(OpenFlowDecodeError):
        framer.feed(b"\x01\x00\x00\x04\x00\x00\x00\x01")  # length 4 < 8


def test_buffer_overflow_guard():
    framer = MessageFramer(max_buffer=64)
    # A header claiming a giant message, then padding that never completes it.
    header = b"\x01\x00\xff\xff\x00\x00\x00\x01"
    with pytest.raises(OpenFlowDecodeError):
        framer.feed(header + b"\x00" * 128)


def test_reset_discards_partial():
    framer = MessageFramer()
    framer.feed(Hello().pack()[:4])
    assert framer.pending_bytes == 4
    framer.reset()
    assert framer.pending_bytes == 0
