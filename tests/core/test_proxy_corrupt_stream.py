"""A control stream that stops framing passes through, and nothing keeps it.

When a direction's bytes stop decoding as OpenFlow frames (a fuzzed
header, an impossible length), the proxy gives up interposing that
direction: the chunk that failed and every later chunk go to the peer
raw, in order, as a plain TCP proxy would pass them.  The framer that
failed must not keep buffering them: its bad header would make it fail
again on every later chunk while holding all of them.
"""

from repro.core import AttackModel, RuntimeInjector, SystemModel
from repro.openflow import Hello, PacketIn, PacketInReason

CONNECTION = ("c1", "s1")


class _Channel:
    """A channel stub that records what the proxy sends through it."""

    def __init__(self) -> None:
        self.open = True
        self.sent = []

    def send(self, data: bytes) -> None:
        self.sent.append(bytes(data))


def _proxy(engine, small_topology):
    system = SystemModel.from_topology(small_topology, ["c1"])
    injector = RuntimeInjector(engine, AttackModel.no_tls_everywhere(system))
    proxy = injector.create_proxy(CONNECTION)
    proxy.switch_channel, proxy.controller_channel = _Channel(), _Channel()
    return proxy


def _held(proxy) -> int:
    framers = (proxy._to_controller_framer, proxy._to_switch_framer)
    return sum(framer.pending_bytes for framer in framers if framer is not None)


def test_chunks_after_an_impossible_length_pass_through_unbuffered(engine, small_topology):
    proxy = _proxy(engine, small_topology)
    hello = Hello(xid=1).pack()
    bad = bytes([1, 10, 0, 3, 0, 0, 0, 0])  # a PACKET_IN header claiming 3 bytes
    chunks = [bytes([index]) * 800 for index in range(5)]
    for chunk in [hello, bad, *chunks]:
        proxy.bytes_received(proxy.switch_channel, chunk)
    assert proxy.controller_channel.sent == [hello, bad, *chunks]
    assert proxy.stats["to_controller_messages"] == 1
    assert _held(proxy) == 0


def test_whole_messages_after_the_error_are_forwarded_raw(engine, small_topology):
    """Frames cut from the failing chunk and sound messages after it go
    out as the chunks that carried them, not as interposed messages."""
    proxy = _proxy(engine, small_topology)
    first = PacketIn(1, 40, 2, PacketInReason.NO_MATCH, bytes(40), xid=2).pack()
    second = PacketIn(1, 40, 2, PacketInReason.NO_MATCH, bytes(range(40)), xid=3).pack()
    # The first chunk ends mid-message; the second completes it, then breaks.
    chunk_a = first + second[:20]
    chunk_b = second[20:] + bytes([1, 0, 0, 0, 0, 0, 0, 0])
    later = Hello(xid=4).pack()
    for chunk in (chunk_a, chunk_b, later, later):
        proxy.bytes_received(proxy.switch_channel, chunk)
    assert proxy.controller_channel.sent == [first, chunk_b, later, later]
    assert proxy.stats["to_controller_messages"] == 1
    assert _held(proxy) == 0


def test_the_other_direction_keeps_interposing(engine, small_topology):
    proxy = _proxy(engine, small_topology)
    proxy.bytes_received(proxy.switch_channel, bytes([1, 0, 0, 2, 0, 0, 0, 0]))
    hello = Hello(xid=5).pack()
    proxy.bytes_received(proxy.controller_channel, hello)
    assert proxy.switch_channel.sent == [hello]
    assert proxy.stats["to_switch_messages"] == 1
