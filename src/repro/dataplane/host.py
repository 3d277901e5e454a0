"""End hosts with a small ARP/ICMP/TCP/UDP network stack.

Hosts are the workload generators of the evaluation: ``ping`` (ICMP echo
with per-trial RTT and loss accounting) and an ``iperf``-style TCP bulk
transfer that measures achieved throughput.  The stack is deliberately
simple — go-back-N with a fixed window — but it exercises the same
data-plane paths (ARP resolution, per-flow table misses, controller round
trips) whose disruption the paper measures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.netlib import fastframe
from repro.netlib.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.netlib.arp import ArpPacket
from repro.netlib.ethernet import EtherType, EthernetFrame, FrameDecodeError
from repro.netlib.icmp import IcmpType, pack_echo
from repro.netlib.ipv4 import IpProtocol, Ipv4Packet
from repro.netlib.packet import decode_ethernet
from repro.netlib.tcp import TcpFlags, pack_header
from repro.netlib.udp import pack_datagram
from repro.sim.engine import SimulationEngine

_FIN = TcpFlags.FIN.value
_SYN = TcpFlags.SYN.value
_RST = TcpFlags.RST.value
_ACK = TcpFlags.ACK.value

#: From byte 16 of an Ethernet/IPv4/TCP frame: the IPv4 total length,
#: then the TCP sequence number, ack number and flags.
_TCP_FIELDS = struct.Struct("!H20xIIxB")
#: From byte 16 of an Ethernet/IPv4/UDP frame: the IPv4 total length,
#: then the UDP length.
_UDP_FIELDS = struct.Struct("!H20xH")
#: From byte 16 of an Ethernet/IPv4/ICMP echo frame: the IPv4 total
#: length, then the echo identifier and sequence number.
_ECHO_FIELDS = struct.Struct("!H20xHH")
_FIELDS_AT = 16
#: Where the IPv4 header, the L4 header and the payload after an 8-byte
#: UDP or ICMP echo header start in an Ethernet/IPv4 frame.
_IP_AT = 14
_L4_AT = 34
_L4_PAYLOAD_AT = 42

_ECHO_REQUEST = IcmpType.ECHO_REQUEST.value
_ECHO_REPLY = IcmpType.ECHO_REPLY.value
_PING_PAYLOAD = bytes(48)


@dataclass
class PingResult:
    """Outcome of one ping run (one ``ping`` invocation in the paper)."""

    target: Ipv4Address
    sent: int = 0
    received: int = 0
    rtts: List[Optional[float]] = field(default_factory=list)

    @property
    def loss_rate(self) -> float:
        return 1.0 - (self.received / self.sent) if self.sent else 0.0

    @property
    def successful_rtts(self) -> List[float]:
        return [rtt for rtt in self.rtts if rtt is not None]

    @property
    def min_rtt(self) -> Optional[float]:
        ok = self.successful_rtts
        return min(ok) if ok else None

    @property
    def avg_rtt(self) -> Optional[float]:
        ok = self.successful_rtts
        return sum(ok) / len(ok) if ok else None

    @property
    def median_rtt(self) -> Optional[float]:
        ok = sorted(self.successful_rtts)
        if not ok:
            return None
        mid = len(ok) // 2
        if len(ok) % 2:
            return ok[mid]
        return (ok[mid - 1] + ok[mid]) / 2

    @property
    def max_rtt(self) -> Optional[float]:
        ok = self.successful_rtts
        return max(ok) if ok else None

    @property
    def any_success(self) -> bool:
        return self.received > 0


@dataclass
class IperfResult:
    """Outcome of one iperf-style TCP transfer trial."""

    target: Ipv4Address
    duration_s: float
    bytes_acked: int = 0
    connected: bool = False
    retransmits: int = 0

    @property
    def throughput_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_acked * 8.0 / self.duration_s

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps / 1e6


class _PingRun:
    """One in-flight ping series (identified by ICMP identifier)."""

    def __init__(
        self,
        host: "Host",
        target: Ipv4Address,
        count: int,
        interval: float,
        timeout: float,
        identifier: int,
    ) -> None:
        self.host = host
        self.target = target
        self.count = count
        self.interval = interval
        self.timeout = timeout
        self.identifier = identifier
        self.result = PingResult(target)
        #: Called with :attr:`result`, each as its own event, when the
        #: series finishes.
        self.on_done: List[Callable[[PingResult], None]] = []
        self._sent_at: Dict[int, float] = {}
        self._answered: set = set()
        self._finished = False
        self._sender = _Sender(host, target, IpProtocol.ICMP)

    def start(self) -> None:
        for seq in range(self.count):
            self.host.engine.schedule(seq * self.interval, self._send_one, seq)
        finish_at = (self.count - 1) * self.interval + self.timeout + 0.001
        self.host.engine.schedule(finish_at, self._finish)

    def _send_one(self, seq: int) -> None:
        self.result.sent += 1
        self.result.rtts.append(None)
        self._sent_at[seq] = self.host.engine.now
        self._sender.send(pack_echo(_ECHO_REQUEST, self.identifier, seq,
                                    _PING_PAYLOAD))

    def reply_received(self, seq: int) -> None:
        if seq in self._answered or seq not in self._sent_at:
            return
        rtt = self.host.engine.now - self._sent_at[seq]
        if rtt > self.timeout:
            return  # reply arrived after the per-trial deadline
        self._answered.add(seq)
        self.result.received += 1
        self.result.rtts[seq] = rtt

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.host._ping_runs.pop(self.identifier, None)
        for callback in self.on_done:
            self.host.engine.schedule(0.0, callback, self.result)


class _Sender:
    """Sends one flow's packets as pre-keyed frames.

    A sender belongs to one flow: a peer, an IP protocol and the L4 pair
    the flow key reads, which is the ports for TCP and UDP and the type
    and code for ICMP.  Its owner packs each packet's L4 bytes with that
    pair.  The 34-byte Ethernet+IPv4 prefix depends only on the peer's
    MAC and the IPv4 total length, so it is packed through the codecs
    once per pair.  Nothing is patched per packet: the IPv4 header,
    checksum included, is constant for a given length.  The frames share
    one flow-key memo (``fastframe.share_key``), so no switch hop parses
    them.  The peer's MAC is re-read only when the host's ``arp_version``
    moved.  An unresolved peer still queues through ``Host.send_ip``; an
    ARP re-learn stores a new MAC object, which rebuilds the prefixes and
    the memo.
    """

    __slots__ = ("host", "peer", "protocol", "_mac", "_arp_version",
                 "_prefixes", "_memo")

    def __init__(self, host: "Host", peer: Ipv4Address, protocol: int) -> None:
        self.host = host
        self.peer = peer
        self.protocol = protocol
        self._mac: Optional[MacAddress] = None
        self._arp_version = -1
        self._prefixes: Dict[int, bytes] = {}
        self._memo: Optional[bytes] = None

    def send(self, l4: bytes) -> None:
        """Send one packet whose IPv4 payload is ``l4``."""
        host = self.host
        if self._arp_version != host.arp_version:
            self._arp_version = host.arp_version
            mac = host.arp_table.get(self.peer)
            if mac is not self._mac:
                self._mac, self._prefixes, self._memo = mac, {}, None
        mac = self._mac
        if mac is None:
            host.send_ip(self.peer, self.protocol, l4)
            return
        length = len(l4)
        prefix = self._prefixes.get(length)
        if prefix is None:
            packet = Ipv4Packet(host.ip, self.peer, self.protocol, l4)
            prefix = EthernetFrame(mac, host.mac, EtherType.IPV4,
                                   packet.pack()[:20]).pack()
            self._prefixes[length] = prefix
        frame = fastframe.share_key(prefix + l4, self._memo)
        self._memo = frame
        host.inject_frame(frame)


class _IperfServer:
    """Accepts one TCP connection per client and acks received bytes."""

    def __init__(self, host: "Host", port: int) -> None:
        self.host = host
        self.port = port
        # keyed by (client_ip, client_port) as ints -> rcv_nxt
        self.sessions: Dict[Tuple[int, int], int] = {}
        self.bytes_received: Dict[Tuple[int, int], int] = {}
        self._senders: Dict[Tuple[int, int], _Sender] = {}

    def segment_received(self, src_ip: int, src_port: int, seq: int, ack: int,
                         flags: int, length: int) -> None:
        key = (src_ip, src_port)
        sender = self._senders.get(key)
        if sender is None:
            sender = self._senders[key] = _Sender(
                self.host, Ipv4Address(src_ip), IpProtocol.TCP)
        port = self.port
        if flags & _SYN:
            self.sessions[key] = (seq + 1) & 0xFFFFFFFF
            self.bytes_received[key] = 0
            sender.send(pack_header(port, src_port, 0, self.sessions[key],
                                    _SYN | _ACK))
            return
        rcv_nxt = self.sessions.get(key)
        if rcv_nxt is None:
            sender.send(pack_header(port, src_port, 0, 0, _RST))
            return
        if flags & _FIN:
            sender.send(pack_header(port, src_port, 1,
                                    (rcv_nxt + 1) & 0xFFFFFFFF, _FIN | _ACK))
            self.sessions.pop(key, None)
            return
        if length:
            if seq == rcv_nxt:
                rcv_nxt = (rcv_nxt + length) & 0xFFFFFFFF
                self.sessions[key] = rcv_nxt
                self.bytes_received[key] += length
            # Cumulative ack either way (duplicate ack on out-of-order).
            sender.send(pack_header(port, src_port, 1, rcv_nxt, _ACK))


class _IperfClient:
    """A duration-bounded go-back-N bulk sender."""

    MSS = 1460
    WINDOW = 65535
    SYN_RETRIES = 5
    SYN_TIMEOUT = 1.0
    RTO = 0.5

    def __init__(
        self,
        host: "Host",
        target: Ipv4Address,
        port: int,
        duration: float,
        src_port: int,
    ) -> None:
        self.host = host
        self.target = target
        self.port = port
        self.duration = duration
        self.src_port = src_port
        self.result = IperfResult(target, duration)
        #: Called with :attr:`result`, each as its own event, when the
        #: transfer finishes.
        self.on_done: List[Callable[[IperfResult], None]] = []
        self.established = False
        self.finished = False
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0  # highest byte ever sent (survives go-back-N resets)
        self._syn_attempts = 0
        self._deadline: Optional[float] = None
        # The retransmit timer expires at _rto_deadline.  At most one RTO
        # event is in the engine (_rto_armed); an advancing ACK only moves
        # the deadline, and an event that fires before it re-arms itself
        # there, so a timeout still comes exactly RTO after the last ACK.
        self._rto_deadline = 0.0
        self._rto_armed = False
        self._sender = _Sender(host, target, IpProtocol.TCP)

    def start(self) -> None:
        self._send_syn()

    def _send(self, flags: int, seq: int, ack: int, length: int = 0) -> None:
        """Send one segment with ``length`` zero bytes of payload."""
        self._sender.send(pack_header(self.src_port, self.port, seq, ack, flags)
                          + bytes(length))

    def _send_syn(self) -> None:
        if self.established or self.finished:
            return
        if self._syn_attempts >= self.SYN_RETRIES:
            self._finish()
            return
        self._syn_attempts += 1
        self._send(_SYN, 0, 0)
        self.host.engine.schedule(self.SYN_TIMEOUT, self._send_syn)

    def segment_received(self, src_ip: int, src_port: int, seq: int, ack: int,
                         flags: int, length: int) -> None:
        if self.finished:
            return
        if flags & _RST:
            self._finish()
            return
        if flags & _SYN and flags & _ACK and not self.established:
            self.established = True
            self.result.connected = True
            self._deadline = self.host.engine.now + self.duration
            # Runs after the transfer too; _finish ignores a second call.
            self.host.engine.schedule(self.duration + 10.0, self._finish)
            self._try_send()
            return
        if flags & _ACK and self.established:
            acked = (ack - 1) & 0xFFFFFFFF  # data bytes acked (seq starts at 1)
            if acked > self.snd_una:
                self.result.bytes_acked = acked
                self.snd_una = acked
                self._restart_rto()
            self._try_send()

    def _try_send(self) -> None:
        if self.finished or not self.established:
            return
        now = self.host.engine.now
        if self._deadline is not None and now >= self._deadline:
            if self.snd_una >= self.snd_max:
                self._send(_FIN | _ACK, self.snd_max + 1, 1)
                self._finish()
            else:
                # Past the deadline with unacked data: retransmit the
                # outstanding window, but generate no new data.
                limit = min(self.snd_una + self.WINDOW, self.snd_max)
                while self.snd_nxt < limit:
                    chunk = min(self.MSS, limit - self.snd_nxt)
                    self._send(_ACK, self.snd_nxt + 1, 1, chunk)
                    self.snd_nxt += chunk
                if not self._rto_armed:
                    self._restart_rto()
            return
        while self.snd_nxt - self.snd_una < self.WINDOW:
            self._send(_ACK, self.snd_nxt + 1, 1, self.MSS)
            self.snd_nxt += self.MSS
            self.snd_max = max(self.snd_max, self.snd_nxt)
        if not self._rto_armed:
            self._restart_rto()

    def _restart_rto(self) -> None:
        self._rto_deadline = self.host.engine.now + self.RTO
        if not self._rto_armed:
            self._rto_armed = True
            self.host.engine.schedule_at(self._rto_deadline, self._rto_fired)

    def _rto_fired(self) -> None:
        if self.finished:
            return
        if self.host.engine.now < self._rto_deadline:
            self.host.engine.schedule_at(self._rto_deadline, self._rto_fired)
            return
        self._rto_armed = False
        if self.snd_una < self.snd_max:
            # Go-back-N: retransmit the window from the last cumulative ack.
            self.result.retransmits += 1
            self.snd_nxt = self.snd_una
            self._try_send()
        elif self._deadline is not None and self.host.engine.now >= self._deadline:
            self._finish()
        else:
            self._try_send()

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        if self._deadline is not None:
            elapsed = min(self.duration, max(1e-9, self.host.engine.now - (self._deadline - self.duration)))
            self.result.duration_s = max(elapsed, 1e-9) if elapsed > 0 else self.duration
        self.host._iperf_clients.pop(self.src_port, None)
        for callback in self.on_done:
            self.host.engine.schedule(0.0, callback, self.result)


class Host:
    """A simulated end host with one network interface."""

    ARP_RETRIES = 3
    ARP_TIMEOUT = 1.0

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        mac: MacAddress,
        ip: Ipv4Address,
    ) -> None:
        self.engine = engine
        self.name = name
        self.mac = MacAddress(mac)
        self.ip = Ipv4Address(ip)
        # The NIC's addresses as the flow key holds them.
        self._mac_value = int(self.mac)
        self._ip_value = int(self.ip)
        self._transmit: Optional[Callable[[bytes], None]] = None

        #: Written only through learn_arp, which bumps ``arp_version``.
        self.arp_table: Dict[Ipv4Address, MacAddress] = {}
        self.arp_version = 0
        self._arp_pending: Dict[Ipv4Address, List[bytes]] = {}
        self._arp_attempts: Dict[Ipv4Address, int] = {}

        self._ping_runs: Dict[int, _PingRun] = {}
        self._iperf_servers: Dict[int, _IperfServer] = {}
        self._iperf_clients: Dict[int, _IperfClient] = {}
        self._udp_handlers: Dict[int, Callable[[int, int, bytes], None]] = {}
        self._udp_senders: Dict[Tuple[Ipv4Address, int, int], _Sender] = {}
        self._echo_senders: Dict[int, _Sender] = {}

        self.stats: Dict[str, int] = {
            "arp_requests_sent": 0,
            "arp_replies_sent": 0,
            "icmp_requests_answered": 0,
            "arp_resolution_failures": 0,
            "dropped_runts": 0,
        }

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(self, transmit: Callable[[bytes], None]) -> None:
        """Bind the host NIC to its access link."""
        self._transmit = transmit

    def _send_frame(self, frame: EthernetFrame) -> None:
        self.inject_frame(frame.pack())

    def inject_frame(self, data: bytes) -> None:
        """Put pre-packed frame bytes on the wire as-is.

        The traffic-generator subsystem synthesizes frames from templates
        (``repro.workloads``) — including spoofed source MACs/IPs the
        normal stack would never emit — so they bypass ARP resolution and
        EthernetFrame re-packing entirely.  The stack's senders use it for
        their pre-keyed frames.
        """
        if self._transmit is None:
            raise RuntimeError(f"host {self.name} is not attached to a link")
        self._transmit(data)

    # ------------------------------------------------------------------ #
    # ARP + IP send path
    # ------------------------------------------------------------------ #

    def send_ip(self, dst_ip: Ipv4Address, protocol: int, payload: bytes) -> None:
        """Send an IPv4 packet, resolving the destination MAC first."""
        dst_ip = Ipv4Address(dst_ip)
        packet = Ipv4Packet(self.ip, dst_ip, protocol, payload)
        dst_mac = self.arp_table.get(dst_ip)
        if dst_mac is not None:
            self._send_frame(
                EthernetFrame(dst_mac, self.mac, EtherType.IPV4, packet.pack())
            )
            return
        self._arp_pending.setdefault(dst_ip, []).append(packet.pack())
        if self._arp_attempts.get(dst_ip, 0) == 0:
            self._arp_attempts[dst_ip] = 0
            self._send_arp_request(dst_ip)

    def learn_arp(self, ip: Ipv4Address, mac: MacAddress) -> None:
        """Map ``ip`` to ``mac`` in the ARP table."""
        self.arp_table[ip] = mac
        self.arp_version += 1

    def _send_arp_request(self, dst_ip: Ipv4Address) -> None:
        if dst_ip in self.arp_table or dst_ip not in self._arp_pending:
            return
        attempts = self._arp_attempts.get(dst_ip, 0)
        if attempts >= self.ARP_RETRIES:
            dropped = self._arp_pending.pop(dst_ip, [])
            self._arp_attempts.pop(dst_ip, None)
            self.stats["arp_resolution_failures"] += len(dropped)
            return
        self._arp_attempts[dst_ip] = attempts + 1
        self.stats["arp_requests_sent"] += 1
        arp = ArpPacket.request(self.mac, self.ip, dst_ip)
        self._send_frame(EthernetFrame(BROADCAST_MAC, self.mac, EtherType.ARP, arp.pack()))
        self.engine.schedule(self.ARP_TIMEOUT, self._send_arp_request, dst_ip)

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def frame_received(self, data: bytes) -> None:
        """Entry point for frames arriving from the access link.

        TCP, UDP and ICMP echo are demultiplexed from the flow key, which
        the first switch hop (or the sender) already memoized on the
        frame: one unpack reads what the endpoint needs.  Only ARP is
        decoded.  A frame shorter than an Ethernet header is dropped.
        """
        try:
            # (dl_src, dl_dst, dl_vlan, dl_vlan_pcp, dl_type, nw_tos,
            #  nw_proto, nw_src, nw_dst, tp_src, tp_dst)
            key = fastframe.base_key(data)
        except FrameDecodeError:
            self.stats["dropped_runts"] += 1
            return
        # NIC filter: unicast for another host is dropped; the group bit
        # covers broadcast and multicast.
        dst = key[1]
        if dst != self._mac_value and not dst >> 40 & 1:
            return
        if key[4] == 0x0800:
            # nw_dst is None when the IPv4 header would not decode, and
            # tp_dst, which no endpoint listens on, when the L4 header
            # would not.
            if key[8] != self._ip_value:
                return
            protocol = key[6]
            if protocol == 6:
                endpoint = self._iperf_servers.get(key[10])
                if endpoint is None:
                    endpoint = self._iperf_clients.get(key[10])
                if endpoint is not None:
                    total, seq, ack, flags = _TCP_FIELDS.unpack_from(
                        data, _FIELDS_AT)
                    endpoint.segment_received(key[7], key[9], seq, ack, flags,
                                              total - 40)
            elif protocol == 17:
                handler = self._udp_handlers.get(key[10])
                if handler is not None:
                    _, length = _UDP_FIELDS.unpack_from(data, _FIELDS_AT)
                    handler(key[7], key[9], data[_L4_PAYLOAD_AT:_L4_AT + length])
            elif protocol == 1 and key[9] is not None:
                self._echo_received(key[7], key[9], data)
            return
        if key[4] == 0x0806 and key[6] is not None:
            self._handle_arp(decode_ethernet(data).l3)

    def _echo_received(self, src_ip: int, icmp_type: int, data: bytes) -> None:
        total, identifier, sequence = _ECHO_FIELDS.unpack_from(data, _FIELDS_AT)
        if icmp_type == _ECHO_REQUEST:
            self.stats["icmp_requests_answered"] += 1
            sender = self._echo_senders.get(src_ip)
            if sender is None:
                sender = self._echo_senders[src_ip] = _Sender(
                    self, Ipv4Address(src_ip), IpProtocol.ICMP)
            sender.send(pack_echo(_ECHO_REPLY, identifier, sequence,
                                  data[_L4_PAYLOAD_AT:_IP_AT + total]))
        else:
            run = self._ping_runs.get(identifier)
            if run is not None:
                run.reply_received(sequence)

    def _handle_arp(self, arp: ArpPacket) -> None:
        # Opportunistic learning from both requests and replies.
        self.learn_arp(arp.sender_ip, arp.sender_mac)
        self._flush_pending(arp.sender_ip)
        if arp.is_request and arp.target_ip == self.ip:
            self.stats["arp_replies_sent"] += 1
            reply = ArpPacket.reply(self.mac, self.ip, arp.sender_mac, arp.sender_ip)
            self._send_frame(
                EthernetFrame(arp.sender_mac, self.mac, EtherType.ARP, reply.pack())
            )

    def _flush_pending(self, ip: Ipv4Address) -> None:
        mac = self.arp_table.get(ip)
        pending = self._arp_pending.pop(ip, [])
        self._arp_attempts.pop(ip, None)
        if mac is None:
            return
        for packet_bytes in pending:
            self._send_frame(EthernetFrame(mac, self.mac, EtherType.IPV4, packet_bytes))

    # ------------------------------------------------------------------ #
    # Workloads
    # ------------------------------------------------------------------ #

    def ping(
        self,
        target: Ipv4Address,
        count: int = 1,
        interval: float = 1.0,
        timeout: float = 1.0,
    ) -> _PingRun:
        """Start a ping series; returns a run whose ``done`` signal fires
        with a :class:`PingResult`."""
        identifier = next(self.engine.ctx.icmp_ids) & 0xFFFF
        run = _PingRun(self, Ipv4Address(target), count, interval, timeout, identifier)
        self._ping_runs[identifier] = run
        run.start()
        return run

    def start_iperf_server(self, port: int = 5001) -> _IperfServer:
        """Listen for iperf-style TCP transfers on ``port``."""
        server = _IperfServer(self, port)
        self._iperf_servers[port] = server
        return server

    def run_iperf_client(
        self,
        target: Ipv4Address,
        port: int = 5001,
        duration: float = 10.0,
    ) -> _IperfClient:
        """Start a TCP bulk transfer; ``done`` fires with an IperfResult."""
        src_port = next(self.engine.ctx.ephemeral_ports) & 0xFFFF
        client = _IperfClient(self, Ipv4Address(target), port, duration, src_port)
        self._iperf_clients[src_port] = client
        client.start()
        return client

    def register_udp_handler(
        self, port: int, handler: Callable[[int, int, bytes], None]
    ) -> None:
        """Call ``handler(src_ip, src_port, payload)`` for each datagram
        to ``port``; the source IPv4 address is an int."""
        self._udp_handlers[port] = handler

    def send_udp(self, dst_ip: Ipv4Address, src_port: int, dst_port: int, payload: bytes) -> None:
        flow = (dst_ip, src_port, dst_port)
        sender = self._udp_senders.get(flow)
        if sender is None:
            sender = self._udp_senders[flow] = _Sender(
                self, Ipv4Address(dst_ip), IpProtocol.UDP)
        sender.send(pack_datagram(src_port, dst_port, payload))

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.ip}({self.mac})>"
