"""End hosts with a small ARP/ICMP/TCP network stack.

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
from repro.netlib.ethernet import EtherType, EthernetFrame
from repro.netlib.icmp import IcmpEcho
from repro.netlib.ipv4 import IpProtocol, Ipv4Packet
from repro.netlib.packet import decode_ethernet
from repro.netlib.tcp import TcpFlags, pack_header
from repro.netlib.udp import UdpDatagram
from repro.sim.engine import SimulationEngine
from repro.sim.process import Signal

_FIN = TcpFlags.FIN.value
_SYN = TcpFlags.SYN.value
_RST = TcpFlags.RST.value
_ACK = TcpFlags.ACK.value

#: From byte 16 of an Ethernet/IPv4/TCP frame: the IPv4 total length,
#: then the TCP sequence number, ack number and flags.
_TCP_FIELDS = struct.Struct("!H20xIIxB")
_TCP_FIELDS_AT = 16


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
        self.done = Signal(host.engine, name=f"{host.name}.ping.{identifier}")
        self._sent_at: Dict[int, float] = {}
        self._answered: set = set()
        self._finished = False

    def start(self) -> None:
        for seq in range(self.count):
            self.host.engine.schedule(seq * self.interval, self._send_one, seq)
        finish_at = (self.count - 1) * self.interval + self.timeout + 0.001
        self.host.engine.schedule(finish_at, self._finish)

    def _send_one(self, seq: int) -> None:
        self.result.sent += 1
        self.result.rtts.append(None)
        self._sent_at[seq] = self.host.engine.now
        echo = IcmpEcho.request(self.identifier, seq, b"\x00" * 48)
        self.host.send_ip(self.target, IpProtocol.ICMP, echo.pack())

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
        self.done.fire(self.result)


class _TcpSender:
    """Sends one side of a TCP connection as pre-keyed frames.

    The 34-byte Ethernet+IPv4 prefix depends only on the peer's MAC and
    the IPv4 total length, so it is packed through the codecs once per
    pair; each segment packs only its TCP header.  Nothing is patched per
    segment: this stack sends a zero TCP checksum, and the IPv4 header,
    checksum included, is constant for a given length.  The frames share
    one flow-key memo (``fastframe.share_key``), so no switch hop parses
    them.  An unresolved peer still queues through ``Host.send_ip``; an
    ARP re-learn stores a new MAC object, which rebuilds the prefixes and
    the memo.
    """

    __slots__ = ("host", "peer", "src_port", "dst_port", "_mac", "_prefixes", "_memo")

    def __init__(self, host: "Host", peer: Ipv4Address, src_port: int,
                 dst_port: int) -> None:
        self.host = host
        self.peer = peer
        self.src_port = src_port
        self.dst_port = dst_port
        self._mac: Optional[MacAddress] = None
        self._prefixes: Dict[int, bytes] = {}
        self._memo: Optional[bytes] = None

    def send(self, flags: int, seq: int, ack: int, length: int = 0) -> None:
        """Send one segment with ``length`` zero bytes of payload."""
        host = self.host
        segment = pack_header(self.src_port, self.dst_port, seq, ack,
                              flags) + bytes(length)
        mac = host.arp_table.get(self.peer)
        if mac is None:
            host.send_ip(self.peer, IpProtocol.TCP, segment)
            return
        if mac is not self._mac:
            self._mac = mac
            self._prefixes = {}
            self._memo = None
        prefix = self._prefixes.get(length)
        if prefix is None:
            packet = Ipv4Packet(host.ip, self.peer, IpProtocol.TCP, segment)
            prefix = EthernetFrame(mac, host.mac, EtherType.IPV4,
                                   packet.pack()[:20]).pack()
            self._prefixes[length] = prefix
        frame = fastframe.share_key(prefix + segment, self._memo)
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
        self._senders: Dict[Tuple[int, int], _TcpSender] = {}

    def segment_received(self, src_ip: int, src_port: int, seq: int, ack: int,
                         flags: int, length: int) -> None:
        key = (src_ip, src_port)
        sender = self._senders.get(key)
        if sender is None:
            sender = self._senders[key] = _TcpSender(
                self.host, Ipv4Address(src_ip), self.port, src_port)
        if flags & _SYN:
            self.sessions[key] = (seq + 1) & 0xFFFFFFFF
            self.bytes_received[key] = 0
            sender.send(_SYN | _ACK, 0, self.sessions[key])
            return
        rcv_nxt = self.sessions.get(key)
        if rcv_nxt is None:
            sender.send(_RST, 0, 0)
            return
        if flags & _FIN:
            sender.send(_FIN | _ACK, 1, (rcv_nxt + 1) & 0xFFFFFFFF)
            self.sessions.pop(key, None)
            return
        if length:
            if seq == rcv_nxt:
                rcv_nxt = (rcv_nxt + length) & 0xFFFFFFFF
                self.sessions[key] = rcv_nxt
                self.bytes_received[key] += length
            # Cumulative ack either way (duplicate ack on out-of-order).
            sender.send(_ACK, 1, rcv_nxt)


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
        self.done = Signal(host.engine, name=f"{host.name}.iperf.{src_port}")
        self.established = False
        self.finished = False
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0  # highest byte ever sent (survives go-back-N resets)
        self._syn_attempts = 0
        self._deadline: Optional[float] = None
        self._rto_event = None
        self._give_up_event = None
        self._sender = _TcpSender(host, target, src_port, port)

    def start(self) -> None:
        self._send_syn()

    def _send_syn(self) -> None:
        if self.established or self.finished:
            return
        if self._syn_attempts >= self.SYN_RETRIES:
            self._finish()
            return
        self._syn_attempts += 1
        self._sender.send(_SYN, 0, 0)
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
            self._give_up_event = self.host.engine.schedule(
                self.duration + 10.0, self._finish
            )
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
                self._sender.send(_FIN | _ACK, self.snd_max + 1, 1)
                self._finish()
            else:
                # Past the deadline with unacked data: retransmit the
                # outstanding window, but generate no new data.
                limit = min(self.snd_una + self.WINDOW, self.snd_max)
                while self.snd_nxt < limit:
                    chunk = min(self.MSS, limit - self.snd_nxt)
                    self._sender.send(_ACK, self.snd_nxt + 1, 1, chunk)
                    self.snd_nxt += chunk
                if self._rto_event is None:
                    self._restart_rto()
            return
        while self.snd_nxt - self.snd_una < self.WINDOW:
            self._sender.send(_ACK, self.snd_nxt + 1, 1, self.MSS)
            self.snd_nxt += self.MSS
            self.snd_max = max(self.snd_max, self.snd_nxt)
        if self._rto_event is None:
            self._restart_rto()

    def _restart_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        self._rto_event = self.host.engine.schedule(self.RTO, self._rto_fired)

    def _rto_fired(self) -> None:
        self._rto_event = None
        if self.finished or not self.established:
            return
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
        if self._rto_event is not None:
            self._rto_event.cancel()
        if self._give_up_event is not None:
            self._give_up_event.cancel()
        if self._deadline is not None:
            elapsed = min(self.duration, max(1e-9, self.host.engine.now - (self._deadline - self.duration)))
            self.result.duration_s = max(elapsed, 1e-9) if elapsed > 0 else self.duration
        self.host._iperf_clients.pop(self.src_port, None)
        self.done.fire(self.result)


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
        self._transmit: Optional[Callable[[bytes], None]] = None

        self.arp_table: Dict[Ipv4Address, MacAddress] = {}
        self._arp_pending: Dict[Ipv4Address, List[bytes]] = {}
        self._arp_attempts: Dict[Ipv4Address, int] = {}

        self._ping_runs: Dict[int, _PingRun] = {}
        self._iperf_servers: Dict[int, _IperfServer] = {}
        self._iperf_clients: Dict[int, _IperfClient] = {}
        self._udp_handlers: Dict[int, Callable[[Ipv4Address, UdpDatagram], None]] = {}

        self.stats: Dict[str, int] = {
            "tx_frames": 0,
            "rx_frames": 0,
            "arp_requests_sent": 0,
            "arp_replies_sent": 0,
            "icmp_requests_answered": 0,
            "arp_resolution_failures": 0,
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
        EthernetFrame re-packing entirely.  The TCP senders use it for
        their pre-keyed segment frames.
        """
        if self._transmit is None:
            raise RuntimeError(f"host {self.name} is not attached to a link")
        self.stats["tx_frames"] += 1
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

        TCP is demultiplexed from the flow key, which the first switch
        hop (or the sender) already memoized on the frame: one unpack
        reads what the iperf endpoints need.  ARP, ICMP and UDP decode.
        """
        self.stats["rx_frames"] += 1
        # NIC filter without a full decode: flooded unicast for some
        # other host is the common case on learning-switch topologies,
        # and the MAC pair is already memoized on interned frames.
        macs = fastframe.mac_pair(data)
        if macs is not None:
            dst = macs[1]
            if dst != self.mac and not dst.is_broadcast and not dst.is_multicast:
                return
        # (dl_src, dl_dst, dl_vlan, dl_vlan_pcp, dl_type, nw_tos,
        #  nw_proto, nw_src, nw_dst, tp_src, tp_dst); raises on a runt
        # exactly as decode_ethernet does.
        key = fastframe.base_key(data)
        if key[6] == 6 and key[4] == 0x0800:  # TCP over IPv4
            # tp_dst is None, which no endpoint listens on, when the TCP
            # header would not decode.
            if key[8] == int(self.ip):
                endpoint = self._iperf_servers.get(key[10])
                if endpoint is None:
                    endpoint = self._iperf_clients.get(key[10])
                if endpoint is not None:
                    total, seq, ack, flags = _TCP_FIELDS.unpack_from(
                        data, _TCP_FIELDS_AT)
                    endpoint.segment_received(key[7], key[9], seq, ack, flags,
                                              total - 40)
            return
        decoded = decode_ethernet(data)
        l3 = decoded.l3
        if isinstance(l3, ArpPacket):
            self._handle_arp(l3)
        elif isinstance(l3, Ipv4Packet) and l3.dst == self.ip:
            self._handle_ip(l3, decoded.l4)

    def _handle_arp(self, arp: ArpPacket) -> None:
        # Opportunistic learning from both requests and replies.
        self.arp_table[arp.sender_ip] = arp.sender_mac
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

    def _handle_ip(self, packet: Ipv4Packet, l4) -> None:
        if isinstance(l4, IcmpEcho):
            if l4.is_request:
                self.stats["icmp_requests_answered"] += 1
                self.send_ip(packet.src, IpProtocol.ICMP, l4.reply().pack())
            elif l4.is_reply:
                run = self._ping_runs.get(l4.identifier)
                if run is not None:
                    run.reply_received(l4.sequence)
        elif isinstance(l4, UdpDatagram):
            handler = self._udp_handlers.get(l4.dst_port)
            if handler is not None:
                handler(packet.src, l4)

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

    def stop_iperf_server(self, port: int = 5001) -> None:
        self._iperf_servers.pop(port, None)

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
        self, port: int, handler: Callable[[Ipv4Address, UdpDatagram], None]
    ) -> None:
        self._udp_handlers[port] = handler

    def send_udp(self, dst_ip: Ipv4Address, src_port: int, dst_port: int, payload: bytes) -> None:
        datagram = UdpDatagram(src_port, dst_port, payload)
        self.send_ip(dst_ip, IpProtocol.UDP, datagram.pack())

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.ip}({self.mac})>"
