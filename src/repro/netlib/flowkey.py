"""Single-pass flow-key extraction straight from raw Ethernet bytes.

The OpenFlow twelve-tuple (:data:`MATCH_FIELD_NAMES`) is the only thing
the data-plane forwarding path needs from a frame.  This module reads it
with ``struct.unpack_from`` directly against the buffer, as one all-int
tuple: addresses as their integer values, absent fields ``None``.  That
tuple is the flow key everywhere — the flow table and its exact-match
cache, the sketch tap, ``Match.from_key`` and the controllers' apps.
:func:`extract_flow_base` is the one extractor; :func:`extract_flow_key`
prepends ``in_port``.

Semantics are bit-for-bit those of extraction through the layer
decoders (``decode_ethernet``): every validation a layer decoder
performs — IPv4 version/IHL/total-length/checksum, TCP data offset, UDP
length, ICMP type, code and checksum, ARP opcode — is replicated here,
and a layer that would have failed to decode yields ``None`` fields
exactly as the ``decode_ethernet`` route does.  ``tests/netlib/test_flowkey.py`` holds
the equivalence suite (truncated headers, bad checksums, non-IP
ethertypes, ICMP type/code edge cases).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.netlib.ethernet import FrameDecodeError
from repro.netlib.ipv4 import internet_checksum

#: ``dl_vlan`` value for untagged frames (OF 1.0's OFP_VLAN_NONE).
VLAN_NONE = 0xFFFF

#: The OF 1.0 twelve-tuple, in ``ofp_match`` wire order.  Canonical home
#: is here (the lowest layer that knows the tuple) and re-exported by
#: ``repro.openflow.match`` so both sides of the netlib/openflow boundary
#: agree without a circular import.
MATCH_FIELD_NAMES = (
    "in_port",
    "dl_src",
    "dl_dst",
    "dl_vlan",
    "dl_vlan_pcp",
    "dl_type",
    "nw_tos",
    "nw_proto",
    "nw_src",
    "nw_dst",
    "tp_src",
    "tp_dst",
)

_ETH = struct.Struct("!HIHIH")  # dst and src MACs as (high 16, low 32) bits
# version/IHL, total length, protocol, source, destination
_IP = struct.Struct("!BxH5xB2xII")
_TCP_PORTS = struct.Struct("!HH")
_UDP = struct.Struct("!HHH")  # ports and length
_ICMP = struct.Struct("!BB")  # type and code

_ETH_SIZE = _ETH.size          # 14
_IP_SIZE = _IP.size            # 20
_TCP_MIN = 20
_UDP_MIN = 8
_ICMP_MIN = 8

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_ARP = 0x0806

_ARP = struct.Struct("!HHBBH6sI6sI")
_ARP_ETH_IPV4 = (1, 0x0800, 6, 4)

#: The L3/L4 fields of a frame without (decodable) IPv4 or ARP.
_NO_L3 = (None, None, None, None, None, None)

#: :func:`extract_flow_base`'s field names: the flow key without ``in_port``.
BASE_FIELD_NAMES = MATCH_FIELD_NAMES[1:]


def extract_flow_base(data: bytes) -> Tuple[Optional[int], ...]:
    """The port-independent eleven fields of the flow key, as ints.

    :data:`BASE_FIELD_NAMES` order: addresses as their integer values,
    absent fields ``None``.  Raises :class:`FrameDecodeError` for frames
    shorter than an Ethernet header and for nothing else: an ICMP type
    other than echo keeps its IPv4 fields and has no ``tp_*`` fields, and
    an ARP opcode other than request or reply has no L3 fields, as
    ``decode_ethernet`` leaves those layers opaque.
    """
    if len(data) < _ETH_SIZE:
        raise FrameDecodeError(
            f"ethernet frame too short: {len(data)} < {_ETH_SIZE} bytes"
        )
    dst_hi, dst_lo, src_hi, src_lo, ethertype = _ETH.unpack_from(data)
    if ethertype == _ETHERTYPE_IPV4:
        l3 = _ipv4_fields(data)
    elif ethertype == _ETHERTYPE_ARP:
        l3 = _arp_fields(data)
    else:
        l3 = _NO_L3
    return (src_hi << 32 | src_lo, dst_hi << 32 | dst_lo, VLAN_NONE, 0,
            ethertype) + l3


def extract_flow_key(data: bytes, in_port: int) -> Tuple[Optional[int], ...]:
    """The full twelve-field flow key for a frame arriving on ``in_port``."""
    return (in_port,) + extract_flow_base(data)


def _ipv4_fields(data: bytes) -> Tuple[Optional[int], ...]:
    """``(nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst)`` of an IPv4 frame."""
    payload_len = len(data) - _ETH_SIZE
    if payload_len < _IP_SIZE:
        return _NO_L3
    version_ihl, total_length, protocol, nw_src, nw_dst = _IP.unpack_from(data, _ETH_SIZE)
    # Mirror Ipv4Packet.unpack's rejections: wrong version, options,
    # overlong total_length, bad header checksum -> no L3/L4 fields.
    if version_ihl != 0x45:
        return _NO_L3
    if total_length > payload_len:
        return _NO_L3
    if internet_checksum(data[_ETH_SIZE : _ETH_SIZE + _IP_SIZE]) != 0:
        return _NO_L3
    # Ipv4Packet does not model TOS (packs it as zero), so the extracted
    # key reads 0 regardless of the wire byte — same as the reference.
    l3 = (0, protocol, nw_src, nw_dst)
    l4_offset = _ETH_SIZE + _IP_SIZE
    l4_len = total_length - _IP_SIZE
    if protocol == 6:  # TCP
        # TcpSegment.unpack rejects options (data offset != 5).
        if l4_len >= _TCP_MIN and data[l4_offset + 12] >> 4 == 5:
            return l3 + _TCP_PORTS.unpack_from(data, l4_offset)
    elif protocol == 17:  # UDP
        if l4_len >= _UDP_MIN:
            tp_src, tp_dst, length = _UDP.unpack_from(data, l4_offset)
            if _UDP_MIN <= length <= l4_len:
                return l3 + (tp_src, tp_dst)
    elif protocol == 1:  # ICMP
        if l4_len >= _ICMP_MIN:
            icmp_type, code = _ICMP.unpack_from(data, l4_offset)
            if (icmp_type in (0, 8) and code == 0 and internet_checksum(
                    data[l4_offset : _ETH_SIZE + total_length]) == 0):
                return l3 + (icmp_type, 0)
    return l3 + (None, None)


def _arp_fields(data: bytes) -> Tuple[Optional[int], ...]:
    """``(nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst)`` of an ARP frame."""
    if len(data) - _ETH_SIZE < _ARP.size:
        return _NO_L3
    htype, ptype, hlen, plen, opcode, _smac, sip, _tmac, tip = _ARP.unpack_from(
        data, _ETH_SIZE
    )
    if (htype, ptype, hlen, plen) != _ARP_ETH_IPV4 or opcode not in (1, 2):
        return _NO_L3
    return (None, opcode, sip, tip, None, None)

