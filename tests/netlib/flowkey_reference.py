"""The decode-based flow-key extraction, as the single-pass extractor's oracle.

:func:`extract_packet_fields_reference` builds the full
``EthernetFrame``/``Ipv4Packet``/L4 object graph with ``decode_ethernet``
and reads the OpenFlow twelve-tuple off it as a field dict;
:func:`field_tuple` turns that dict into the all-int flow key.
``repro.netlib.flowkey.extract_flow_key`` must agree with it on every
frame — same fields, same ``None`` degradations, same exceptions — and
the controller's PACKET_IN key with :func:`packet_in_key_reference`.
"""

from typing import Any, Dict, Optional, Tuple

from repro.netlib.ethernet import EtherType
from repro.netlib.icmp import IcmpEcho
from repro.netlib.ipv4 import Ipv4Packet
from repro.netlib.packet import decode_ethernet
from repro.netlib.tcp import TcpSegment
from repro.netlib.udp import UdpDatagram
from repro.openflow.match import MATCH_FIELD_NAMES, OFP_VLAN_NONE


def field_tuple(fields: Dict[str, Any]) -> Tuple[Optional[int], ...]:
    """The flow key of a field dict: the twelve match fields in
    ``MATCH_FIELD_NAMES`` order, addresses as their integer values and
    absent fields ``None``."""
    return tuple(None if (value := fields.get(name)) is None else int(value)
                 for name in MATCH_FIELD_NAMES)


def flow_key_reference(data: bytes, in_port: int) -> Tuple[Optional[int], ...]:
    """:func:`extract_packet_fields_reference` as a flow key."""
    return field_tuple(extract_packet_fields_reference(data, in_port))


def extract_packet_fields_reference(data: bytes, in_port: int) -> Dict[str, Any]:
    """The original decode-based extraction (semantics oracle)."""
    decoded = decode_ethernet(data)
    frame = decoded.ethernet
    fields: Dict[str, Any] = {
        "in_port": in_port,
        "dl_src": frame.src,
        "dl_dst": frame.dst,
        "dl_vlan": OFP_VLAN_NONE,
        "dl_vlan_pcp": 0,
        "dl_type": frame.ethertype,
        "nw_tos": None,
        "nw_proto": None,
        "nw_src": None,
        "nw_dst": None,
        "tp_src": None,
        "tp_dst": None,
    }
    l3 = decoded.l3
    if isinstance(l3, Ipv4Packet):
        fields["nw_tos"] = 0
        fields["nw_proto"] = l3.protocol
        fields["nw_src"] = l3.src
        fields["nw_dst"] = l3.dst
        l4 = decoded.l4
        if isinstance(l4, (TcpSegment, UdpDatagram)):
            fields["tp_src"] = l4.src_port
            fields["tp_dst"] = l4.dst_port
        elif isinstance(l4, IcmpEcho):
            fields["tp_src"] = int(l4.icmp_type)
            fields["tp_dst"] = 0
    elif frame.ethertype == EtherType.ARP and l3 is not None:
        fields["nw_proto"] = l3.opcode
        fields["nw_src"] = l3.sender_ip
        fields["nw_dst"] = l3.target_ip
    return fields


def packet_in_key_reference(data: bytes, in_port: int) -> Optional[Tuple[Optional[int], ...]]:
    """The flow key a controller hands its apps for a PACKET_IN, by the
    decode route: ``decode_ethernet`` and the twelve-tuple read off it.

    ``None`` where either raises, which is when the controller drops the
    PACKET_IN (a malformed LLDP body included).
    """
    try:
        fields = extract_packet_fields_reference(data, in_port)
    except Exception:
        return None
    return field_tuple(fields)
