"""``ofp_match`` — the OpenFlow 1.0 twelve-tuple flow match."""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Optional, Tuple

from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.netlib.flowkey import MATCH_FIELD_NAMES, extract_flow_key
from repro.openflow.constants import (
    NW_DST_MASK,
    NW_DST_SHIFT,
    NW_SRC_MASK,
    NW_SRC_SHIFT,
    OFPFW_ALL,
    Wildcards,
)

#: ``ofp_match``: the wildcard word, then each MAC as (high 16, low 32)
#: bits and each IPv4 address as one int, so a packed match maps onto the
#: flow key field by field.  FLOW_MOD's layout embeds it.
MATCH_FORMAT = "IHHIHIHBxHBBxxIIHH"
_MATCH = struct.Struct("!" + MATCH_FORMAT)
MATCH_SIZE = _MATCH.size  # 40 bytes

OFP_VLAN_NONE = 0xFFFF

_NW_SRC = MATCH_FIELD_NAMES.index("nw_src")
_NW_DST = MATCH_FIELD_NAMES.index("nw_dst")

#: (key position, wildcard flag) of the ten fields without a CIDR prefix;
#: each flag is named after its field.
_SIMPLE_WILDCARDS: Tuple[Tuple[int, int], ...] = tuple(
    (MATCH_FIELD_NAMES.index(flag.name.lower()), int(flag)) for flag in Wildcards
)

# MATCH_FIELD_NAMES is re-exported from repro.netlib.flowkey (imported
# above) — the single-pass extractor and this module must agree on the
# tuple order.


def _field(pos: int, to_int: Callable[[Any], int] = int,
           wrap: Optional[Callable[[int], Any]] = None) -> property:
    """The match field at key position ``pos``: it reads as ``wrap`` of
    the key's int (the int itself without ``wrap``), and a value set is
    stored as ``to_int`` of it."""
    def get(self: "Match") -> Any:
        value = self.key[pos]
        return value if value is None or wrap is None else wrap(value)

    def set_(self: "Match", value: Any) -> None:
        key = self.key
        stored = None if value is None else to_int(value)
        self.key = key[:pos] + (stored,) + key[pos + 1:]

    return property(get, set_, doc=f"``{MATCH_FIELD_NAMES[pos]}`` (None: wildcarded)")


def wire_fields(key: Tuple[Optional[int], ...], nw_src_prefix: int = 32,
                nw_dst_prefix: int = 32) -> Tuple[int, ...]:
    """The values :data:`MATCH_FORMAT` packs for the match on flow key
    ``key`` (``None`` fields wildcarded, packed as 0); no Match is built."""
    if None in key:
        src_wild = 32 if key[_NW_SRC] is None else 32 - nw_src_prefix
        dst_wild = 32 if key[_NW_DST] is None else 32 - nw_dst_prefix
        wildcards = min(src_wild, 63) << NW_SRC_SHIFT | min(dst_wild, 63) << NW_DST_SHIFT
        for pos, flag in _SIMPLE_WILDCARDS:
            if key[pos] is None:
                wildcards |= flag
        key = [0 if value is None else value for value in key]
    else:
        wildcards = (32 - nw_src_prefix) << NW_SRC_SHIFT | (32 - nw_dst_prefix) << NW_DST_SHIFT
    dl_src, dl_dst = key[1], key[2]
    return (wildcards, key[0], dl_src >> 32, dl_src & 0xFFFFFFFF,
            dl_dst >> 32, dl_dst & 0xFFFFFFFF, *key[3:])


def _mac_int(value: Any) -> int:
    return int(MacAddress(value))


def _ip_int(value: Any) -> int:
    return int(Ipv4Address(value))


class Match:
    """A flow match where ``None`` fields are wildcarded.

    The match is stored as its flow key: ``key`` holds the twelve fields
    in :data:`MATCH_FIELD_NAMES` order, addresses as their integer
    values, wildcarded fields as ``None`` — the form
    ``extract_flow_key`` gives a packet.  The field names are properties
    over it: ``dl_src``/``dl_dst`` read as :class:`MacAddress` and
    ``nw_src``/``nw_dst`` as :class:`Ipv4Address`, and each accepts
    whatever its address constructor accepts.

    ``nw_src``/``nw_dst`` may carry an optional prefix length via
    ``nw_src_prefix``/``nw_dst_prefix`` (default 32 = exact host match).
    """

    __slots__ = ("key", "nw_src_prefix", "nw_dst_prefix")

    in_port = _field(0)
    dl_src = _field(1, _mac_int, MacAddress)
    dl_dst = _field(2, _mac_int, MacAddress)
    dl_vlan = _field(3)
    dl_vlan_pcp = _field(4)
    dl_type = _field(5)
    nw_tos = _field(6)
    nw_proto = _field(7)
    nw_src = _field(_NW_SRC, _ip_int, Ipv4Address)
    nw_dst = _field(_NW_DST, _ip_int, Ipv4Address)
    tp_src = _field(10)
    tp_dst = _field(11)

    def __init__(
        self,
        in_port: Optional[int] = None,
        dl_src: Optional[MacAddress] = None,
        dl_dst: Optional[MacAddress] = None,
        dl_vlan: Optional[int] = None,
        dl_vlan_pcp: Optional[int] = None,
        dl_type: Optional[int] = None,
        nw_tos: Optional[int] = None,
        nw_proto: Optional[int] = None,
        nw_src: Optional[Ipv4Address] = None,
        nw_dst: Optional[Ipv4Address] = None,
        tp_src: Optional[int] = None,
        tp_dst: Optional[int] = None,
        nw_src_prefix: int = 32,
        nw_dst_prefix: int = 32,
    ) -> None:
        self.key = (
            None if in_port is None else int(in_port),
            None if dl_src is None else _mac_int(dl_src),
            None if dl_dst is None else _mac_int(dl_dst),
            None if dl_vlan is None else int(dl_vlan),
            None if dl_vlan_pcp is None else int(dl_vlan_pcp),
            None if dl_type is None else int(dl_type),
            None if nw_tos is None else int(nw_tos),
            None if nw_proto is None else int(nw_proto),
            None if nw_src is None else _ip_int(nw_src),
            None if nw_dst is None else _ip_int(nw_dst),
            None if tp_src is None else int(tp_src),
            None if tp_dst is None else int(tp_dst),
        )
        for name, prefix in (("nw_src_prefix", nw_src_prefix), ("nw_dst_prefix", nw_dst_prefix)):
            if not 0 <= prefix <= 32:
                raise ValueError(f"{name} out of range: {prefix!r}")
        self.nw_src_prefix = nw_src_prefix
        self.nw_dst_prefix = nw_dst_prefix

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_key(cls, key: Tuple[Optional[int], ...]) -> "Match":
        """The exact match on a twelve-field flow key, taken as is."""
        match = cls.__new__(cls)
        match.key = key
        match.nw_src_prefix = 32
        match.nw_dst_prefix = 32
        return match

    @classmethod
    def wildcard_all(cls) -> "Match":
        """The match-everything match (used by DELETE-all flow mods)."""
        return cls()

    @classmethod
    def from_packet(cls, data: bytes, in_port: int) -> "Match":
        """Extract the exact twelve-tuple from raw Ethernet bytes.

        This mirrors OVS's flow-key extraction: every field the packet
        defines becomes an exact-match field.
        """
        return cls.from_key(extract_flow_key(data, in_port))

    # ------------------------------------------------------------------ #
    # Matching semantics
    # ------------------------------------------------------------------ #

    def matches_packet(self, data: bytes, in_port: int) -> bool:
        """True if a raw packet arriving on ``in_port`` satisfies this match."""
        return self.subsumes(Match.from_packet(data, in_port))

    def is_strict_equal(self, other: "Match") -> bool:
        """Strict flow-mod comparison: identical fields and wildcards."""
        return self.pack() == other.pack()

    def subsumes(self, other: "Match") -> bool:
        """True if every packet matching ``other`` also matches ``self``.

        Used for non-strict DELETE/MODIFY flow-mod semantics.
        """
        mine, theirs = self.key, other.key
        for pos, _flag in _SIMPLE_WILDCARDS:
            if mine[pos] is not None and mine[pos] != theirs[pos]:
                return False
        for pos, my_prefix, their_prefix in (
            (_NW_SRC, self.nw_src_prefix, other.nw_src_prefix),
            (_NW_DST, self.nw_dst_prefix, other.nw_dst_prefix),
        ):
            if mine[pos] is None or my_prefix == 0:
                continue
            if theirs[pos] is None or their_prefix < my_prefix:
                return False
            if (mine[pos] ^ theirs[pos]) >> (32 - my_prefix):
                return False  # they differ within the prefix
        return True

    # ------------------------------------------------------------------ #
    # Wire format
    # ------------------------------------------------------------------ #

    @property
    def wildcards(self) -> int:
        """Compute the ``ofp_flow_wildcards`` word for the current fields."""
        return self.wire_fields()[0]

    def wire_fields(self) -> Tuple[int, ...]:
        """The values :data:`MATCH_FORMAT` packs, wildcarded fields as 0."""
        return wire_fields(self.key, self.nw_src_prefix, self.nw_dst_prefix)

    def pack(self) -> bytes:
        return _MATCH.pack(*self.wire_fields())

    @classmethod
    def unpack(cls, data: bytes) -> "Match":
        if len(data) < MATCH_SIZE:
            raise ValueError(f"match too short: {len(data)} < {MATCH_SIZE}")
        return cls.from_wire_fields(*_MATCH.unpack_from(data))

    @classmethod
    def from_wire_fields(cls, wildcards: int, in_port: int, src_hi: int, src_lo: int,
                         dst_hi: int, dst_lo: int, *rest: int) -> "Match":
        """The match :meth:`wire_fields` gave these values."""
        wildcards &= OFPFW_ALL
        if not wildcards:
            return cls.from_key((in_port, src_hi << 32 | src_lo, dst_hi << 32 | dst_lo, *rest))
        key = [in_port, src_hi << 32 | src_lo, dst_hi << 32 | dst_lo, *rest]
        for pos, flag in _SIMPLE_WILDCARDS:
            if wildcards & flag:
                key[pos] = None
        src_wild = min((wildcards & NW_SRC_MASK) >> NW_SRC_SHIFT, 32)
        dst_wild = min((wildcards & NW_DST_MASK) >> NW_DST_SHIFT, 32)
        if src_wild == 32:
            key[_NW_SRC] = None
        if dst_wild == 32:
            key[_NW_DST] = None
        match = cls.from_key(tuple(key))
        match.nw_src_prefix = 32 - src_wild if src_wild < 32 else 32
        match.nw_dst_prefix = 32 - dst_wild if dst_wild < 32 else 32
        return match

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def specified_fields(self) -> Dict[str, Any]:
        """Return only the non-wildcarded fields (for logging/conditionals)."""
        fields = {}
        for name in MATCH_FIELD_NAMES:
            value = getattr(self, name)
            if value is not None:
                fields[name] = value
        return fields

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Match):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.specified_fields().items())
        return f"Match({parts or 'wildcard-all'})"
