"""OpenFlow 1.0 flow actions (``ofp_action_*``)."""

from __future__ import annotations

import struct
from typing import ClassVar, List, Optional, Tuple

from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.openflow.constants import ActionType

_TLV = struct.Struct("!HH")
_OUTPUT = struct.Struct("!HHHH")
_OUTPUT_BODY = struct.Struct("!HH")
_OUTPUT_TYPE = int(ActionType.OUTPUT)
#: ``(type, length)`` of an OUTPUT action's TLV header: the whole action
#: list of a FLOW_MOD or PACKET_OUT that forwards out of one port.
_LONE_OUTPUT = (_OUTPUT_TYPE, _OUTPUT.size)


class ActionDecodeError(Exception):
    """Raised when an action TLV cannot be decoded."""


def pack_output(port: int, max_len: int = 0xFFFF) -> bytes:
    """The OUTPUT action TLV to ``port`` as wire bytes."""
    return _OUTPUT.pack(_OUTPUT_TYPE, _OUTPUT.size, port, max_len)


class Action:
    """Base class for flow actions; subclasses register by ``ActionType``."""

    action_type: ActionType
    body_size: ClassVar[Optional[int]] = None  # fixed body length, if any
    _registry: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if hasattr(cls, "action_type"):
            Action._registry[int(cls.action_type)] = cls

    def pack_body(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def unpack_body(cls, body: bytes) -> "Action":
        raise NotImplementedError

    def pack(self) -> bytes:
        body = self.pack_body()
        length = 4 + len(body)
        if length % 8:
            raise ActionDecodeError(
                f"action length must be a multiple of 8, got {length}"
            )
        return _TLV.pack(int(self.action_type), length) + body

    @classmethod
    def check_size(cls, size: int) -> None:
        """Raise :class:`ActionDecodeError` unless a body of ``size``
        bytes fits ``body_size``."""
        if cls.body_size is not None and size != cls.body_size:
            raise ActionDecodeError(f"bad {cls.action_type.name} body length {size}")

    @staticmethod
    def walk(data: bytes, start: int = 0,
             end: Optional[int] = None) -> List[Tuple[int, Optional[type], int, int]]:
        """Each ``(action_type, class or None, body start, body end)`` of
        the action list in ``data[start:end]`` (``end`` defaults to the end
        of ``data``).

        Raises :class:`ActionDecodeError` at the first TLV without a whole
        header, with a length under 8, not a multiple of 8 or past ``end``,
        or with a body :meth:`check_size` refuses.
        """
        if end is None:
            end = len(data)
        tlvs = []
        offset, unpack, registry = start, _TLV.unpack_from, Action._registry
        while offset < end:
            if offset + 4 > end:
                raise ActionDecodeError("truncated action header")
            action_type, length = unpack(data, offset)
            if length < 8 or length % 8 or offset + length > end:
                raise ActionDecodeError(f"bad action length {length}")
            cls = registry.get(action_type)
            if cls is not None:
                cls.check_size(length - 4)
            tlvs.append((action_type, cls, offset + 4, offset + length))
            offset += length
        return tlvs

    @staticmethod
    def valid_list(data: bytes, start: int = 0, end: Optional[int] = None) -> bool:
        """True when :meth:`unpack_list` would decode the same bytes."""
        if end is None:
            end = len(data)
        if end - start == _OUTPUT.size and _TLV.unpack_from(data, start) == _LONE_OUTPUT:
            return True
        try:
            Action.walk(data, start, end)
        except ActionDecodeError:
            return False
        return True

    @staticmethod
    def unpack_list(data: bytes, start: int = 0, end: Optional[int] = None) -> List["Action"]:
        """Decode a contiguous action list (as found in FLOW_MOD/PACKET_OUT).

        A list that is one OUTPUT action, the usual case, is read with one
        ``unpack_from`` in place; anything else goes through :meth:`walk`.
        """
        if end is None:
            end = len(data)
        if end - start == _OUTPUT.size:
            action_type, length, port, max_len = _OUTPUT.unpack_from(data, start)
            if (action_type, length) == _LONE_OUTPUT:
                # Both fields are ints already: skip the constructor's int().
                action = OutputAction.__new__(OutputAction)
                action.port = port
                action.max_len = max_len
                return [action]
        return [UnknownAction(action_type, data[lo:hi]) if cls is None
                else cls.unpack_body(data[lo:hi])
                for action_type, cls, lo, hi in Action.walk(data, start, end)]

    @staticmethod
    def pack_list(actions: List["Action"]) -> bytes:
        return b"".join([action.pack() for action in actions])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Action):
            return self.pack() == other.pack()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pack())


class OutputAction(Action):
    """Send the packet out a port (``ofp_action_output``)."""

    action_type = ActionType.OUTPUT
    body_size = 4

    def __init__(self, port: int, max_len: int = 0xFFFF) -> None:
        self.port = int(port)
        self.max_len = int(max_len)

    def pack(self) -> bytes:
        return pack_output(self.port, self.max_len)

    @classmethod
    def unpack_body(cls, body: bytes) -> "OutputAction":
        cls.check_size(len(body))
        return cls(*_OUTPUT_BODY.unpack(body))

    def __repr__(self) -> str:
        return f"OutputAction(port={self.port})"


class StripVlanAction(Action):
    """Strip the VLAN tag (``ofp_action_header`` only)."""

    action_type = ActionType.STRIP_VLAN

    def pack_body(self) -> bytes:
        return b"\x00" * 4

    @classmethod
    def unpack_body(cls, body: bytes) -> "StripVlanAction":
        return cls()

    def __repr__(self) -> str:
        return "StripVlanAction()"


class _SetDlAction(Action):
    """Common base for dl_src/dl_dst rewrites (``ofp_action_dl_addr``)."""

    body_size = 12

    def __init__(self, address: MacAddress) -> None:
        self.address = MacAddress(address)

    def pack_body(self) -> bytes:
        return self.address.packed + b"\x00" * 6

    @classmethod
    def unpack_body(cls, body: bytes):
        cls.check_size(len(body))
        return cls(MacAddress(body[:6]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.address})"


class SetDlSrcAction(_SetDlAction):
    action_type = ActionType.SET_DL_SRC


class SetDlDstAction(_SetDlAction):
    action_type = ActionType.SET_DL_DST


class _SetNwAction(Action):
    """Common base for nw_src/nw_dst rewrites (``ofp_action_nw_addr``)."""

    body_size = 4

    def __init__(self, address: Ipv4Address) -> None:
        self.address = Ipv4Address(address)

    def pack_body(self) -> bytes:
        return self.address.packed

    @classmethod
    def unpack_body(cls, body: bytes):
        cls.check_size(len(body))
        return cls(Ipv4Address(body))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.address})"


class SetNwSrcAction(_SetNwAction):
    action_type = ActionType.SET_NW_SRC


class SetNwDstAction(_SetNwAction):
    action_type = ActionType.SET_NW_DST


class _SetTpAction(Action):
    """Common base for tp_src/tp_dst rewrites (``ofp_action_tp_port``)."""

    body_size = 4

    def __init__(self, port: int) -> None:
        if not 0 <= port <= 0xFFFF:
            raise ValueError(f"transport port out of range: {port!r}")
        self.port = port

    def pack_body(self) -> bytes:
        return struct.pack("!H", self.port) + b"\x00" * 2

    @classmethod
    def unpack_body(cls, body: bytes):
        cls.check_size(len(body))
        (port,) = struct.unpack("!H", body[:2])
        return cls(port)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.port})"


class SetTpSrcAction(_SetTpAction):
    action_type = ActionType.SET_TP_SRC


class SetTpDstAction(_SetTpAction):
    action_type = ActionType.SET_TP_DST


class UnknownAction(Action):
    """An action type this library does not interpret; round-trips as bytes."""

    def __init__(self, raw_type: int, body: bytes) -> None:
        self.raw_type = raw_type
        self.body = bytes(body)

    def pack(self) -> bytes:
        return _TLV.pack(self.raw_type, 4 + len(self.body)) + self.body

    def pack_body(self) -> bytes:  # pragma: no cover - pack() overridden
        return self.body

    def __repr__(self) -> str:
        return f"UnknownAction(type={self.raw_type}, len={len(self.body)})"


def output_actions(*ports: int) -> List[Action]:
    """Convenience constructor for plain forwarding action lists."""
    return [OutputAction(port) for port in ports]
