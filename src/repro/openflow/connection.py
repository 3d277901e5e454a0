"""Stream framing for OpenFlow connections.

Control-plane connections are byte streams (TCP in the paper's testbed);
the framer accumulates bytes and yields complete OpenFlow messages using
the length field in each header, exactly as a socket-based implementation
would.  The injector's proxy and both endpoint stacks share this class.
"""

from __future__ import annotations

import struct
from typing import List

from repro.openflow.constants import OFP_HEADER_SIZE
from repro.openflow.messages import OpenFlowDecodeError, OpenFlowMessage, parse_message

_LENGTH = struct.Struct("!H")


class MessageFramer:
    """Reassembles OpenFlow messages from an in-order byte stream."""

    def __init__(self, max_buffer: int = 1 << 22) -> None:
        self._buffer = bytearray()
        self._max_buffer = max_buffer

    def feed(self, data: bytes) -> List[OpenFlowMessage]:
        """Append stream bytes; return every now-complete message in order."""
        return [parse_message(frame) for frame in self.feed_frames(data)]

    def feed_frames(self, data: bytes) -> List[bytes]:
        """Append stream bytes; return every now-complete raw frame in order.

        This is the injector's zero-copy fast lane: frames are delimited
        using only the length field in each 8-byte header, so interposed
        messages can be forwarded byte-identical without ever decoding (or
        re-encoding) the body.  Callers that need the decoded message use
        :func:`parse_message` lazily.

        With nothing buffered (every sender writes whole messages) a chunk
        that is one message is returned as its frame, and only a partial
        tail is copied into the buffer.  A decode error leaves the buffer
        holding the stream from the failing header on.
        """
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        elif type(data) is not bytes:
            data = bytes(data)
        size = len(data)
        if size > self._max_buffer:
            if data is not buffer:
                buffer += data
            raise OpenFlowDecodeError(
                f"framer buffer overflow ({size} bytes); "
                "peer is sending garbage or an unterminated message"
            )
        if (data is not buffer and size >= OFP_HEADER_SIZE
                and _LENGTH.unpack_from(data, 2)[0] == size):
            return [data]
        frames: List[bytes] = []
        offset = 0
        try:
            while size - offset >= OFP_HEADER_SIZE:
                (length,) = _LENGTH.unpack_from(data, offset + 2)
                if length < OFP_HEADER_SIZE:
                    raise OpenFlowDecodeError(f"header claims impossible length {length}")
                end = offset + length
                if end > size:
                    break
                frames.append(bytes(data[offset:end]))
                offset = end
        finally:
            if data is buffer:
                del buffer[:offset]
            elif offset < size:
                buffer += data[offset:]
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def reset(self) -> None:
        """Discard buffered bytes (connection teardown)."""
        self._buffer.clear()
