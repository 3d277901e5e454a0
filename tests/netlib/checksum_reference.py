"""The RFC 1071 word loop: the oracle for ``internet_checksum``.

``repro.netlib.ipv4.internet_checksum`` reduces the whole buffer as one
integer; this is the textbook form it replaced, kept as the reference the
property tests compare against.
"""

import struct


def internet_checksum_reference(data: bytes) -> int:
    """One's-complement sum of 16-bit words with end-around carry."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF
