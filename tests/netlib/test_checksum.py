"""``internet_checksum`` against the RFC 1071 word loop, bit for bit."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netlib.ipv4 import internet_checksum
from tests.netlib.checksum_reference import internet_checksum_reference

MAX_LEN = 70_000


@st.composite
def buffers(draw):
    """Any length up to ``MAX_LEN``, filled with random, zero or 0xFF bytes."""
    length = draw(st.integers(0, MAX_LEN))
    fill = draw(st.sampled_from(("random", "zero", "ones")))
    if fill == "zero":
        return bytes(length)
    if fill == "ones":
        return b"\xff" * length
    return random.Random(draw(st.integers(0, 2**32 - 1))).randbytes(length)


@settings(max_examples=300, deadline=None)
@given(buffers())
@example(b"")
@example(b"\x00")
@example(bytes(20))
@example(b"\xff")
@example(b"\xff" * 20)
@example(b"\xff" * (MAX_LEN - 1))
def test_matches_word_loop_at_any_length(data):
    assert internet_checksum(data) == internet_checksum_reference(data)


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=64))
def test_matches_word_loop_on_short_buffers(data):
    assert internet_checksum(data) == internet_checksum_reference(data)


@pytest.mark.parametrize("data, expected", [
    (b"", 0xFFFF),               # empty: the sum is 0
    (bytes(21), 0xFFFF),         # all zero, odd length
    (b"\xff\xff", 0x0000),       # the sum is 0xFFFF ("negative zero")
    (b"\x00\x01\xf2\x03\xf4\xf5\xf6\xf7", 0x220D),  # RFC 1071 section 3 example
])
def test_known_values(data, expected):
    assert internet_checksum(data) == expected

