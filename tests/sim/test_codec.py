"""Round-trip property tests for the packed boundary codec.

The codec is a *stateful* wire format: channel names, payload tables and
sequence deltas all live per directed stream.  Every test therefore
round-trips through one encoder/decoder pair and checks exact equality
with the input batches — fidelity is the whole contract, because the
shard determinism suite compares merged traces byte-for-byte.
"""

import pickle

import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the base image
    HAVE_HYPOTHESIS = False

from repro.sim.codec import (
    MESSAGE_HEADER_BYTES,
    PAYLOAD_CACHE,
    BatchDecoder,
    BatchEncoder,
)

OPS = ("frame", "data", "open", "close")


def roundtrip(batches):
    """Feed ``batches`` through one stream; return the decoded batches."""
    encoder = BatchEncoder()
    decoder = BatchDecoder()
    return [decoder.decode(encoder.encode(batch)) for batch in batches]


def test_empty_batch():
    assert roundtrip([{}]) == [{}]


def test_single_message():
    batch = {3: [(1.5, "link:000001:a", 7, "frame", b"payload")]}
    assert roundtrip([batch]) == [batch]


def test_empty_payload():
    batch = {0: [(0.0, "ctl:c1", 1, "open", b"")]}
    assert roundtrip([batch]) == [batch]


def test_oversized_payload_uses_wide_length():
    payload = bytes(range(256)) * 300  # 76800 B > the u16 length field
    batch = {1: [(2.0, "link:000002:b", 9, "frame", payload)]}
    assert roundtrip([batch]) == [batch]


def test_wide_seq_delta():
    batch = {1: [
        (1.0, "chan", 5, "frame", b"x"),
        (2.0, "chan", 5 + 0x10000 + 3, "frame", b"y"),
    ]}
    assert roundtrip([batch]) == [batch]


def test_repeated_payload_is_elided():
    """The second send of the same payload on a channel ships no bytes."""
    payload = b"z" * 500
    encoder = BatchEncoder()
    decoder = BatchDecoder()
    first = encoder.encode({0: [(1.0, "chan", 1, "frame", payload)]})
    second = encoder.encode({0: [(2.0, "chan", 2, "frame", payload)]})
    assert len(first) > 500
    assert len(second) <= MESSAGE_HEADER_BYTES + 10  # header + blob head only
    assert decoder.decode(first) == {0: [(1.0, "chan", 1, "frame", payload)]}
    assert decoder.decode(second) == {0: [(2.0, "chan", 2, "frame", payload)]}


def test_interleaved_flows_all_elide():
    """Distinct payloads alternating on one channel each dedup — the
    failure mode of last-payload elision that the table design fixes."""
    a, b = b"A" * 200, b"B" * 200
    encoder = BatchEncoder()
    decoder = BatchDecoder()
    warm = {0: [(0.0, "chan", 0, "frame", a), (0.1, "chan", 1, "frame", b)]}
    assert decoder.decode(encoder.encode(warm)) == warm
    steady = {0: [
        (1.0, "chan", 2, "frame", a),
        (1.1, "chan", 3, "frame", b),
        (1.2, "chan", 4, "frame", a),
        (1.3, "chan", 5, "frame", b),
    ]}
    blob = encoder.encode(steady)
    assert len(blob) < 4 * (MESSAGE_HEADER_BYTES + 2) + 8
    assert decoder.decode(blob) == steady


def test_channel_names_sent_once_per_stream():
    chan = "link:" + "x" * 60
    batch1 = {0: [(1.0, chan, 1, "frame", b"p")]}
    batch2 = {0: [(2.0, chan, 2, "frame", b"q")]}
    encoder = BatchEncoder()
    first = encoder.encode(batch1)
    second = encoder.encode(batch2)
    assert len(first) - len(second) >= len(chan)


def test_payload_table_overflow_stays_mirrored():
    """Pushing past PAYLOAD_CACHE clears both tables identically."""
    encoder = BatchEncoder()
    decoder = BatchDecoder()
    seq = 0
    for round_no in range(3):
        batch = {0: []}
        for i in range(PAYLOAD_CACHE + 10):
            payload = b"%d:%d" % (round_no, i)
            batch[0].append((float(seq), "chan", seq, "frame", payload))
            seq += 1
        # Re-reference a payload that must still be resident post-clear.
        batch[0].append((float(seq), "chan", seq, "frame",
                         b"%d:%d" % (round_no, PAYLOAD_CACHE + 9)))
        seq += 1
        assert decoder.decode(encoder.encode(batch)) == batch


def test_multi_region_batch_ordering():
    batch = {
        5: [(1.0, "c5", 1, "frame", b"five")],
        2: [(1.0, "c2", 2, "data", b"two"), (2.0, "c2", 3, "close", b"")],
        9: [(0.5, "c9", 4, "open", b"nine")],
    }
    (decoded,) = roundtrip([batch])
    assert decoded == batch
    assert list(decoded) == sorted(batch)  # rids emitted in sorted order


if HAVE_HYPOTHESIS:
    message = st.tuples(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=1000),
            min_size=1, max_size=40,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(OPS),
        st.binary(max_size=300),
    )
    batch_strategy = st.dictionaries(
        st.integers(min_value=0, max_value=64),
        st.lists(message, max_size=20),
        max_size=5,
    )

    def _bind_channels(batches):
        """Pin each channel to the first region it appears under — the
        invariant the real exchange guarantees (a boundary channel has
        exactly one destination region)."""
        owner = {}
        bound_batches = []
        for batch in batches:
            bound = {}
            for rid in sorted(batch):
                for message in batch[rid]:
                    dest = owner.setdefault(message[1], rid)
                    bound.setdefault(dest, []).append(message)
            bound_batches.append(bound)
        return bound_batches

    @settings(max_examples=150, deadline=None)
    @given(st.lists(batch_strategy, min_size=1, max_size=4))
    def test_stream_roundtrip_property(batches):
        batches = _bind_channels(batches)
        assert roundtrip(batches) == batches

    @settings(max_examples=50, deadline=None)
    @given(st.lists(batch_strategy, min_size=1, max_size=3))
    def test_codec_matches_pickle_semantics(batches):
        batches = _bind_channels(batches)
        via_codec = roundtrip(batches)
        via_pickle = [pickle.loads(pickle.dumps(b)) for b in batches]
        for decoded, pickled in zip(via_codec, via_pickle):
            assert decoded == {r: pickled[r] for r in sorted(pickled)}
