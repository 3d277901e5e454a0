"""Shard-exchange microbenchmark: packed codec vs per-message pickling.

Isolates the cross-shard fast lane's serial tax from the simulation
around it.  A realistic boundary stream (many channels, a few flows per
channel, steady frame payloads with a sprinkle of control messages) is
pushed through two exchange disciplines over the *same* transport
primitive — a ``multiprocessing.Pipe`` connection, the substrate
``multiprocessing`` queues are built on:

* **packed codec** — one ``BatchEncoder`` blob per (peer, epoch),
  one ``send_bytes`` each.
* **per-message pickling** — each ``(rid, message)`` tuple pickled and
  sent on its own, the wire discipline of routing messages through a
  ``multiprocessing`` queue one at a time.

Both time (full serialize -> transfer -> deserialize round trip) and
bytes on the wire are compared.  The assertions are the PR acceptance
floors: the codec must be >= 3x faster and move >= 5x fewer bytes.
"""

import multiprocessing as mp
import pickle
import time

from benchmarks.conftest import print_table
from repro.sim.codec import BatchDecoder, BatchEncoder

ROUNDS = 200
CHANNELS = 16
FLOWS_PER_CHANNEL = 4
REGIONS = 4

SPEED_FLOOR = 3.0
BYTE_FLOOR = 5.0


def _build_rounds():
    """ROUNDS epoch batches of steady cross-boundary traffic."""
    frames = {}

    def frame(chan, flow):
        key = (chan, flow)
        if key not in frames:
            # An Ethernet/IP/UDP-sized frame, distinct per flow.
            frames[key] = bytes([flow + 1, chan & 0xFF]) * 53
        return frames[key]

    rounds = []
    seq = 0
    for r in range(ROUNDS):
        batch = {}
        for c in range(CHANNELS):
            messages = batch.setdefault(c % REGIONS, [])
            for f in range(FLOWS_PER_CHANNEL):
                seq += 1
                messages.append((
                    r * 0.002 + c * 1e-5 + f * 1e-7,
                    f"link:{c:06d}:a",
                    seq,
                    "frame",
                    frame(c, f),
                ))
        # A control-plane message with a never-repeating payload.
        seq += 1
        batch.setdefault(0, []).append((
            r * 0.002 + 1e-4, "ctl:c1", seq, "data",
            b"\x04\x0a" + r.to_bytes(4, "big") + b"\x00" * 58,
        ))
        rounds.append(batch)
    return rounds


def _codec_pass(rounds):
    rx, tx = mp.Pipe(duplex=False)
    encoder, decoder = BatchEncoder(), BatchDecoder()
    started = time.perf_counter()
    total = 0
    received = []
    for batch in rounds:
        blob = encoder.encode(batch)
        tx.send_bytes(blob)
        total += 4 + len(blob)  # 4B length framing, as on the worker mesh
        received.append(decoder.decode(rx.recv_bytes()))
    elapsed = time.perf_counter() - started
    rx.close()
    tx.close()
    assert received == rounds
    return elapsed, total


def _per_message_pickle_pass(rounds):
    rx, tx = mp.Pipe(duplex=False)
    started = time.perf_counter()
    total = 0
    received = []
    for batch in rounds:
        count = 0
        for rid, messages in batch.items():
            for message in messages:
                wire = pickle.dumps((rid, message), pickle.HIGHEST_PROTOCOL)
                tx.send_bytes(wire)
                total += 4 + len(wire)
                count += 1
        decoded = {}
        for _ in range(count):
            rid, message = pickle.loads(rx.recv_bytes())
            decoded.setdefault(rid, []).append(message)
        received.append(decoded)
    elapsed = time.perf_counter() - started
    rx.close()
    tx.close()
    assert received == rounds
    return elapsed, total


def test_codec_beats_per_message_pickling(benchmark):
    rounds = _build_rounds()
    message_count = sum(
        len(messages) for batch in rounds for messages in batch.values()
    )

    def run_ab():
        # Interleaved best-of-3 after a warmup round, so a scheduler
        # hiccup on a shared CI core cannot decide the ratio.
        _codec_pass(rounds)
        _per_message_pickle_pass(rounds)
        codec_times, pickle_times = [], []
        for _ in range(3):
            elapsed, codec_bytes = _codec_pass(rounds)
            codec_times.append(elapsed)
            elapsed, pickle_bytes = _per_message_pickle_pass(rounds)
            pickle_times.append(elapsed)
        return min(codec_times), codec_bytes, min(pickle_times), pickle_bytes

    codec_s, codec_bytes, pickle_s, pickle_bytes = benchmark.pedantic(
        run_ab, rounds=1, iterations=1
    )
    speed_ratio = pickle_s / codec_s
    byte_ratio = pickle_bytes / codec_bytes
    print_table(
        f"Exchange fast lane: {message_count} messages over "
        f"{ROUNDS} epochs ({CHANNELS} channels x {FLOWS_PER_CHANNEL} flows)",
        ("discipline", "time", "us/message", "bytes", "B/message"),
        [
            ("packed codec", f"{codec_s * 1e3:.1f} ms",
             f"{codec_s * 1e6 / message_count:.2f}",
             f"{codec_bytes:,}", f"{codec_bytes / message_count:.1f}"),
            ("per-message pickle", f"{pickle_s * 1e3:.1f} ms",
             f"{pickle_s * 1e6 / message_count:.2f}",
             f"{pickle_bytes:,}", f"{pickle_bytes / message_count:.1f}"),
        ],
    )
    benchmark.extra_info["messages"] = message_count
    benchmark.extra_info["speed_ratio"] = round(speed_ratio, 2)
    benchmark.extra_info["byte_ratio"] = round(byte_ratio, 2)
    benchmark.extra_info["codec_us_per_message"] = round(
        codec_s * 1e6 / message_count, 3
    )
    benchmark.extra_info["codec_bytes_per_message"] = round(
        codec_bytes / message_count, 1
    )
    assert speed_ratio >= SPEED_FLOOR, (
        f"codec only {speed_ratio:.2f}x faster than per-message pickling "
        f"(floor {SPEED_FLOOR}x)"
    )
    assert byte_ratio >= BYTE_FLOOR, (
        f"codec only saved {byte_ratio:.2f}x bytes "
        f"(floor {BYTE_FLOOR}x)"
    )
