"""Adversarial workload generation: batch synthesis and overflow pressure.

Two artifacts:

* **Generator throughput** — frames/second synthesizing a distinct-key
  UDP sweep through the :class:`FrameTemplate` batch lane (pre-packed
  buffer + RFC 1624 incremental checksum patch + warm FastFrame key
  caches) vs the naive per-packet object graph
  (``UdpDatagram``/``Ipv4Packet``/``EthernetFrame`` packed from scratch,
  key extracted from the bytes).  The PR acceptance bar is >= 3x.
* **Overflow campaign** — the ``table-overflow`` source against
  LRU-bounded tables on a fat-tree under Floodlight: table occupancy
  peak, evictions by reason, and the PACKET_IN rate, recorded in
  ``--benchmark-json`` (committed as ``BENCH_workloads.json``).

``REPRO_BENCH_QUICK=1`` shrinks both for CI smoke.
"""

import os
import statistics
import time

from benchmarks.conftest import print_table
from repro.experiments.fabric import run_fabric_experiment
from repro.netlib.addresses import Ipv4Address, MacAddress
from repro.netlib.ethernet import EtherType, EthernetFrame
from repro.netlib.flowkey import extract_flow_base
from repro.netlib.ipv4 import IpProtocol, Ipv4Packet
from repro.netlib.udp import UdpDatagram
from repro.workloads import FrameTemplate

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")

SPEEDUP_FLOOR = 3.0
ROUNDS = 3 if QUICK else 7
FRAMES = 20_000 if QUICK else 100_000
KEYS = 2048

SRC_MAC, DST_MAC = MacAddress(0x02A000000001), MacAddress(0x02A000000002)
SRC_IP, DST_IP = Ipv4Address("10.1.0.1"), Ipv4Address("10.1.0.2")


def _naive_sweep(n):
    """Per-packet object-graph construction, key extracted from bytes."""
    frames = 0
    for i in range(n):
        datagram = UdpDatagram(20000 + i % KEYS, 43001, b"\x00" * 18)
        packet = Ipv4Packet(SRC_IP, DST_IP, IpProtocol.UDP, datagram.pack())
        frame = EthernetFrame(DST_MAC, SRC_MAC, EtherType.IPV4,
                              packet.pack()).pack()
        extract_flow_base(frame)
        frames += 1
    return frames


def _batch_sweep(n, template):
    """Template patching: emit() carries the key, nothing re-extracts."""
    frames = 0
    set_port, emit = template.set_tp_src, template.emit
    for i in range(n):
        set_port(20000 + i % KEYS)
        emit()
        frames += 1
    return frames


def _median_seconds(fn, *args):
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_batch_synthesis_speedup(benchmark):
    """The template lane synthesizes flood frames >= 3x faster."""
    template = FrameTemplate.udp(SRC_MAC, DST_MAC, SRC_IP, DST_IP,
                                 20000, 43001)
    naive_s = _median_seconds(_naive_sweep, FRAMES)
    batch_s = _median_seconds(_batch_sweep, FRAMES, template)
    speedup = naive_s / batch_s
    print_table(
        f"Batch packet synthesis — {FRAMES:,} frames, {KEYS} distinct keys",
        ("generator", "wall", "frames/s", "speedup"),
        [
            ("naive object graph", f"{naive_s:.3f} s",
             f"{FRAMES / naive_s:,.0f}", "1.0x"),
            ("template batch lane", f"{batch_s:.3f} s",
             f"{FRAMES / batch_s:,.0f}", f"{speedup:.1f}x"),
        ],
    )
    # The patched stream is byte-faithful: same bytes the naive path packs.
    template.set_tp_src(20000 + 17)
    datagram = UdpDatagram(20000 + 17, 43001, b"\x00" * 18)
    packet = Ipv4Packet(SRC_IP, DST_IP, IpProtocol.UDP, datagram.pack())
    expected = EthernetFrame(DST_MAC, SRC_MAC, EtherType.IPV4,
                             packet.pack()).pack()
    assert bytes(template.emit()) == expected
    assert speedup >= SPEEDUP_FLOOR, f"only {speedup:.1f}x"

    result = benchmark.pedantic(_batch_sweep, args=(FRAMES, template),
                                rounds=ROUNDS, iterations=1)
    assert result == FRAMES
    benchmark.extra_info["frames"] = FRAMES
    benchmark.extra_info["keys"] = KEYS
    benchmark.extra_info["naive_frames_per_s"] = round(FRAMES / naive_s)
    benchmark.extra_info["batch_frames_per_s"] = round(FRAMES / batch_s)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["quick"] = QUICK


if QUICK:
    OVERFLOW = dict(topology="fat-tree-k4", capacity=64, keys=512,
                    schedule="constant:1200", senders=2, duration_s=0.4)
else:
    OVERFLOW = dict(topology="fat-tree-k8", capacity=128, keys=4096,
                    schedule="constant:2000", senders=8, duration_s=1.0)


def test_overflow_campaign_pressure(benchmark):
    """Distinct-key churn saturates bounded tables and sustains eviction."""
    def run():
        return run_fabric_experiment(
            OVERFLOW["topology"], controller="floodlight",
            workload="table-overflow", seed=1,
            table_capacity=OVERFLOW["capacity"], table_eviction="lru",
            workload_params={"schedule": OVERFLOW["schedule"],
                             "keys": OVERFLOW["keys"],
                             "senders": OVERFLOW["senders"],
                             "duration_s": OVERFLOW["duration_s"]},
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Table overflow — {OVERFLOW['keys']} keys vs "
        f"{OVERFLOW['capacity']}-entry LRU tables on {result.fabric}",
        ("metric", "value"),
        [
            ("frames synthesized", f"{result.packets_synthesized:,}"),
            ("PACKET_INs", f"{result.switch_packet_ins:,} "
                           f"({result.packet_in_rate:,.0f}/s)"),
            ("table occupancy peak", result.table_occupancy_peak),
            ("evictions (capacity)", f"{result.evictions_capacity:,}"),
            ("evictions (idle/hard)",
             f"{result.evictions_idle}/{result.evictions_hard}"),
            ("wall", f"{result.wall_s:.2f} s"),
        ],
    )
    # The sweep must overflow: tables pinned at capacity, sustained
    # capacity eviction, and a live PACKET_IN storm.
    assert result.table_occupancy_peak == OVERFLOW["capacity"]
    assert result.evictions_capacity > 0
    assert result.switch_packet_ins > 0
    benchmark.extra_info.update({
        "fabric": result.fabric,
        "table_capacity": OVERFLOW["capacity"],
        "keys": OVERFLOW["keys"],
        "packets_synthesized": result.packets_synthesized,
        "switch_packet_ins": result.switch_packet_ins,
        "packet_in_rate": round(result.packet_in_rate, 1),
        "table_occupancy_peak": result.table_occupancy_peak,
        "evictions_capacity": result.evictions_capacity,
        "evictions_idle": result.evictions_idle,
        "evictions_hard": result.evictions_hard,
        "quick": QUICK,
    })
