"""Sharded fabric scaling: packets/sec across worker processes.

The tentpole claim: partitioning a generated fat-tree into per-pod
regions and executing them on forked shard workers scales the
simulation's packet throughput near-linearly in the number of shards —
and the cross-shard fast lane (packed boundary codec + adaptive
lookahead + SPMD barrier) keeps the exchange tax off the critical path.

Two throughput figures are reported side by side per shard count:

* ``wall_pps`` — delivered packets over wall-clock time.  On a
  multi-core host this is the scaling headline; on the single-CPU CI
  container every worker timeshares one core, so wall time stays flat
  (plus IPC overhead) no matter how many shards run.  **Read wall_pps
  with the host cpu count in hand** — the table prints it.
* ``capacity_pps`` — delivered packets over the *critical-path* CPU
  seconds: the busiest worker's ``time.process_time()`` plus the
  coordinator's.  This is the wall throughput the same run achieves once
  each worker owns a core, measured rather than extrapolated: sharding
  genuinely removes work from the critical path or this number does not
  move.  Acceptance floors are asserted on capacity.

The exchange floor: the codec must move >= 5x fewer bytes per
cross-shard message at 4 shards than pickled batches (the pre-codec wire
format) moved for the same deterministic message stream.  The pickled
figure was measured once on that stream and is pinned below as
``PICKLED_BYTES_PER_MESSAGE``.  The floor sits at 4 shards because beyond
that most directed worker pairs share no boundary link and the totals on
both sides are dominated by the 16-byte barrier control words the two
formats pay identically.

``REPRO_BENCH_QUICK=1`` shrinks the workload (fat-tree-k4, shards {1,2})
for CI smoke; the committed ``BENCH_fabric.json`` is generated at full
scale with ``--benchmark-json``.
"""

import os

import pytest

from benchmarks.conftest import print_table
from repro.experiments.fabric import run_fabric_experiment
from repro.obs import TraceCollector

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")

if QUICK:
    FABRIC = "fat-tree-k4"
    SHARD_COUNTS = (1, 2)
    A_B_SHARDS = 2
    PAIRS, PACKETS = 4, 50
    SPEEDUP_FLOOR = None  # smoke: shapes only, too small to assert scaling
    BYTE_RATIO_FLOOR = 2.0  # tiny run: channel tables still amortizing
    # Pickled batches: 32,864 B for 400 cross-shard messages.
    PICKLED_BYTES_PER_MESSAGE = 82.16
else:
    FABRIC = "fat-tree-k8"
    SHARD_COUNTS = (1, 2, 4, 8)
    A_B_SHARDS = 4
    PAIRS, PACKETS = 64, 250
    SPEEDUP_FLOOR = 3.2  # acceptance floor at max shards (target: >= 4x)
    BYTE_RATIO_FLOOR = 5.0
    # Pickled batches: 3,417,324 B for 32,000 cross-shard messages.
    PICKLED_BYTES_PER_MESSAGE = 106.79

INTERVAL_S = 0.002


def _run(shards, **kwargs):
    return run_fabric_experiment(
        FABRIC, pairs=PAIRS, packets=PACKETS, interval_s=INTERVAL_S,
        shards=shards, **kwargs,
    )


def test_fabric_packets_per_sec_scaling(benchmark):
    def run_all():
        return {shards: _run(shards) for shards in SHARD_COUNTS}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    baseline = results[SHARD_COUNTS[0]]
    rows = []
    for shards, result in results.items():
        capacity_speedup = (
            result.capacity_packets_per_sec / baseline.capacity_packets_per_sec
        )
        rows.append((
            shards,
            f"{result.wall_s:.2f} s",
            f"{result.wall_packets_per_sec:,.0f}",
            f"{result.capacity_packets_per_sec:,.0f}",
            f"{capacity_speedup:.2f}x",
            f"{result.exchange_bytes:,}",
        ))
    cpus = os.cpu_count() or 1
    print_table(
        f"Sharded {FABRIC}: {baseline.switches} switches, "
        f"{PAIRS} pairs x {PACKETS} packets (host cpus={cpus}; wall pps "
        f"is cpu-bound below shard count)",
        ("shards", "wall", "wall pps", "capacity pps", "capacity speedup",
         "exchange bytes"),
        rows,
    )

    expected = PAIRS * PACKETS
    for shards, result in results.items():
        # Shard-count invariance: identical delivery and event counts.
        assert result.packets_delivered == result.packets_sent == expected
        assert result.processed_events == baseline.processed_events
        assert result.cross_shard_messages == baseline.cross_shard_messages
        assert result.epochs == baseline.epochs

    # Exchange floor: the codec's bytes per message against the pinned
    # pickled figure for the same stream.
    top = results[SHARD_COUNTS[-1]]
    ab = results[A_B_SHARDS]
    per_msg = ab.exchange_bytes / ab.cross_shard_messages
    byte_ratio = PICKLED_BYTES_PER_MESSAGE / per_msg
    print_table(
        f"Exchange wire formats at {A_B_SHARDS} shards "
        f"({ab.cross_shard_messages} cross-shard messages)",
        ("format", "bytes", "blobs", "B/message"),
        [
            ("packed codec", f"{ab.exchange_bytes:,}",
             ab.exchange_blobs, f"{per_msg:.1f}"),
            ("pickled batches (pinned)", "-", "-",
             f"{PICKLED_BYTES_PER_MESSAGE:.1f}"),
        ],
    )

    benchmark.extra_info["fabric"] = FABRIC
    benchmark.extra_info["switches"] = baseline.switches
    benchmark.extra_info["hosts"] = baseline.hosts
    benchmark.extra_info["regions"] = baseline.regions
    benchmark.extra_info["packets"] = expected
    benchmark.extra_info["cpus"] = cpus
    benchmark.extra_info["quick"] = QUICK
    benchmark.extra_info["epochs"] = baseline.epochs
    benchmark.extra_info["epochs_skipped"] = baseline.epochs_skipped
    benchmark.extra_info["epochs_widened"] = baseline.epochs_widened
    for shards, result in results.items():
        benchmark.extra_info[f"shards{shards}_wall_s"] = round(result.wall_s, 3)
        benchmark.extra_info[f"shards{shards}_wall_pps"] = round(
            result.wall_packets_per_sec, 1
        )
        benchmark.extra_info[f"shards{shards}_capacity_pps"] = round(
            result.capacity_packets_per_sec, 1
        )
        benchmark.extra_info[f"shards{shards}_worker_cpu_s"] = [
            round(cpu, 3) for cpu in result.worker_cpu_s
        ]
        benchmark.extra_info[f"shards{shards}_exchange_bytes"] = (
            result.exchange_bytes
        )
        benchmark.extra_info[f"shards{shards}_exchange_blobs"] = (
            result.exchange_blobs
        )

    speedup = top.capacity_packets_per_sec / baseline.capacity_packets_per_sec
    benchmark.extra_info["capacity_speedup_at_max_shards"] = round(speedup, 2)
    benchmark.extra_info["codec_byte_ratio"] = round(byte_ratio, 2)
    benchmark.extra_info["codec_bytes_per_message"] = round(per_msg, 1)
    if SPEEDUP_FLOOR is not None:
        assert speedup >= SPEEDUP_FLOOR, (
            f"capacity speedup at {SHARD_COUNTS[-1]} shards only "
            f"{speedup:.2f}x (floor {SPEEDUP_FLOOR}x)"
        )
    assert per_msg * BYTE_RATIO_FLOOR <= PICKLED_BYTES_PER_MESSAGE, (
        f"codec only saved {byte_ratio:.2f}x bytes vs pickled batches "
        f"(floor {BYTE_RATIO_FLOOR}x)"
    )


@pytest.mark.skipif(QUICK, reason="quick mode skips the large-fabric campaign")
def test_registered_attack_campaign_on_125_switch_fabric(benchmark):
    """A registered attack campaign completes against a 125-switch
    fat-tree-k10, and its trace export is shard-count invariant."""

    def run_pair():
        inline_trace, pooled_trace = TraceCollector(), TraceCollector()
        inline = run_fabric_experiment(
            "fat-tree-k10", controller="floodlight",
            attack="flow-mod-suppression", pairs=8, packets=2,
            shards=1, trace=inline_trace,
        )
        pooled = run_fabric_experiment(
            "fat-tree-k10", controller="floodlight",
            attack="flow-mod-suppression", pairs=8, packets=2,
            shards=4, trace=pooled_trace,
        )
        return inline, inline_trace, pooled, pooled_trace

    inline, inline_trace, pooled, pooled_trace = benchmark.pedantic(
        run_pair, rounds=1, iterations=1)
    assert inline.switches == 125
    assert inline.flow_mods_dropped > 0
    assert inline.ping_sent == 16
    assert inline_trace.to_jsonl() == pooled_trace.to_jsonl()
    assert inline_trace.events_total == pooled_trace.events_total > 0
    print_table(
        "fat-tree-k10 suppression campaign (125 switches)",
        ("shards", "pings", "flow-mods dropped", "trace events", "wall"),
        [
            (1, f"{inline.ping_received}/{inline.ping_sent}",
             inline.flow_mods_dropped, inline_trace.events_total,
             f"{inline.wall_s:.2f} s"),
            (4, f"{pooled.ping_received}/{pooled.ping_sent}",
             pooled.flow_mods_dropped, pooled_trace.events_total,
             f"{pooled.wall_s:.2f} s"),
        ],
    )
    benchmark.extra_info["switches"] = inline.switches
    benchmark.extra_info["flow_mods_dropped"] = inline.flow_mods_dropped
    benchmark.extra_info["trace_events"] = inline_trace.events_total
    benchmark.extra_info["shard_invariant"] = (
        inline_trace.to_jsonl() == pooled_trace.to_jsonl()
    )
