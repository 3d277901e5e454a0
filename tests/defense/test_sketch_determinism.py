"""Sketch shard-safety: byte-identical contents at any shard count.

Per-region :class:`~repro.defense.tap.SketchTap` instances merge in
sorted region-id order, so the merged count-min rows, heavy-hitter set,
port-rate states, and window series — and therefore the canonical-JSON
digest — must be identical whether the regions execute inline in one
process (``shards=1``) or spread over pooled workers (``shards=2/4``),
with ``packetin-flood`` active on fat-tree-k8.
"""

import os

import pytest

from repro.experiments.fabric import run_fabric_experiment
from repro.obs import TraceCollector

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")


def _run(shards, topology="fat-tree-k8"):
    return run_fabric_experiment(
        topology,
        controller="pox",
        workload="packetin-flood",
        workload_params={"schedule": "constant:400", "senders": 2,
                         "duration_s": 0.2},
        horizon_s=0.5,  # trim the post-attack tail: determinism, not scores
        detectors=["pktin-rate"],
        shards=shards,
    )


def test_sketches_byte_identical_across_shard_counts():
    """Inline (1) vs pooled (2, 4) workers: same digest, same payload."""
    shard_counts = (1, 2) if QUICK else (1, 2, 4)
    reference = None
    for shards in shard_counts:
        result = _run(shards)
        assert result.sketch is not None
        assert result.sketch["counters"]["frames"] > 0
        if reference is None:
            reference = result
            continue
        # Digest first (the one-line contract), then the raw payload so
        # a failure pinpoints which structure diverged.
        assert result.sketch_digest == reference.sketch_digest, (
            f"sketch digest diverged at shards={shards}"
        )
        assert result.sketch["cms"] == reference.sketch["cms"]
        assert result.sketch["topk"] == reference.sketch["topk"]
        assert result.sketch["ports"] == reference.sketch["ports"]
        assert result.sketch["frames"] == reference.sketch["frames"]
        assert result.sketch["new_keys"] == reference.sketch["new_keys"]
        assert result.sketch["packet_ins"] == reference.sketch["packet_ins"]
        assert result.detections == reference.detections


def test_sketch_tap_does_not_perturb_the_run():
    """Telemetry is observation only: traces and metrics match a
    sketch-free run exactly."""
    base_trace, tapped_trace = TraceCollector(), TraceCollector()
    base = run_fabric_experiment(
        "fat-tree-k4", controller="pox", workload="packetin-flood",
        workload_params={"schedule": "constant:400", "senders": 2,
                         "duration_s": 0.2},
        horizon_s=0.5, trace=base_trace, shards=1,
    )
    tapped = run_fabric_experiment(
        "fat-tree-k4", controller="pox", workload="packetin-flood",
        workload_params={"schedule": "constant:400", "senders": 2,
                         "duration_s": 0.2},
        horizon_s=0.5, trace=tapped_trace, shards=1, sketch=True,
    )
    assert tapped_trace.to_jsonl() == base_trace.to_jsonl()
    assert tapped.switch_packet_ins == base.switch_packet_ins
    assert tapped.packets_synthesized == base.packets_synthesized
