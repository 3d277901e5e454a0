"""Defense-plane cost and quality: sketch overhead, detector scores.

Two artifacts, committed as ``BENCH_detect.json``:

* **Sketch overhead** — the fat-tree-k8 table-overflow workload (the
  ``BENCH_workloads.json`` configuration) run with the per-packet
  sketch tap off vs on.  The tap rides the pre-populated FastFrame
  flow-key tuple, so the acceptance bar is < 10% added wall time.
* **Detector quality** — ``pktin-rate`` against ``packetin-flood``
  with emission-window ground truth: precision/recall >= 0.9 and a
  measured detection latency.  The threshold sits between the fabric's
  residual broadcast storm (~800 PACKET_IN/s after emission stops) and
  the storm during the attack (~1800/s).

``REPRO_BENCH_QUICK=1`` shrinks both for CI smoke.
"""

import os
import statistics
import time

from benchmarks.conftest import print_table
from repro.experiments.fabric import run_fabric_experiment

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")

# Quick mode observes only a few thousand frames, so fixed costs and
# scheduler jitter dominate the ratio; the 10% bar is enforced at full
# scale where the per-frame cost is actually the signal.
OVERHEAD_CEILING = 0.30 if QUICK else 0.10
SCORE_FLOOR = 0.9
ROUNDS = 2 if QUICK else 3

if QUICK:
    OVERFLOW = dict(topology="fat-tree-k4", capacity=64, keys=512,
                    schedule="constant:1200", senders=2, duration_s=0.4)
else:
    OVERFLOW = dict(topology="fat-tree-k8", capacity=128, keys=4096,
                    schedule="constant:2000", senders=8, duration_s=1.0)

FLOOD = dict(schedule="constant:500", senders=2,
             duration_s=0.2 if QUICK else 0.3)


def _overflow_run(sketch):
    return run_fabric_experiment(
        OVERFLOW["topology"], controller="floodlight",
        workload="table-overflow", seed=1,
        table_capacity=OVERFLOW["capacity"], table_eviction="lru",
        sketch=sketch,
        workload_params={"schedule": OVERFLOW["schedule"],
                         "keys": OVERFLOW["keys"],
                         "senders": OVERFLOW["senders"],
                         "duration_s": OVERFLOW["duration_s"]},
    )


def _median_wall(sketch):
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = _overflow_run(sketch)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def test_sketch_overhead_under_ten_percent(benchmark):
    """Count-min + top-k + port EWMAs on every frame cost < 10% wall."""
    base_s, _ = _median_wall(sketch=False)
    tap_s, tapped = _median_wall(sketch=True)
    overhead = tap_s / base_s - 1.0
    frames = tapped.sketch["counters"]["frames"]
    print_table(
        f"Sketch tap overhead — table-overflow on {tapped.fabric}, "
        f"{frames:,} frames observed",
        ("configuration", "wall (median)", "overhead"),
        [
            ("sketch off", f"{base_s:.3f} s", "—"),
            ("sketch on", f"{tap_s:.3f} s", f"{overhead * 100:+.1f}%"),
        ],
    )
    assert tapped.sketch_digest is not None
    assert frames > 0
    assert overhead < OVERHEAD_CEILING, (
        f"sketch overhead {overhead * 100:.1f}% exceeds "
        f"{OVERHEAD_CEILING * 100:.0f}%"
    )
    result = benchmark.pedantic(_overflow_run, args=(True,),
                                rounds=1, iterations=1)
    assert result.sketch is not None
    benchmark.extra_info.update({
        "fabric": tapped.fabric,
        "frames_observed": frames,
        "base_wall_s": round(base_s, 4),
        "tapped_wall_s": round(tap_s, 4),
        "overhead_pct": round(overhead * 100, 2),
        "quick": QUICK,
    })


def test_pktin_rate_detector_meets_score_floor(benchmark):
    """pktin-rate at 1200 PACKET_IN/s: precision/recall >= 0.9 with a
    measured window-close detection latency on packetin-flood."""
    def run():
        return run_fabric_experiment(
            "fat-tree-k4", controller="pox", workload="packetin-flood",
            seed=1, detectors=["pktin-rate"],
            detector_params={"threshold_pps": 1200.0},
            workload_params=dict(FLOOD),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    scores = result.detections[0]
    print_table(
        f"pktin-rate vs packetin-flood on {result.fabric} "
        f"(threshold 1200 PACKET_IN/s)",
        ("metric", "value"),
        [
            ("precision", f"{scores['precision']:.2f}"),
            ("recall", f"{scores['recall']:.2f}"),
            ("detection latency", f"{scores['detection_latency_s'] * 1e3:.0f} ms"),
            ("windows (active/flagged)",
             f"{scores['active_windows']}/{scores['flagged_windows']}"),
            ("PACKET_INs", f"{result.switch_packet_ins:,}"),
        ],
    )
    assert scores["precision"] >= SCORE_FLOOR
    assert scores["recall"] >= SCORE_FLOOR
    assert scores["detection_latency_s"] is not None
    assert scores["detection_latency_s"] >= 0.0
    benchmark.extra_info.update({
        "detector": "pktin-rate",
        "threshold_pps": 1200.0,
        "precision": scores["precision"],
        "recall": scores["recall"],
        "detection_latency_s": scores["detection_latency_s"],
        "sketch_digest": result.sketch_digest,
        "quick": QUICK,
    })
