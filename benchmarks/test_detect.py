"""Defense-plane cost and quality: sketch overhead, detector scores.

Two artifacts, committed as ``BENCH_detect.json``:

* **Sketch overhead** — the fat-tree-k8 table-overflow workload (the
  ``BENCH_workloads.json`` configuration) run with the per-packet
  sketch tap off vs on, in alternating pairs timed in reference seconds
  (``benchmarks.suite.reference.HostClock``), so a slow phase of a
  shared host lands on both sides of a pair.  The tap rides the
  pre-populated FastFrame flow-key tuple, so the acceptance bar is a
  median per-pair overhead under 10%.
* **Detector quality** — ``pktin-rate`` against ``packetin-flood``
  with emission-window ground truth: precision/recall >= 0.9 and a
  measured detection latency.  The threshold sits between the fabric's
  residual broadcast storm (~800 PACKET_IN/s after emission stops) and
  the storm during the attack (~1800/s).

``REPRO_BENCH_QUICK=1`` shrinks both for CI smoke.
"""

import os
import statistics

from benchmarks.conftest import print_table
from benchmarks.suite.reference import HostClock
from repro.experiments.fabric import run_fabric_experiment

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")

# Quick mode observes only a few thousand frames, so fixed costs and
# scheduler jitter dominate the ratio; the 10% bar is enforced at full
# scale where the per-frame cost is actually the signal.
OVERHEAD_CEILING = 0.30 if QUICK else 0.10
SCORE_FLOOR = 0.9
PAIRS = 2 if QUICK else 3

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


def _timed_run(sketch):
    """One run and its time in reference seconds."""
    with HostClock() as clock:
        result = _overflow_run(sketch)
    return clock.reference_seconds(), result


def _paired_runs():
    """``PAIRS`` (sketch off, sketch on) times, each pair run back to back
    in alternating order; and the last sketch-on result."""
    pairs = []
    for index in range(PAIRS):
        order = (False, True) if index % 2 == 0 else (True, False)
        times = {}
        for sketch in order:
            times[sketch], result = _timed_run(sketch)
            if sketch:
                tapped = result
        pairs.append((times[False], times[True]))
    return pairs, tapped


def test_sketch_overhead_under_ten_percent(benchmark):
    """Count-min + top-k + port EWMAs on every frame cost < 10%: the
    median over alternating pairs of the sketch-on/sketch-off time ratio."""
    pairs, tapped = _paired_runs()
    overhead = statistics.median(on / off for off, on in pairs) - 1.0
    frames = tapped.sketch["counters"]["frames"]
    print_table(
        f"Sketch tap overhead — table-overflow on {tapped.fabric}, "
        f"{frames:,} frames observed, reference seconds",
        ("pair", "sketch off", "sketch on", "overhead"),
        [(str(index), f"{off:.3f} s", f"{on:.3f} s", f"{(on / off - 1) * 100:+.1f}%")
         for index, (off, on) in enumerate(pairs)]
        + [("median", "", "", f"{overhead * 100:+.1f}%")],
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
        "pairs_ref_s": [[round(off, 4), round(on, 4)] for off, on in pairs],
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
