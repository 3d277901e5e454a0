"""The switch-fed sketch tap: hot-path updates, memoization, merging."""

from repro.defense.tap import (
    MEMO_MAX,
    SketchTap,
    merge_taps,
    sketch_digest,
    sketch_summary,
)


def flow_key(seed=0, in_port=1):
    return (in_port, 10 + seed, 20 + seed, None, 0, 0x0800, 0, 17,
            100 + seed, 200 + seed, 4000, 5000)


def test_on_frame_uses_pre_populated_tuple_and_memoizes():
    tap = SketchTap()
    fields = flow_key()
    tap.on_frame("s1", 1, fields, 0.0)
    tap.on_frame("s1", 1, fields, 0.001)
    assert tap.counters["frames"] == 2
    assert tap.counters["memo_hits"] == 1
    assert len(tap.topk.entries) == 1


def test_on_frame_memo_hits_an_equal_key():
    tap = SketchTap()
    tap.on_frame("s1", 1, flow_key(), 0.0)
    tap.on_frame("s1", 1, flow_key(), 0.001)  # equal key, another tuple
    assert tap.counters["memo_hits"] == 1
    assert tap.cms.total == 2


def test_memo_bound_evicts_wholesale():
    tap = SketchTap()
    tap._memo = {i: ((), ()) for i in range(MEMO_MAX)}  # saturate
    tap.on_frame("s1", 1, flow_key(), 0.0)
    assert tap.counters["memo_evictions"] == 1
    assert len(tap._memo) == 1


def test_new_key_windows_track_count_min_first_sight():
    tap = SketchTap()
    tap.on_frame("s1", 1, flow_key(0), 0.0)
    tap.on_frame("s1", 1, flow_key(0), 0.01)  # repeat: not new
    tap.on_frame("s1", 1, flow_key(1), 0.06)  # new key, window 1
    payload = tap.collect()
    assert payload["new_keys"]["buckets"] == [(0, 1), (1, 1)]
    assert payload["frames"]["buckets"] == [(0, 2), (1, 1)]


def test_merge_taps_equals_single_tap_over_combined_stream():
    # One tap seeing everything vs. two region taps seeing disjoint
    # switches must merge to identical payloads (the shard invariant).
    combined = SketchTap()
    region_a, region_b = SketchTap(), SketchTap()
    for k in range(30):
        fields = flow_key(k % 5)
        combined.on_frame("s1", 1, fields, 0.001 * k)
        region_a.on_frame("s1", 1, fields, 0.001 * k)
    for k in range(10):
        fields = flow_key(50 + k)
        combined.on_frame("s2", 2, fields, 0.002 * k)
        region_b.on_frame("s2", 2, fields, 0.002 * k)
        combined.on_packet_in(0.002 * k)
        region_b.on_packet_in(0.002 * k)
    merged = merge_taps([region_a.collect(), region_b.collect()])
    assert sketch_digest(merged) == sketch_digest(combined.collect())


def test_merge_taps_empty_and_digest_none():
    assert merge_taps([]) is None
    assert sketch_digest(None) is None
    assert sketch_summary(None) == {}


def test_sketch_summary_headline_numbers():
    tap = SketchTap()
    for k in range(4):
        tap.on_frame("s1", 1, flow_key(), 0.001 * k)
    tap.on_frame("s2", 9, flow_key(7), 0.001)
    tap.on_packet_in(0.0)
    tap.on_packet_in(0.01)
    summary = sketch_summary(tap.collect())
    assert summary["frames"] == 5
    assert summary["packet_ins"] == 2
    assert summary["busiest_port"] == "s1:1"
    assert summary["busiest_port_frames"] == 4
    assert summary["pktin_mean_gap_s"] == 0.01
