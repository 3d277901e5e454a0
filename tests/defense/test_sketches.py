"""Streaming sketch primitives: hashing, updates, deterministic merges."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.defense import (
    CountMinSketch,
    InterArrival,
    PortRates,
    TopKeys,
    WindowSeries,
    fold_key,
    normalize_key,
    row_indices,
)


def indices_for(key, cms):
    return row_indices(fold_key(normalize_key(key)), cms.width, cms.depth)


def test_normalize_key_coerces_none_and_int_subclasses():
    class FakeMac(int):
        pass

    assert normalize_key((FakeMac(7), None, 0x0800)) == (7, -1, 0x0800)


def test_fold_key_is_stable_and_key_sensitive():
    a = fold_key((1, 2, 3))
    assert a == fold_key((1, 2, 3))  # pure function, no process salt
    assert a != fold_key((1, 2, 4))
    assert a != fold_key((3, 2, 1))


def test_row_indices_bounded_and_distinct_per_depth():
    idx = row_indices(fold_key((9, 9)), width=64, depth=4)
    assert len(idx) == 4
    assert all(0 <= i < 64 for i in idx)


def test_count_min_update_returns_pre_increment_estimate():
    cms = CountMinSketch(width=64, depth=4)
    idx = indices_for((1, 2), cms)
    assert cms.update(idx) == 0  # new key
    assert cms.update(idx) == 1
    assert cms.update(idx) == 2
    assert cms.estimate(idx) == 3
    assert cms.total == 3


def test_count_min_merge_adds_elementwise():
    a, b = CountMinSketch(16, 2), CountMinSketch(16, 2)
    idx = indices_for((5,), a)
    for _ in range(3):
        a.update(idx)
    for _ in range(4):
        b.update(idx)
    a.merge(b)
    assert a.estimate(idx) == 7
    assert a.total == 7
    with pytest.raises(ValueError):
        a.merge(CountMinSketch(32, 2))


def test_count_min_roundtrips_through_dict():
    cms = CountMinSketch(16, 2)
    cms.update(indices_for((1,), cms))
    clone = CountMinSketch.from_dict(cms.to_dict())
    assert clone.to_dict() == cms.to_dict()


def test_topkeys_all_distinct_flood_never_scans():
    topk = TopKeys(capacity=4)
    for i in range(1000):  # every estimate 1: nothing displaces anything
        topk.update((i,), 1)
    assert len(topk.entries) == 4
    assert set(topk.entries.values()) == {1}


def test_topkeys_heavy_hitter_displaces_deterministic_victim():
    topk = TopKeys(capacity=2)
    topk.update((1,), 3)
    topk.update((2,), 3)
    topk.update((3,), 5)  # displaces the tied victim with the lowest key
    assert set(topk.entries) == {(2,), (3,)}
    assert topk.ranked()[0] == ((3,), 5)


def test_topkeys_merged_re_ranks_against_merged_counts():
    cms = CountMinSketch(64, 2)
    counts = {(1,): 5, (2,): 3, (3,): 9}
    for key, count in counts.items():
        idx = indices_for(key, cms)
        for _ in range(count):
            cms.update(idx)
    part_a, part_b = TopKeys(2), TopKeys(2)
    part_a.update((1,), 2)  # stale region-local estimates
    part_a.update((2,), 1)
    part_b.update((3,), 4)
    merged = TopKeys.merged([part_a, part_b], cms)
    assert merged.ranked() == [((3,), 9), ((1,), 5)]


def test_port_rates_bucketed_ewma_and_disjoint_merge():
    rates = PortRates(window_s=0.1, alpha=0.5)
    for k in range(10):  # 100/s steady over one bucket
        rates.update("s1", 1, 0.0 + k * 0.01)
    for k in range(5):
        rates.update("s1", 1, 0.1 + k * 0.01)  # fold happens here
    snap = rates.snapshot()
    assert snap["s1:1"]["count"] == 15
    assert snap["s1:1"]["ewma_pps"] > 0
    other = PortRates(window_s=0.1, alpha=0.5)
    other.update("s2", 3, 0.0)
    rates.merge_dict(other.to_dict())
    assert set(rates.snapshot()) == {"s1:1", "s2:3"}
    with pytest.raises(ValueError):
        rates.merge_dict(other.to_dict())  # same region merged twice


def test_inter_arrival_moments_and_merge():
    gaps = InterArrival()
    for t in (0.0, 0.1, 0.3):
        gaps.observe(t)
    assert gaps.n == 2
    assert gaps.mean_dt == pytest.approx(0.15)
    assert gaps.min_dt == pytest.approx(0.1)
    assert gaps.max_dt == pytest.approx(0.2)
    other = InterArrival()
    for t in (1.0, 1.05):
        other.observe(t)
    gaps.merge_dict(other.to_dict())
    assert gaps.n == 3
    assert gaps.min_dt == pytest.approx(0.05)
    assert gaps.first_t == 0.0 and gaps.last_t == 1.05


def test_window_series_sparse_buckets_and_merge():
    series = WindowSeries(window_s=0.05)
    series.add(0.01)
    series.add(0.02)
    series.add(0.26)
    payload = series.to_dict()
    assert payload["buckets"] == [(0, 2), (5, 1)]
    other = WindowSeries(window_s=0.05)
    other.add(0.27)
    series.merge_dict(other.to_dict())
    assert series.to_dict()["buckets"] == [(0, 2), (5, 2)]


# --------------------------------------------------------------------- #
# The resumed fold and the count-min merge against their definitions
# --------------------------------------------------------------------- #

_FIELD = st.sampled_from((-1, 0, 1, (1 << 48) - 1)) | st.integers(-1, (1 << 48) - 1)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_FIELD] * 12), st.integers(0, 12))
def test_fold_resumes_from_any_prefix_state(key, split):
    assert fold_key(key[split:], fold_key(key[:split])) == fold_key(key)


def _elementwise_from_dict(payload):
    sketch = CountMinSketch(payload["width"], payload["depth"])
    sketch.total = int(payload["total"])
    for row, values in zip(sketch.rows, payload["rows"]):
        for i, count in enumerate(values):
            row[i] = count
    return sketch


def _elementwise_merge(mine, theirs):
    for row, other in zip(mine.rows, theirs.rows):
        for i, count in enumerate(other):
            row[i] += count
    mine.total += theirs.total


_ROWS = st.lists(st.lists(st.integers(0, 1 << 40), min_size=8, max_size=8),
                 min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(_ROWS, _ROWS)
def test_count_min_from_dict_and_merge_equal_the_elementwise_loop(a, b):
    payloads = [{"width": 8, "depth": 3, "total": sum(map(sum, rows)),
                 "rows": rows} for rows in (a, b)]
    shipped = CountMinSketch.from_dict(payloads[0])
    reference = _elementwise_from_dict(payloads[0])
    assert shipped.to_dict() == reference.to_dict() == payloads[0]
    shipped.merge(CountMinSketch.from_dict(payloads[1]))
    _elementwise_merge(reference, _elementwise_from_dict(payloads[1]))
    assert shipped.to_dict() == reference.to_dict()
    assert all(row.typecode == "Q" for row in shipped.rows)


@pytest.mark.parametrize("rows", [
    [[0] * 8, [0] * 9],        # a row too wide
    [[0] * 8, [0] * 7],        # a row too narrow
    [[0] * 8],                 # a row missing
    [[0] * 8, [0] * 8, [0] * 8],  # a row too many
])
def test_count_min_from_dict_refuses_rows_that_do_not_fit(rows):
    with pytest.raises(ValueError):
        CountMinSketch.from_dict({"width": 8, "depth": 2, "total": 0,
                                  "rows": rows})
