"""Fabric event order: one pending send per UDP flow vs. the up-front oracle.

A UDP fabric run emits no trace events, so its golden entry pins the
empty trace and only ``processed_events`` would notice a reordering.
Here every data region's fired ``(time, band, seq)`` sequence is recorded
at the engine's heap pops and compared with the same run built by
:class:`~tests.experiments.fabric_reference.UpFrontRegion`, which pushes
every send at build time.  The sequences must be identical, region by
region, including flows whose sends share one instant (``interval_s =
0``), single-packet flows and a horizon that ends the run mid-flow.
"""

import heapq
from collections import Counter

import pytest

from repro.experiments import fabric
from repro.experiments.fabric import (
    build_fabric_regions,
    fabric_config,
    plan_fabric,
    run_fabric_experiment,
)
from repro.sim import engine as engine_module
from tests.experiments.fabric_reference import UpFrontRegion
from tests.golden.corpus import EXECUTION_KEYS

CASES = (
    {"topology": "fat-tree-k4"},
    {"topology": "fat-tree-k4", "pairs": 8, "packets": 20, "interval_s": 0.0},
    {"topology": "fat-tree-k4", "pairs": 8, "packets": 1},
    {"topology": "fat-tree-k4", "packets": 50, "horizon_s": 0.09},
    {"topology": "leaf-spine-4x2", "pairs": 6, "packets": 30},
    {"topology": "leaf-spine-4x2", "pairs": 8, "packets": 10,
     "interval_s": 0.0},
    {"topology": "leaf-spine-4x2x2", "packets": 1},
)


def case_id(kwargs):
    return "-".join(str(value) for value in kwargs.values())


class _RecordingHeapq:
    """Stands in for ``heapq`` in the engine module: every pop the engine
    makes (each one fires an event) is logged under its heap."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.fired = {}

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        self.fired.setdefault(id(heap), []).append(entry[:3])
        return entry


def fired_by_region(monkeypatch, reference, **kwargs):
    """Run one inline fabric cell; ``(record, {rid: fired keys})``."""
    recorder = _RecordingHeapq()
    regions = []
    build = fabric.build_fabric_regions

    def capturing(config, rids, plan=None):
        built = build(config, rids, plan)
        regions.extend(built)
        return built

    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "heapq", recorder)
        patch.setattr(fabric, "build_fabric_regions", capturing)
        if reference:
            patch.setattr(fabric, "_FabricDataRegion", UpFrontRegion)
        result = run_fabric_experiment(shards=1, **kwargs)
    record = result.record()
    for key in EXECUTION_KEYS:
        record.pop(key)
    fired = {region.rid: recorder.fired.get(id(region.engine._queue), [])
             for region in regions}
    return record, fired


@pytest.mark.parametrize("kwargs", CASES, ids=case_id)
def test_each_region_fires_the_up_front_sequence(monkeypatch, kwargs):
    record, fired = fired_by_region(monkeypatch, False, **kwargs)
    ref_record, ref_fired = fired_by_region(monkeypatch, True, **kwargs)
    assert sorted(fired) == sorted(ref_fired)
    for rid in ref_fired:
        assert fired[rid] == ref_fired[rid], f"region {rid}"
    assert record == ref_record
    assert sum(len(keys) for keys in fired.values()) == record[
        "processed_events"]
    if "horizon_s" not in kwargs:
        assert record["packets_sent"] == record["packets_delivered"] > 0


@pytest.mark.parametrize("kwargs", CASES, ids=case_id)
def test_a_built_region_holds_one_send_per_local_flow(kwargs):
    config = fabric_config(**kwargs)
    plan = plan_fabric(config)
    regions = build_fabric_regions(config, plan.region_ids, plan)
    flows = 0
    for region in regions:
        local = region.network.hosts
        pending = Counter(
            (args[0].name, args[1]) for _t, _band, _seq, callback, args
            in region.engine._queue if callback == region._udp_send
        )
        assert all(count == 1 for count in pending.values()), pending
        expected = {
            (src, plan.fabric.topology.hosts[dst].ip)
            for src, dst in plan.pairs if src in local
        }
        assert set(pending) == expected
        flows += len(pending)
    assert flows == len(plan.pairs)
