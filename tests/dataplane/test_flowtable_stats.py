"""FlowTable stat hygiene across back-to-back runs on one worker.

Per-table stats (``occupancy_peak``, ``capacity_evictions``, lookup
counters) live on :class:`FlowTable` instances that every run rebuilds —
these tests pin both halves: the explicit ``reset_stats`` API, and that
two cells run back-to-back in one process report stats independent of
run order.
"""

from repro.campaign import ResultStore
from repro.campaign.spec import CampaignSpec
from repro.campaign.runner import run_campaign
from repro.dataplane.flowtable import FlowTable
from repro.experiments.workload import run_cell
from repro.netlib import Ipv4Address, MacAddress
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction
from repro.openflow.match import OFP_VLAN_NONE


def exact_match(port):
    return Match(
        in_port=1, dl_src=MacAddress("00:00:00:00:00:01"),
        dl_dst=MacAddress("00:00:00:00:00:02"), dl_vlan=OFP_VLAN_NONE,
        dl_vlan_pcp=0, dl_type=0x0800, nw_tos=0, nw_proto=6,
        nw_src=Ipv4Address("10.0.0.1"), nw_dst=Ipv4Address("10.0.0.2"),
        tp_src=1234, tp_dst=port,
    )


def test_reset_stats_zeroes_counters_but_keeps_entries():
    table = FlowTable(max_entries=4, eviction="lru")
    for i in range(6):  # 4 installs + 2 capacity evictions
        flow_mod = FlowMod(exact_match(1000 + i), command=FlowModCommand.ADD,
                           actions=[OutputAction(2)])
        table.apply_flow_mod(flow_mod, now=0.1 * i)
    table.lookup(exact_match(1005).key)
    assert table.occupancy_peak == 4
    assert table.capacity_evictions == 2
    assert table.lookups == 1
    table.reset_stats()
    assert (table.occupancy_peak, table.capacity_evictions,
            table.lookups, table.matched) == (0,) * 4
    assert len(table) == 4  # entries untouched


HEAVY = dict(workload="table-overflow", topology="fat-tree-k4",
             controller="pox", schedule="constant:1500", keys=512,
             senders=2, duration_s=0.3, table_capacity=64,
             table_eviction="lru")
LIGHT = dict(workload="table-overflow", topology="fat-tree-k4",
             controller="pox", schedule="constant:200", keys=8,
             senders=1, duration_s=0.2, table_capacity=64,
             table_eviction="lru")


def _cell(params):
    record = run_cell(**params)
    return (record["table_occupancy_peak"], record["evictions_capacity"],
            record["evictions_idle"], record["table_misses"])


def test_two_cells_back_to_back_report_independent_stats():
    """A light cell after a heavy cell must not inherit the heavy run's
    occupancy peak or eviction counters (the persistent-worker path)."""
    light_alone = _cell(LIGHT)
    heavy = _cell(HEAVY)
    light_after_heavy = _cell(LIGHT)
    assert heavy[0] > light_alone[0]  # the heavy cell really is heavier
    assert heavy[1] > 0  # and really evicted at capacity
    assert light_after_heavy == light_alone


def test_campaign_worker_runs_report_independent_stats(tmp_path):
    """Two seeds of one cell through the campaign runner on a single
    worker: identical deterministic stats, no cross-run accumulation."""
    params = {k: v for k, v in HEAVY.items()
              if k not in ("topology", "controller")}
    spec = CampaignSpec(
        name="stats-isolation",
        attacks=["passthrough"],
        controllers=["pox"],
        topologies=["fat-tree-k4"],
        seeds=[0, 1],
        baseline=None,
        experiment="workload",
        params=dict(params, duration_s=0.2, schedule="constant:800"),
    )
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=1)
    assert summary.succeeded == 2
    records = store.ok_records()
    stats = [(r["metrics"]["table_occupancy_peak"],
              r["metrics"]["evictions_capacity"],
              r["metrics"]["table_misses"]) for r in records]
    # Same cell, same worker process, different seeds: the table stats
    # are a pure function of the cell, so run 2 matches run 1 exactly
    # instead of inheriting its peaks/counters.
    assert stats[0] == stats[1]
    assert stats[0][0] > 0
