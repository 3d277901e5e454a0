"""Workload cells: fabric integration, shard invariance, campaign wiring."""

import pytest

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.executors import execute_descriptor
from repro.campaign.report import build_report
from repro.experiments.fabric import fabric_config, run_fabric_experiment
from repro.experiments.workload import run_cell as run_workload_cell
from repro.obs import TraceCollector


# --------------------------------------------------------------------- #
# Config plumbing
# --------------------------------------------------------------------- #

def test_config_resolves_source_defaults():
    config = fabric_config("fat-tree-k4", workload="benign-mix",
                           pairs=3)
    assert config["workload_params"]["senders"] == 3
    assert config["workload_params"]["duration_s"] == 1.0
    assert config["workload_params"]["start_s"] == config["start_s"]
    assert config["horizon_s"] > config["start_s"] + 1.0


def test_config_rejects_unknown_workloads_and_bad_params():
    with pytest.raises(ValueError, match="unknown workload"):
        fabric_config("fat-tree-k4", workload="tsunami")
    with pytest.raises(ValueError, match="needs a controller"):
        fabric_config("fat-tree-k4", workload="packetin-flood")
    with pytest.raises(ValueError, match="bad schedule"):
        fabric_config("fat-tree-k4", workload="benign-mix",
                      workload_params={"schedule": "warp:9"})
    with pytest.raises(ValueError, match="table_eviction"):
        fabric_config("fat-tree-k4", table_eviction="coin-flip")
    with pytest.raises(ValueError, match="table_capacity"):
        fabric_config("fat-tree-k4", table_capacity=0)


def test_config_rejects_negative_or_non_finite_interval():
    for value in (-0.001, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="interval_s"):
            fabric_config("fat-tree-k4", interval_s=value)


def test_config_rejects_negative_or_non_finite_start():
    for value in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="start_s"):
            fabric_config("fat-tree-k4", start_s=value)


def test_config_rejects_negative_or_non_finite_horizon():
    for value in (-1.0, float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="horizon_s"):
            fabric_config("fat-tree-k4", horizon_s=value)


def test_config_rejects_negative_packets():
    with pytest.raises(ValueError, match="packets"):
        fabric_config("fat-tree-k4", packets=-5)


def test_config_rejects_negative_pairs():
    with pytest.raises(ValueError, match="pairs"):
        fabric_config("fat-tree-k4", pairs=-1)


def test_config_rejects_negative_payload_len():
    with pytest.raises(ValueError, match="payload_len"):
        fabric_config("fat-tree-k4", payload_len=-3)


def test_config_rejects_fewer_than_one_region():
    for value in (0, -1):
        with pytest.raises(ValueError, match="regions"):
            fabric_config("fat-tree-k4", regions=value)


def test_config_rejects_unbuildable_fabric_names():
    from repro.dataplane import TopologyError

    for name in ("fat-tree-k5", "torus-4", "leaf-spine-1x2"):
        with pytest.raises(TopologyError):
            fabric_config(name)


def test_config_refuses_before_generating_the_fabric(monkeypatch):
    from repro.experiments import fabric

    def no_fabric(name):
        raise AssertionError("generated a fabric for a refused config")

    monkeypatch.setattr(fabric, "generate_fabric", no_fabric)
    with pytest.raises(ValueError, match="interval_s"):
        fabric_config("fat-tree-k4", interval_s=-1.0)


def test_config_keeps_zero_workload_values():
    config = fabric_config("fat-tree-k4", interval_s=0.0, start_s=0.0,
                           horizon_s=0.0, packets=0, pairs=0, payload_len=0)
    assert (config["interval_s"], config["start_s"], config["horizon_s"]) == (
        0.0, 0.0, 0.0)
    assert (config["packets"], config["pairs"], config["payload_len"]) == (
        0, 0, 0)


# --------------------------------------------------------------------- #
# End-to-end runs
# --------------------------------------------------------------------- #

def test_benign_mix_delivers_over_proactive_routes():
    result = run_fabric_experiment(
        "fat-tree-k4", workload="benign-mix", seed=1,
        workload_params={"schedule": "constant:300", "duration_s": 0.4,
                         "senders": 2},
    )
    assert result.packets_synthesized == 2 * 120
    # The UDP share of the mix lands on the far hosts' benign port.
    assert result.packets_delivered > 0


def test_table_overflow_fills_and_evicts():
    result = run_fabric_experiment(
        "fat-tree-k4", controller="floodlight", workload="table-overflow",
        seed=3, table_capacity=64, table_eviction="lru",
        workload_params={"schedule": "constant:1200", "keys": 512,
                         "duration_s": 0.4, "senders": 2},
    )
    assert result.table_occupancy_peak == 64
    assert result.evictions_capacity > 0
    assert result.switch_packet_ins > 0
    assert result.packet_in_rate > 0
    record = result.record()
    for column in ("packets_synthesized", "packet_in_rate",
                   "table_occupancy_peak", "evictions_capacity",
                   "evictions_idle", "evictions_hard"):
        assert column in record


def test_workload_runs_are_shard_invariant():
    def run(shards, trace):
        return run_fabric_experiment(
            "fat-tree-k4", controller="floodlight",
            workload="packetin-flood", seed=7, shards=shards,
            table_capacity=128, table_eviction="fifo", trace=trace,
            workload_params={"schedule": "burst:1500:150:0.2:0.4",
                             "duration_s": 0.4, "senders": 2},
        )

    inline_trace, pooled_trace = TraceCollector(), TraceCollector()
    inline, pooled = run(1, inline_trace), run(2, pooled_trace)
    assert inline_trace.to_jsonl() == pooled_trace.to_jsonl()
    assert inline_trace.events_total == pooled_trace.events_total > 0
    inline_metrics, pooled_metrics = inline.record(), pooled.record()
    for metrics in (inline_metrics, pooled_metrics):
        for key in ("shards", "wall_s", "wall_packets_per_sec",
                    "capacity_packets_per_sec", "coordinator_cpu_s",
                    "worker_cpu_s", "exchange_bytes", "exchange_blobs"):
            metrics.pop(key)
    assert inline_metrics == pooled_metrics
    assert inline.packets_synthesized > 0
    assert inline.switch_packet_ins > 0


# --------------------------------------------------------------------- #
# Campaign wiring
# --------------------------------------------------------------------- #

def test_run_cell_hoists_flat_source_params():
    record = run_workload_cell(
        controller="floodlight", topology="fat-tree-k4",
        workload="table-overflow", seed=2,
        schedule="constant:800", keys=128, senders=2, duration_s=0.3,
        table_capacity=32, table_eviction="fifo",
    )
    assert record["experiment"] == "workload"
    assert record["workload"] == "table-overflow"
    assert record["table_occupancy_peak"] == 32
    assert record["evictions_capacity"] > 0


def test_run_cell_rejects_unknown_sources():
    with pytest.raises(KeyError, match="unknown traffic source"):
        run_workload_cell(workload="udp")  # built-in, not a source


def test_execute_descriptor_routes_workload_cells():
    record = execute_descriptor({
        "experiment": "workload",
        "topology": "fat-tree-k4",
        "controller": "floodlight",
        "seed": 1,
        "params": {"workload": "packetin-flood", "schedule": "constant:600",
                   "duration_s": 0.3, "senders": 2},
    })
    assert record["experiment"] == "workload"
    assert record["switch_packet_ins"] > 0


def test_workload_campaign_report_has_pressure_columns(tmp_path):
    spec = CampaignSpec(
        name="workload-test",
        attacks=["passthrough"],
        controllers=["floodlight"],
        topologies=["fat-tree-k4"],
        seeds=[1],
        baseline=None,
        experiment="workload",
        params={"workload": "table-overflow", "schedule": "constant:800",
                "keys": 128, "senders": 2, "duration_s": 0.3,
                "table_capacity": 32, "table_eviction": "lru"},
    )
    store = ResultStore(tmp_path / "results.jsonl")
    summary = run_campaign(spec, store, workers=1)
    assert summary.total == summary.succeeded == 1
    report = build_report(spec, store.records())
    cell = report.cells[0]
    assert cell.metrics["table_occupancy_peak"] == 32
    assert cell.metrics["evictions_capacity"] > 0
    assert cell.metrics["packet_in_rate"] > 0
    rendered = report.render()
    assert "pktin/s" in rendered
    assert "occ pk" in rendered
    assert "ev cap" in rendered
