"""Fabric experiments: routing, workloads, campaign integration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.executors import execute_descriptor
from repro.dataplane.fabrics import generate_fabric
from repro.experiments import fabric
from repro.experiments.fabric import (
    controller_routes,
    fabric_config,
    plan_fabric,
    proactive_routes,
    run_cell,
    run_fabric_experiment,
    workload_pairs,
)


# --------------------------------------------------------------------- #
# Deterministic routing helpers
# --------------------------------------------------------------------- #

def test_workload_pairs_are_cross_pod():
    fabric = generate_fabric("fat-tree-k4")
    pairs = workload_pairs(fabric, 4)
    assert len(pairs) == 4
    for src, dst in pairs:
        assert src.split("e")[0] != dst.split("e")[0]  # different pods


def test_proactive_routes_cover_both_directions():
    fabric = generate_fabric("fat-tree-k4")
    pairs = workload_pairs(fabric, 2)
    routes = proactive_routes(fabric.topology, pairs)
    for src, dst in pairs:
        src_mac = fabric.topology.hosts[src].mac
        dst_mac = fabric.topology.hosts[dst].mac
        forward = [s for s, table in routes.items()
                   if any(mac == dst_mac for mac, _ in table)]
        reverse = [s for s, table in routes.items()
                   if any(mac == src_mac for mac, _ in table)]
        # A k=4 cross-pod path: edge -> agg -> core -> agg -> edge.
        assert len(forward) == 5
        assert len(reverse) == 5


def test_controller_routes_reach_every_host_from_every_switch():
    fabric = generate_fabric("fat-tree-k4")
    routes = controller_routes(fabric.topology)
    assert len(routes) == fabric.switch_count
    for table in routes.values():
        assert len(table) == fabric.host_count


def test_plan_is_a_pure_function_of_the_config():
    config = fabric_config("fat-tree-k4", controller="floodlight")
    first = plan_fabric(config)
    second = plan_fabric(config)
    assert first.partition == second.partition
    assert first.owner == second.owner
    assert first.weights == second.weights
    assert first.ctrl_rid == len(first.partition)


def test_plan_derives_an_unset_region_count_from_the_fabric():
    config = fabric_config("fat-tree-k4", controller="floodlight")
    assert config["regions"] is None
    assert len(plan_fabric(config).partition) == 6  # 4 pods + 2 core rows
    config = fabric_config("fat-tree-k4", regions=2)
    assert len(plan_fabric(config).partition) == 2


def test_an_inline_run_generates_its_fabric_once(monkeypatch):
    calls = []
    generate = fabric.generate_fabric

    def counting(name):
        calls.append(name)
        return generate(name)

    monkeypatch.setattr(fabric, "generate_fabric", counting)
    run_fabric_experiment("fat-tree-k4", pairs=2, packets=2)
    assert calls == ["fat-tree-k4"]


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #

def test_controllerless_udp_delivers_everything():
    result = run_fabric_experiment("fat-tree-k4", pairs=4, packets=10)
    assert result.packets_sent == 40
    assert result.packets_delivered == 40
    assert result.cross_shard_messages > 0
    assert result.regions == 6  # 4 pods + 2 core rows


def test_leaf_spine_udp_delivers_everything():
    result = run_fabric_experiment("leaf-spine-4x2", pairs=4, packets=5)
    assert result.packets_delivered == result.packets_sent == 20


def test_controller_ping_installs_flows_and_answers():
    result = run_fabric_experiment(
        "fat-tree-k4", controller="floodlight", pairs=2, packets=2,
    )
    assert result.ping_received == result.ping_sent == 4
    assert result.packet_ins > 0
    assert result.flow_mods_seen > 0
    assert result.flow_mods_dropped == 0
    assert result.median_rtt_s is not None


#: Record digests of two fabric ping cells (fat-tree-k4, 4 pairs x 3
#: pings), hashed as the golden corpus hashes records.  No golden cell
#: runs the fabric ping path, and its record counts each ping series'
#: completion event in ``processed_events``.
PING_CELL_DIGESTS = {
    ("pox", None):
        "13ddf9f1ae79ddf14e49cc6724bc00dd3a217970c766669b46054c6b9bfbc72e",
    ("floodlight", "flow-mod-suppression"):
        "fa3dc2aa8d7b44f4e81e087b561cd4c837053a08344f4b48b5a63c4ffd7b2821",
}


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("controller,attack", list(PING_CELL_DIGESTS))
def test_ping_cells_keep_their_record_digests(controller, attack, shards):
    from tests.golden.corpus import digest

    record = run_cell(controller=controller, attack=attack,
                      topology="fat-tree-k4", workload="ping", pairs=4,
                      packets=3, shards=shards)
    assert record["ping_sent"] == 12
    assert digest("", record)["record"] == PING_CELL_DIGESTS[controller,
                                                             attack]


def test_suppression_attack_drops_flow_mods_but_floodlight_survives():
    result = run_fabric_experiment(
        "fat-tree-k4", controller="floodlight",
        attack="flow-mod-suppression", pairs=2, packets=2,
    )
    # Floodlight releases buffered packets via PACKET_OUT, so pings still
    # complete even though every FLOW_MOD is suppressed (the paper's
    # degraded-but-alive case).
    assert result.flow_mods_dropped > 0
    assert result.ping_received == result.ping_sent


def test_a_defense_free_run_imports_no_defense_code():
    """Without the sketch tap and detectors, a run, its config included,
    never imports the defense plane (a fresh interpreter would compile
    it from source inside the run)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                      if p]))
    code = (
        "import sys\n"
        "from repro.experiments import run_fabric_experiment\n"
        "result = run_fabric_experiment('fat-tree-k4', pairs=2, packets=5)\n"
        "assert result.packets_delivered == 10\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.defense')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_config_rejects_ping_without_controller():
    with pytest.raises(ValueError):
        fabric_config("fat-tree-k4", workload="ping")


# --------------------------------------------------------------------- #
# Campaign integration
# --------------------------------------------------------------------- #

def test_execute_descriptor_runs_fabric_cells():
    metrics = execute_descriptor({
        "experiment": "fabric",
        "topology": "fat-tree-k4",
        "controller": "none",
        "params": {"pairs": 2, "packets": 5},
    })
    assert metrics["experiment"] == "fabric"
    assert metrics["topology"] == "fat-tree-k4"
    assert metrics["packets_delivered"] == 10
    assert metrics["delivery_rate"] == 1.0


def test_run_cell_matches_direct_experiment():
    direct = run_fabric_experiment("fat-tree-k4", pairs=2, packets=5).record()
    via_cell = run_cell(topology="fat-tree-k4", pairs=2, packets=5)
    for key in ("packets_sent", "packets_delivered", "cross_shard_messages",
                "processed_events", "epochs"):
        assert direct[key] == via_cell[key]


def test_fabric_campaign_through_worker_processes(tmp_path):
    """Fabric cells run inside campaign workers (which are daemonic, so
    the sharded executor falls back to inline multi-region execution)."""
    spec = CampaignSpec.from_dict({
        "name": "fabric-smoke",
        "experiment": "fabric",
        "attacks": [None, "flow-mod-suppression"],
        "controllers": ["floodlight"],
        "topologies": ["fat-tree-k4"],
        "seeds": [1],
        "params": {"pairs": 2, "packets": 2, "shards": 2},
        "timeout_s": 120.0,
    })
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=2)
    assert summary.total == summary.succeeded == 2
    records = store.ok_records()
    by_attack = {r["attack"]: r["metrics"] for r in records}
    assert by_attack[None]["flow_mods_dropped"] == 0
    assert by_attack["flow-mod-suppression"]["flow_mods_dropped"] > 0
    for metrics in by_attack.values():
        assert metrics["ping_received"] == metrics["ping_sent"] > 0
        # Daemonic campaign workers force the inline executor.
        assert metrics["shards"] == 1
