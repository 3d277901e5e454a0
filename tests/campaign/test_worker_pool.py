"""The persistent worker pool: process reuse, accounting, and run isolation.

The original runner spawned one process per run; the pool keeps workers
alive across runs, and each run draws its sequences from its own engine,
so nothing carries over between cells.  These tests pin down the new contracts: fewer spawns than runs, per-worker run
accounting in the summary / store / CLI, and bit-identical metrics from a
reused worker vs. a fresh process.
"""

import json
import os

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.executors import execute_descriptor
from repro.cli import main


def selfcheck_spec(seeds, params=None, retries=0, timeout_s=30.0, **overrides):
    return CampaignSpec.from_dict({
        "name": "selfcheck",
        "experiment": "selfcheck",
        "attacks": [None],
        "controllers": ["x"],
        "seeds": list(seeds),
        "params": params or {},
        "retries": retries,
        "timeout_s": timeout_s,
        **overrides,
    })


def test_workers_are_reused_across_runs(tmp_path):
    spec = selfcheck_spec(range(8))
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=2)
    assert summary.executed == 8
    # The whole point of the pool: far fewer spawns than runs.
    assert summary.processes_spawned <= 2 < summary.executed
    pids = {r["metrics"]["pid"] for r in store.ok_records()}
    assert len(pids) <= 2
    assert os.getpid() not in pids


def test_summary_worker_runs_accounts_for_every_run(tmp_path):
    spec = selfcheck_spec(range(6))
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=2)
    assert sum(summary.worker_runs.values()) == summary.executed == 6
    assert len(summary.worker_runs) == summary.processes_spawned


def test_store_records_carry_worker_provenance(tmp_path):
    spec = selfcheck_spec(range(3))
    store = ResultStore(tmp_path / "runs.jsonl")
    run_campaign(spec, store, workers=1)
    records = store.ok_records()
    assert all("worker" in r for r in records)
    workers = [r["worker"] for r in records]
    assert all(w["pid"] == workers[0]["pid"] for w in workers)
    # runs_executed is the worker's cumulative count at record time.
    assert sorted(w["runs_executed"] for w in workers) == [1, 2, 3]


def test_crashed_worker_slot_is_respawned(tmp_path):
    # Attempt 1 hard-exits the worker; the pool must respawn a fresh
    # process for the retry rather than hanging on the dead pipe.
    spec = selfcheck_spec([0, 1], params={"crash_until_attempt": 2},
                          retries=2)
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=1)
    assert summary.succeeded == 2
    assert summary.retries_used == 2
    # One spawn per crash plus the survivor: more spawns than workers.
    assert summary.processes_spawned >= 2


def test_reused_worker_matches_fresh_process_metrics(tmp_path):
    """Run isolation: run N in a reused worker equals run N in a
    brand-new process (the reproducibility claim survives reuse)."""
    params = {"ping_trials": 3, "iperf_trials": 1, "iperf_duration_s": 0.5,
              "iperf_gap_s": 0.5, "warmup_s": 2.0}
    spec = CampaignSpec.from_dict({
        "name": "reuse-determinism",
        "attacks": ["passthrough", "flow-mod-suppression"],
        "controllers": ["pox"],
        "seeds": [1],
        "params": params,
    })
    store = ResultStore(tmp_path / "runs.jsonl")
    # workers=1 forces the second cell through a reused process.
    summary = run_campaign(spec, store, workers=1)
    assert summary.succeeded == 2
    assert summary.processes_spawned == 1
    for descriptor in spec.expand():
        (record,) = [r for r in store.ok_records()
                     if r["run_id"] == descriptor.run_id]
        fresh = execute_descriptor(descriptor.to_dict())
        assert record["metrics"] == fresh


def test_cli_surfaces_pool_accounting(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli-pool",
        "experiment": "selfcheck",
        "attacks": [None],
        "controllers": ["x"],
        "seeds": [0, 1, 2, 3],
        "timeout_s": 30.0,
    }))
    assert main(["campaign", "run", str(spec_path),
                 "--workers", "2", "--quiet", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["processes_spawned"] <= 2 < summary["executed"]
    assert sum(summary["worker_runs"].values()) == 4

    assert main(["campaign", "status", str(spec_path), "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert sum(status["worker_runs"].values()) == 4

    assert main(["campaign", "status", str(spec_path)]) == 0
    assert "worker pid" in capsys.readouterr().out


def test_workers_default_is_cpu_count(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli-default-workers",
        "experiment": "selfcheck",
        "attacks": [None],
        "controllers": ["x"],
        "seeds": [0],
        "timeout_s": 30.0,
    }))
    # No --workers flag: the CLI falls back to os.cpu_count().
    assert main(["campaign", "run", str(spec_path), "--quiet", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["succeeded"] == 1
    assert summary["processes_spawned"] <= (os.cpu_count() or 1)
