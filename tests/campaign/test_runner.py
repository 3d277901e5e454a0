"""The campaign runner: parallelism, resume, crash retry, timeouts.

Pool-behaviour tests use the ``selfcheck`` harness (no simulation, so
they run in milliseconds); one end-to-end test runs a real two-cell
suppression matrix through worker processes.
"""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    make_record,
    run_campaign,
)
from repro.campaign.executors import execute_descriptor


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


def test_pool_completes_matrix_in_isolated_workers(tmp_path):
    import os

    spec = selfcheck_spec(range(6))
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=3)
    assert summary.total == summary.executed == summary.succeeded == 6
    assert summary.complete
    records = store.ok_records()
    assert len(records) == 6
    # Per-run isolation: every run got its own worker process.
    pids = {r["metrics"]["pid"] for r in records}
    assert os.getpid() not in pids
    assert {r["metrics"]["seed"] for r in records} == set(range(6))


def test_resume_skips_completed_runs(tmp_path):
    spec = selfcheck_spec(range(4))
    store = ResultStore(tmp_path / "runs.jsonl")
    done = spec.expand()[:2]
    for descriptor in done:
        store.append(make_record(descriptor.to_dict(), "ok",
                                 {"pre": True}, campaign=spec.name))
    summary = run_campaign(spec, store, workers=2)
    assert summary.skipped == 2
    assert summary.executed == 2
    # The pre-populated records were not re-run (their metrics survive).
    latest = store.latest_by_run()
    assert all(latest[d.run_id]["metrics"] == {"pre": True} for d in done)


def test_interrupted_store_reruns_only_missing(tmp_path):
    spec = selfcheck_spec(range(6))
    store = ResultStore(tmp_path / "runs.jsonl", shards=1)
    assert run_campaign(spec, store, workers=3).succeeded == 6
    # Simulate an interrupt that lost half the ledger (plus a torn line).
    records = list(store.records())
    (store.root / "shard-00.jsonl").write_text(
        "\n".join(json.dumps(r) for r in records[:3]) + '\n{"torn": ')
    summary = run_campaign(spec, store, workers=3)
    assert summary.skipped == 3
    assert summary.executed == 3
    assert len(store.completed_ids()) == 6


def test_worker_crash_is_retried_until_success(tmp_path):
    # The worker hard-exits (os._exit) on attempt 1; attempt 2 succeeds.
    spec = selfcheck_spec([0], params={"crash_until_attempt": 2}, retries=2)
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=1)
    assert summary.succeeded == 1 and summary.failed == 0
    assert summary.retries_used == 1
    (record,) = store.ok_records()
    assert record["attempts"] == 2
    assert record["metrics"]["attempt"] == 2


def test_retry_budget_exhaustion_records_failure(tmp_path):
    spec = selfcheck_spec([0], params={"fail": True}, retries=1)
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=1)
    assert summary.failed == 1 and summary.succeeded == 0
    assert not summary.complete
    assert summary.failed_run_ids == [spec.expand()[0].run_id]
    # Every attempt leaves a record: the retried attempt as audit, the
    # exhausted one as the final failure.
    retried, failed = list(store.records())
    assert retried["status"] == "retried"
    assert retried["attempts"] == 1
    assert retried["duration_s"] >= 0.0
    assert "selfcheck: requested failure" in retried["error"]
    assert failed["status"] == "failed"
    assert failed["attempts"] == 2  # initial + 1 retry
    assert "selfcheck: requested failure" in failed["error"]
    # Neither failures nor retry audit records mark the run complete: a
    # resume would retry it, and ok_records ignores both.
    assert store.completed_ids() == set()
    assert store.ok_records() == []


def test_hung_worker_is_killed_at_the_timeout(tmp_path):
    spec = selfcheck_spec([0], params={"hang_s": 30.0},
                          retries=0, timeout_s=0.4)
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=1)
    assert summary.failed == 1
    assert summary.duration_s < 10.0
    (record,) = list(store.records())
    assert record["status"] == "failed"
    assert "timeout" in record["error"]


def test_progress_callback_narrates_the_run(tmp_path):
    lines = []
    spec = selfcheck_spec([0, 1])
    summary = run_campaign(spec, ResultStore(tmp_path / "r.jsonl"),
                           workers=2, progress=lines.append)
    assert summary.complete
    assert any("started" in line for line in lines)
    assert any("ok" in line for line in lines)
    assert any("campaign selfcheck" in line for line in lines)


def test_unknown_experiment_fails_cleanly(tmp_path):
    spec = selfcheck_spec([0], experiment="warp")
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=1)
    assert summary.failed == 1
    (record,) = list(store.records())
    assert "unknown experiment" in record["error"]


def test_execute_descriptor_is_seed_deterministic():
    """Same descriptor -> bit-identical metrics; the reproducibility claim."""
    descriptor = {
        "experiment": "suppression",
        "attack": "stochastic-drop",
        "controller": "pox",
        "topology": "enterprise",
        "fail_mode": "secure",
        "seed": 7,
        "params": {"ping_trials": 3, "iperf_trials": 1,
                   "iperf_duration_s": 0.5, "iperf_gap_s": 0.5,
                   "warmup_s": 2.0},
        "attack_params": {"drop_probability": 0.5},
    }
    first = execute_descriptor(dict(descriptor))
    second = execute_descriptor(dict(descriptor))
    assert first == second
    assert first["attack"] == "stochastic-drop"


def test_real_suppression_matrix_through_worker_processes(tmp_path):
    spec = CampaignSpec.from_dict({
        "name": "mini",
        "attacks": ["passthrough", "flow-mod-suppression"],
        "controllers": ["pox"],
        "seeds": [1],
        "params": {"ping_trials": 3, "iperf_trials": 1,
                   "iperf_duration_s": 0.5, "iperf_gap_s": 0.5,
                   "warmup_s": 2.0},
    })
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=2)
    assert summary.succeeded == 2
    by_attack = {r["attack"]: r["metrics"] for r in store.ok_records()}
    assert by_attack["passthrough"]["throughput_mbps"] > 10.0
    assert by_attack["flow-mod-suppression"]["denial_of_service"] is True


def test_unexpandable_spec_raises_before_spawning(tmp_path):
    spec = selfcheck_spec([0])
    spec.retries = -1
    with pytest.raises(ValueError, match="retries"):
        run_campaign(spec, ResultStore(tmp_path / "r.jsonl"))
