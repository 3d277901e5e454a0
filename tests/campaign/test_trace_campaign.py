"""Traces through the campaign pipeline, and worker-pool state hygiene.

Two contracts ride together here: (1) ``--trace`` campaigns persist one
JSONL artifact per run next to the store and stamp the record with it;
(2) nothing a trace can see outlives a run — a trace from a reused
worker is byte-identical to one from a cold process, which is a strictly
stronger check than comparing metrics (xids and message ids leak through
traces but not through metrics).
"""

import json

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.executors import execute_descriptor
from repro.obs import TraceCollector, load_events


def interruption_spec(seeds=(0,), name="traced"):
    return CampaignSpec.from_dict({
        "name": name,
        "experiment": "interruption",
        "attacks": ["connection-interruption"],
        "controllers": ["pox"],
        "fail_modes": ["standalone"],
        "seeds": list(seeds),
        "timeout_s": 120.0,
    })


def test_traced_campaign_persists_artifacts(tmp_path):
    spec = interruption_spec()
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=1, trace=True)
    assert summary.succeeded == 1
    (record,) = store.ok_records()
    trace_info = record["trace"]
    assert trace_info["events"] > 0
    path = store.trace_path(record["run_id"])
    assert str(path) == trace_info["path"]
    events = load_events(path)
    assert len(events) == trace_info["events"]
    # The CI smoke contract: the trace parses and shows the attack firing.
    assert any(e["kind"] == "rule_fired" for e in events)
    # Duration bookkeeping is explicit on campaign records too.
    assert record["wall_duration_s"] > 0
    assert record["sim_duration_s"] > 100.0


def test_untraced_campaign_has_no_artifacts(tmp_path):
    spec = interruption_spec(name="untraced")
    store = ResultStore(tmp_path / "runs.jsonl")
    summary = run_campaign(spec, store, workers=1)
    assert summary.succeeded == 1
    (record,) = store.ok_records()
    assert "trace" not in record
    assert not store.traces_dir.exists()


def test_pooled_worker_trace_matches_cold_run(tmp_path):
    """The satellite regression: back-to-back runs in one pooled worker
    must report byte-identical traces to cold runs of the same cells."""
    spec = interruption_spec(seeds=(0, 1), name="pool-vs-cold")
    store = ResultStore(tmp_path / "runs.jsonl")
    # workers=1 forces the second cell through a reused worker process.
    summary = run_campaign(spec, store, workers=1, trace=True)
    assert summary.succeeded == 2
    assert summary.processes_spawned == 1
    for descriptor in spec.expand():
        pooled = store.trace_path(descriptor.run_id).read_text()
        tracer = TraceCollector()
        execute_descriptor(descriptor.to_dict(), tracer=tracer)
        assert tracer.to_jsonl() == pooled, (
            f"stale worker state leaked into {descriptor.run_id}")


def test_executor_skips_trace_for_unsupported_experiments():
    tracer = TraceCollector()
    metrics = execute_descriptor({
        "run_id": "x", "experiment": "selfcheck", "controller": "none",
    }, tracer=tracer)
    assert metrics["ok"]
    assert tracer.events_total == 0


def test_trace_jsonl_lines_are_valid_json(tmp_path):
    spec = interruption_spec(name="parse-check")
    store = ResultStore(tmp_path / "runs.jsonl")
    run_campaign(spec, store, workers=1, trace=True)
    (record,) = store.ok_records()
    raw = store.trace_path(record["run_id"]).read_text()
    lines = raw.strip().splitlines()
    assert lines
    for line in lines:
        event = json.loads(line)
        assert {"seq", "t", "kind"} <= set(event)
