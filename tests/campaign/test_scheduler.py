"""The campaign scheduler: service mode, streaming, and pool fault fixes.

Covers what the single-spec runner never exercised: specs submitted
while the pool is mid-campaign, per-record streaming to subscribers and
the events tail, the serve-loop spec inbox, checkpoint/compaction
integration with the store — and the two long-service
regressions (zombie workers on a failed idle hand-off, lost retry
wall-clock) that motivated the scheduler in the first place.
"""

import json
import os
import signal
import time

from repro.campaign import (
    CampaignAggregator,
    CampaignScheduler,
    CampaignSpec,
    ResultStore,
)
from repro.cli import main


def selfcheck_spec(seeds, params=None, retries=0, timeout_s=30.0, **overrides):
    return CampaignSpec.from_dict({
        "name": overrides.pop("name", "selfcheck"),
        "experiment": "selfcheck",
        "attacks": [None],
        "controllers": ["x"],
        "seeds": list(seeds),
        "params": params or {},
        "retries": retries,
        "timeout_s": timeout_s,
        **overrides,
    })


def spec_payload(name, seeds, params=None):
    return {
        "name": name,
        "experiment": "selfcheck",
        "attacks": [None],
        "controllers": ["x"],
        "seeds": list(seeds),
        "params": params or {},
    }


def test_submit_while_running_reuses_warm_workers(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    scheduler = CampaignScheduler(store, workers=1)
    try:
        first = scheduler.submit(selfcheck_spec(range(3), name="first"))
        # Drive the pool until the first campaign has produced at least
        # one record, then inject a second spec mid-flight.
        while not store.completed_ids():
            scheduler.step()
        second = scheduler.submit(selfcheck_spec([10, 11], name="second"))
        scheduler.run_until_idle()
    finally:
        scheduler.shutdown()
    assert first.done and second.done
    assert first.summary.succeeded == 3
    assert second.summary.succeeded == 2
    # The whole point of the service: the second campaign rode the warm
    # pool instead of paying its own spawn.
    assert scheduler.processes_spawned == 1
    assert second.summary.processes_spawned == 0
    by_campaign = {}
    for record in store.ok_records():
        by_campaign.setdefault(record["campaign"], set()).add(
            record["metrics"]["seed"])
    assert by_campaign == {"first": {0, 1, 2}, "second": {10, 11}}


def test_records_stream_to_subscribers_and_events_file(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    events = tmp_path / "events.jsonl"
    seen = []
    scheduler = CampaignScheduler(store, workers=2, stream_path=events)
    scheduler.subscribe(seen.append)
    # A broken subscriber must never take down the pool.
    scheduler.subscribe(lambda record: (_ for _ in ()).throw(RuntimeError()))
    try:
        scheduler.submit(selfcheck_spec(range(4)))
        scheduler.run_until_idle()
    finally:
        scheduler.shutdown()
    assert len(seen) == 4
    # Subscribers got the record exactly as written, stamp included.
    assert all(r["status"] == "ok" and "recorded_at" in r for r in seen)
    streamed = [json.loads(l) for l in events.read_text().splitlines()]
    assert streamed == sorted(seen, key=streamed.index)
    assert {r["run_id"] for r in streamed} == store.completed_ids()
    assert scheduler.stream_seconds >= 0.0


def test_events_stream_heals_a_torn_tail(tmp_path):
    """A stream left torn by a killed parent: the first new record
    starts on a line of its own, so the fragment is the only casualty
    and ``watch`` sees every record of the next campaign."""
    torn = '{"run_id": "deadbeef", "status": "o'
    store = ResultStore(tmp_path / "runs.jsonl")
    store.events_path.parent.mkdir(parents=True)
    store.events_path.write_text(torn)
    scheduler = CampaignScheduler(store, workers=1,
                                  stream_path=store.events_path)
    try:
        scheduler.submit(selfcheck_spec(range(2)))
        scheduler.run_until_idle()
    finally:
        scheduler.shutdown()
    first, *streamed = store.events_path.read_text().splitlines()
    assert first == torn
    assert len(streamed) == 2
    assert {json.loads(line)["run_id"] for line in streamed} \
        == store.completed_ids()


def test_killed_idle_worker_is_reaped_not_leaked(tmp_path):
    """The zombie regression: an idle pooled worker dies between runs;
    the failed hand-off must fully reap it (join + close the parent
    pipe end) and re-queue the task on a fresh worker."""
    import multiprocessing

    store = ResultStore(tmp_path / "runs.jsonl")
    scheduler = CampaignScheduler(store, workers=1)
    try:
        scheduler.submit(selfcheck_spec([0]))
        scheduler.run_until_idle()
        (idle_slot,) = scheduler._slots
        victim = idle_slot.process
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.time() + 5.0
        while victim.is_alive() and time.time() < deadline:
            time.sleep(0.01)
        # The next submission trips the dead-pipe path in _assign.
        job = scheduler.submit(selfcheck_spec([1]))
        scheduler.run_until_idle()
        assert job.summary.succeeded == 1
        # The corpse was joined (exitcode collected => no zombie) and
        # its slot replaced rather than reused.
        assert victim.exitcode is not None
        assert victim not in [s.process for s in scheduler._slots]
        assert scheduler.processes_spawned == 2
    finally:
        scheduler.shutdown()
    # After shutdown nothing is left running under this process.
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    assert not any(p.is_alive() for p in multiprocessing.active_children())


def test_shutdown_closes_every_parent_pipe_end(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    scheduler = CampaignScheduler(store, workers=2)
    scheduler.submit(selfcheck_spec(range(4)))
    scheduler.run_until_idle()
    conns = [slot.conn for slot in scheduler._slots]
    assert conns
    scheduler.shutdown()
    assert all(conn.closed for conn in conns)
    scheduler.shutdown()  # idempotent


def test_retried_attempt_leaves_an_audit_record(tmp_path):
    """The lost-retry-accounting fix: a crash retried to success leaves
    a ``retried`` record carrying the failed attempt's wall-clock, and
    resume/report treat it as pure audit."""
    store = ResultStore(tmp_path / "runs.jsonl")
    scheduler = CampaignScheduler(store, workers=1)
    try:
        job = scheduler.submit(selfcheck_spec(
            [0], params={"crash_until_attempt": 2}, retries=2))
        scheduler.run_until_idle()
    finally:
        scheduler.shutdown()
    assert job.summary.succeeded == 1
    assert job.summary.retries_used == 1
    retried, okayed = list(store.records())
    assert retried["status"] == "retried"
    assert retried["attempts"] == 1
    assert retried["duration_s"] >= 0.0
    assert "worker crashed" in retried["error"]
    assert retried["worker"]["pid"]
    assert okayed["status"] == "ok" and okayed["attempts"] == 2
    # Audit only: the run is complete because of the ok record alone.
    (only_ok,) = store.ok_records()
    assert only_ok["status"] == "ok"


def test_aggregator_folds_every_streamed_record(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    aggregator = CampaignAggregator()
    scheduler = CampaignScheduler(store, workers=2, aggregator=aggregator)
    try:
        scheduler.submit(selfcheck_spec(range(5)))
        scheduler.submit(selfcheck_spec([0], params={"fail": True},
                                        name="doomed"))
        scheduler.run_until_idle()
    finally:
        scheduler.shutdown()
    assert aggregator.records_seen == 6
    cells = {cell.key[0]: cell for cell in aggregator.cells()}
    assert cells["selfcheck"].ok == 5
    assert cells["doomed"].failed == 1
    digest = cells["selfcheck"].digests["wall_duration_s"]
    assert digest.count == 5
    assert "wall_duration_s" in aggregator.render()


def test_sharded_store_is_checkpointed_while_serving(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl", shards=4)
    scheduler = CampaignScheduler(store, workers=2, checkpoint_every=2)
    try:
        scheduler.submit(selfcheck_spec(range(5)))
        scheduler.run_until_idle()
        assert store.index_path.exists()  # mid-run, before shutdown
    finally:
        scheduler.shutdown()
    # A cold open resumes from the checkpoint, not a full re-read.
    reopened = ResultStore(tmp_path / "runs.jsonl")
    assert reopened._seeded is True
    assert len(reopened.completed_ids()) == 5


def test_serve_ingests_specs_from_the_inbox(tmp_path):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    (inbox / "good.json").write_text(json.dumps(spec_payload("inboxed", [0, 1])))
    (inbox / "broken.json").write_text("{not a spec")
    (inbox / "notes.txt").write_text("ignored: wrong suffix")
    store = ResultStore(tmp_path / "runs.jsonl")
    scheduler = CampaignScheduler(store, workers=1)
    jobs = scheduler.serve(inbox=inbox, idle_exit_s=0.3)
    assert [job.spec.name for job in jobs] == ["inboxed"]
    assert jobs[0].summary.succeeded == 2
    # Spool hygiene: accepted specs land in done/, rejects in failed/,
    # non-spec files stay put.
    assert (inbox / "done" / "good.json").exists()
    assert (inbox / "failed" / "broken.json").exists()
    assert (inbox / "notes.txt").exists()
    assert scheduler._closed  # serve shuts the pool down on exit


def test_serve_stop_callback_ends_the_loop(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    scheduler = CampaignScheduler(store, workers=1)
    started = time.time()
    scheduler.serve(stop=lambda: time.time() - started > 0.2)
    assert scheduler._closed
    assert time.time() - started < 10.0


def test_submit_resumes_against_existing_records(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    warm = CampaignScheduler(store, workers=1)
    try:
        warm.submit(selfcheck_spec(range(3)))
        warm.run_until_idle()
    finally:
        warm.shutdown()
    fresh = CampaignScheduler(store, workers=1)
    try:
        job = fresh.submit(selfcheck_spec(range(5)))
        fresh.run_until_idle()
    finally:
        fresh.shutdown()
    assert job.summary.skipped == 3
    assert job.summary.executed == 2
    assert len(store.completed_ids()) == 5


def test_cli_serve_then_watch_round_trip(tmp_path, capsys):
    """End-to-end service smoke through the CLI entry point: serve a
    spec into a store, then watch replays the streamed tail."""
    spec_path = tmp_path / "svc.json"
    spec_path.write_text(json.dumps(spec_payload("svc", [0, 1, 2])))
    store_path = tmp_path / "results.jsonl"
    code = main(["campaign", "serve", str(spec_path),
                 "--store", str(store_path),
                 "--workers", "1", "--idle-exit", "0.2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs"][0]["succeeded"] == 3
    assert payload["store"] == str(store_path)
    # serve streams into the store's layout directory.
    events = ResultStore(store_path).events_path
    assert payload["stream"] == str(events)
    assert len(events.read_text().splitlines()) == 3
    code = main(["campaign", "watch", str(store_path.with_name(
        store_path.name + ".d")), "--from-start", "--count", "3",
        "--timeout", "5"])
    assert code == 0
    watched = capsys.readouterr().out.strip().splitlines()
    assert len(watched) == 3
    assert all(json.loads(line)["campaign"] == "svc" for line in watched)


def test_cli_watch_times_out_without_records(tmp_path):
    quiet = tmp_path / "empty.events.jsonl"
    quiet.write_text("")
    assert main(["campaign", "watch", str(quiet),
                 "--count", "1", "--timeout", "0.3"]) == 1


def test_cli_submit_spools_into_the_inbox(tmp_path, capsys):
    spec_path = tmp_path / "svc.json"
    spec_path.write_text(json.dumps(spec_payload("svc", [0])))
    inbox = tmp_path / "inbox"
    assert main(["campaign", "submit", str(spec_path),
                 "--inbox", str(inbox), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    spooled = inbox / "svc.json"
    assert spooled.exists()
    assert out["spooled"] == str(spooled)
    assert out["campaign"] == "svc"
    # No half-written spool files: the .part staging name is gone.
    assert list(inbox.glob("*.part")) == []
    # A second submit of the same name dedups instead of clobbering.
    assert main(["campaign", "submit", str(spec_path),
                 "--inbox", str(inbox)]) == 0
    assert (inbox / "svc.1.json").exists()
