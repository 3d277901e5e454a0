"""Campaign service soak: 10k-run store scale, resume cost, overhead.

Three claims behind the campaign-as-a-service work, each asserted:

* **Cold resume is O(new records), not O(ledger)** — resuming a fully
  completed 10k-run matrix against the sharded + checkpointed store is
  >= 5x faster than the full-re-read baseline: the same records in a
  single-file ledger, which ``ResultStore`` reads through without a
  checkpoint and so must parse every line to learn the completed set.
* **Streaming is (almost) free** — the scheduler's per-record work
  (subscriber fan-out, events tail, aggregation, checkpoints) costs
  < 5% of a real pooled campaign's wall-clock.
* **Compaction reclaims churn** — a ledger bloated by re-runs shrinks
  to its resume-equivalent minimum without losing any resume state.

``REPRO_BENCH_QUICK=1`` shrinks the soak from 10k to 1k synthesized
runs for CI smoke; the committed ``BENCH_campaign.json`` comes from the
full-scale run.
"""

import json
import os
import statistics
import time

from benchmarks.conftest import print_table
from repro.campaign import (
    CampaignAggregator,
    CampaignScheduler,
    CampaignSpec,
    ResultStore,
    make_record,
)
from repro.campaign.spec import RunDescriptor

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")

#: The soak ledger: one ok record per run.
SOAK_RUNS = 1_000 if QUICK else 10_000
#: Real pooled runs for the overhead measurement (each costs at least
#: one poll interval, so this is wall-clock bound, not CPU bound).
POOLED_RUNS = 40 if QUICK else 150
RESUME_SPEEDUP_FLOOR = 5.0
OVERHEAD_CEILING = 0.05
RESUME_ROUNDS = 5


def soak_descriptor(seed):
    return RunDescriptor(
        experiment="selfcheck", attack=None, controller="x",
        topology="enterprise", fail_mode="secure", seed=seed,
    )


def soak_record(descriptor, seed):
    return make_record(
        descriptor.to_dict(), "ok",
        {"throughput_mbps": 90.0 + (seed % 17), "latency_ms": 0.5},
        duration_s=0.01, campaign="soak",
    )


def fill(store, runs, checkpoint_every=None):
    for seed in range(runs):
        descriptor = soak_descriptor(seed)
        store.append(soak_record(descriptor, seed))
        if checkpoint_every and (seed + 1) % checkpoint_every == 0:
            store.checkpoint()


def write_ledger(path, runs):
    """The soak records as one file, as stores wrote them before sharding."""
    with path.open("w", encoding="utf-8") as handle:
        for seed in range(runs):
            record = dict(soak_record(soak_descriptor(seed), seed),
                          recorded_at=round(time.time(), 3))
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def median_resume(make_store, expected, rounds=RESUME_ROUNDS):
    """Median cold-resume time: fresh store object -> completed set."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        completed = make_store().completed_ids()
        samples.append(time.perf_counter() - start)
        assert len(completed) == expected
    return statistics.median(samples)


def test_soak_resume_sharded_vs_full_reread(tmp_path_factory, benchmark):
    """Fully-completed 10k-run matrix: checkpointed resume >= 5x faster
    than a full re-read of the same records as a single-file ledger."""
    root = tmp_path_factory.mktemp("soak")
    plain_path = root / "plain.jsonl"
    sharded_path = root / "sharded.jsonl"
    write_ledger(plain_path, SOAK_RUNS)
    sharded = ResultStore(sharded_path, shards=8)
    fill(sharded, SOAK_RUNS, checkpoint_every=256)
    sharded.checkpoint()

    plain_s = median_resume(lambda: ResultStore(plain_path), SOAK_RUNS)
    sharded_s = median_resume(
        lambda: ResultStore(sharded_path), SOAK_RUNS)
    speedup = plain_s / sharded_s
    plain_bytes = plain_path.stat().st_size
    sharded_bytes = sharded.stats()["bytes"]
    # Incremental warm resume: K late appends cost O(K), not O(ledger).
    warm = ResultStore(sharded_path)
    warm.completed_ids()
    for seed in range(SOAK_RUNS, SOAK_RUNS + 64):
        warm.append(soak_record(soak_descriptor(seed), seed))
    start = time.perf_counter()
    assert len(warm.completed_ids()) == SOAK_RUNS + 64
    incremental_s = time.perf_counter() - start

    print_table(
        f"Campaign soak — cold resume of a completed {SOAK_RUNS}-run store",
        ("store", "bytes", "resume", "speedup"),
        [
            ("single-file full re-read", f"{plain_bytes:>10,}",
             f"{plain_s * 1e3:8.2f} ms", "1.0x"),
            ("sharded + checkpoint", f"{sharded_bytes:>10,}",
             f"{sharded_s * 1e3:8.2f} ms", f"{speedup:.1f}x"),
            ("incremental (+64 runs)", "-",
             f"{incremental_s * 1e3:8.2f} ms", "-"),
        ],
    )
    assert speedup >= RESUME_SPEEDUP_FLOOR, f"only {speedup:.1f}x"
    assert incremental_s < plain_s

    result = benchmark.pedantic(
        lambda: ResultStore(sharded_path).completed_ids(),
        rounds=RESUME_ROUNDS, iterations=1)
    assert len(result) == SOAK_RUNS + 64
    benchmark.extra_info["soak_runs"] = SOAK_RUNS
    benchmark.extra_info["plain_bytes"] = plain_bytes
    benchmark.extra_info["sharded_bytes"] = sharded_bytes
    benchmark.extra_info["plain_resume_ms"] = round(plain_s * 1e3, 3)
    benchmark.extra_info["sharded_resume_ms"] = round(sharded_s * 1e3, 3)
    benchmark.extra_info["resume_speedup"] = round(speedup, 2)


def test_scheduler_streaming_overhead(tmp_path_factory, benchmark):
    """Streaming/aggregation/checkpointing < 5% of campaign wall-clock
    on a real pooled campaign (records flow through the full path:
    store append -> subscribers -> events tail -> digests -> checkpoint)."""
    root = tmp_path_factory.mktemp("svc")
    store = ResultStore(root / "results.jsonl", shards=8)
    spec = CampaignSpec.from_dict({
        "name": "soak-svc",
        "experiment": "selfcheck",
        "attacks": [None],
        "controllers": ["x"],
        "seeds": list(range(POOLED_RUNS)),
    })
    seen = []

    def run_service():
        aggregator = CampaignAggregator()
        scheduler = CampaignScheduler(
            store, workers=2, aggregator=aggregator,
            stream_path=store.events_path, checkpoint_every=64)
        scheduler.subscribe(seen.append)
        started = time.perf_counter()
        try:
            job = scheduler.submit(spec)
            scheduler.run_until_idle()
        finally:
            scheduler.shutdown()
        wall = time.perf_counter() - started
        return job, scheduler, aggregator, wall

    job, scheduler, aggregator, wall = benchmark.pedantic(
        run_service, rounds=1, iterations=1)
    assert job.summary.succeeded == POOLED_RUNS
    assert len(seen) == POOLED_RUNS
    assert aggregator.records_seen == POOLED_RUNS
    overhead = scheduler.stream_seconds / wall
    per_record_us = scheduler.stream_seconds / POOLED_RUNS * 1e6
    print_table(
        f"Campaign soak — scheduler streaming overhead ({POOLED_RUNS} "
        f"pooled runs)",
        ("quantity", "value"),
        [
            ("campaign wall-clock", f"{wall:8.2f} s"),
            ("streaming seconds", f"{scheduler.stream_seconds:8.4f} s"),
            ("per-record cost", f"{per_record_us:8.1f} us"),
            ("overhead", f"{overhead * 100:8.2f} %"),
        ],
    )
    assert overhead < OVERHEAD_CEILING, f"{overhead * 100:.2f}%"
    # The stream tail carries every record the campaign produced.
    events = store.events_path
    assert len(events.read_text().splitlines()) == POOLED_RUNS
    benchmark.extra_info["pooled_runs"] = POOLED_RUNS
    benchmark.extra_info["wall_s"] = round(wall, 3)
    benchmark.extra_info["stream_s"] = round(scheduler.stream_seconds, 5)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 3)


def test_soak_compaction_reclaims_churn(tmp_path_factory, benchmark):
    """Heavy re-run churn: compaction shrinks the ledger back to its
    resume-equivalent minimum and the resume set survives unchanged."""
    root = tmp_path_factory.mktemp("compact")
    store = ResultStore(root / "results.jsonl", shards=8)
    churn = max(1, SOAK_RUNS // 10)
    fill(store, churn)
    # Every run re-executes four more times (parameter sweeps, flaky
    # re-runs): 80% of the ledger becomes superseded history.
    for _round in range(4):
        fill(store, churn)
    before = store.stats()
    completed_before = store.completed_ids()

    result = benchmark.pedantic(store.compact, rounds=1, iterations=1)
    after = store.stats()
    reclaim = 1.0 - after["bytes"] / before["bytes"]
    print_table(
        f"Campaign soak — compaction of a {churn}-run x5 churn ledger",
        ("quantity", "before", "after"),
        [
            ("records", before["records"], after["records"]),
            ("superseded", before["superseded"], after["superseded"]),
            ("bytes", f"{before['bytes']:,}", f"{after['bytes']:,}"),
        ],
    )
    assert result["kept"] == churn
    assert result["archived"] == churn * 4
    assert after["records"] == churn
    assert after["superseded"] == 0
    assert reclaim > 0.5
    # Resume state is exactly preserved, both warm and cold.
    assert store.completed_ids() == completed_before
    assert ResultStore(root / "results.jsonl").completed_ids() \
        == completed_before
    benchmark.extra_info["churn_runs"] = churn
    benchmark.extra_info["records_before"] = before["records"]
    benchmark.extra_info["bytes_before"] = before["bytes"]
    benchmark.extra_info["bytes_after"] = after["bytes"]
    benchmark.extra_info["reclaim_pct"] = round(reclaim * 100, 2)
