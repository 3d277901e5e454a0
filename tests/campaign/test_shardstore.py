"""The result store's shard layout: fan-out, checkpoint resume, compaction.

The store keeps one reader contract (completed IDs, latest record per
run, latest ok per run, record count) whatever its shard count, checked
here against a dict model, and adds what service mode needs: O(new
records) cold resume via a persisted checkpoint, a round-tripping
manifest, read-through of single-file ledgers written before the
layout existed, and tombstone-policy compaction that never loses resume
state.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    ResultStore,
    RunDescriptor,
    make_record,
    shard_for,
)
from repro.campaign.store import DEFAULT_SHARDS, shard_name


def descriptor(seed=0, attack="passthrough"):
    return RunDescriptor(
        experiment="suppression", attack=attack, controller="pox",
        topology="enterprise", fail_mode="secure", seed=seed,
    )


def ok(run, **metrics):
    return make_record(run.to_dict(), "ok", metrics or {"v": 1.0},
                       campaign="c")


def write_legacy(path, records):
    """A single-file ledger as stores wrote it before the shard layout."""
    path.write_text("".join(
        json.dumps(dict(record, recorded_at=1000.0), sort_keys=True) + "\n"
        for record in records))


def test_records_fan_out_by_run_id_hash(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl", shards=4)
    runs = [descriptor(seed=s) for s in range(16)]
    for run in runs:
        store.append(ok(run))
    # Every record landed in exactly the shard its run ID hashes to.
    for run in runs:
        index = shard_for(run.run_id, 4)
        path = store.root / shard_name(index)
        ids = [json.loads(l)["run_id"]
               for l in path.read_text().splitlines() if l]
        assert run.run_id in ids
    # With 16 distinct runs the hash actually spreads the load.
    populated = [i for i in range(4)
                 if (store.root / shard_name(i)).exists()]
    assert len(populated) >= 2
    assert len(store) == 16


def test_all_records_for_one_run_share_a_shard(tmp_path):
    """Per-run ordering: retries/re-runs append to the same shard, so
    'later supersedes earlier' survives sharding."""
    store = ResultStore(tmp_path / "runs.jsonl", shards=8)
    run = descriptor(seed=3)
    store.append(make_record(run.to_dict(), "retried", None,
                             attempts=1, error="flake"))
    store.append(make_record(run.to_dict(), "failed", None, attempts=2,
                             error="boom"))
    store.append(ok(run, v=2.0))
    populated = [store.root / shard_name(i) for i in range(8)
                 if (store.root / shard_name(i)).exists()]
    assert len(populated) == 1
    assert [r["status"] for r in store.records()] == [
        "retried", "failed", "ok"]
    (latest,) = store.ok_records()
    assert latest["metrics"] == {"v": 2.0}


#: The oracle's run pool: few enough that run IDs repeat.
ORACLE_RUNS = [descriptor(seed=s) for s in range(6)]


def model_views(sequence, shards):
    """What the reader contract promises for ``sequence``, from dicts."""
    latest, ok_at = {}, {}
    for position, record in enumerate(sequence):
        latest[record["run_id"]] = record
        if record["status"] == "ok":
            ok_at[record["run_id"]] = position
    order = sorted(ok_at, key=lambda r: (shard_for(r, shards), ok_at[r]))
    return {
        "completed": set(ok_at),
        "latest": latest,
        "ok": [sequence[ok_at[run_id]] for run_id in order],
    }


def store_views(store):
    return {
        "completed": store.completed_ids(),
        "latest": store.latest_by_run(),
        "ok": store.ok_records(),
    }


@settings(max_examples=60, deadline=None)
@given(
    shards=st.integers(min_value=1, max_value=8),
    appends=st.lists(
        st.tuples(st.integers(0, len(ORACLE_RUNS) - 1),
                  st.sampled_from(("ok", "failed", "retried"))),
        max_size=24),
)
def test_reader_contract_matches_a_dict_model(shards, appends):
    """Any append sequence, at any shard count: completed IDs, latest
    record per run, ok records (shard-major, each shard in latest-ok
    order) and length match a dict model — warm, cold, checkpointed,
    and compacted."""
    sequence = [
        dict(make_record(ORACLE_RUNS[run].to_dict(), status,
                         {"n": n} if status == "ok" else None,
                         error=None if status == "ok" else "x"),
             recorded_at=float(n))
        for n, (run, status) in enumerate(appends)
    ]
    expected = model_views(sequence, shards)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        warm = ResultStore(path, shards=shards)
        half = len(sequence) // 2
        for record in sequence[:half]:
            warm.append(record)
        assert store_views(warm) == model_views(sequence[:half], shards)
        for record in sequence[half:]:
            warm.append(record)
        assert store_views(warm) == expected
        assert len(warm) == len(sequence)

        cold = ResultStore(path)
        assert store_views(cold) == expected
        assert len(cold) == len(sequence)

        cold.checkpoint()
        seeded = ResultStore(path)
        assert seeded._seeded
        assert store_views(seeded) == expected
        assert len(seeded) == len(sequence)

        final = {record["run_id"]: n for n, record in enumerate(sequence)}
        ok_at = {record["run_id"]: n for n, record in enumerate(sequence)
                 if record["status"] == "ok"}
        kept = len(set(final.values()) | set(ok_at.values()))
        seeded.compact()
        for compacted in (seeded, ResultStore(path)):
            assert store_views(compacted) == expected
            assert len(compacted) == kept


def test_manifest_shard_count_round_trips(tmp_path):
    first = ResultStore(tmp_path / "runs.jsonl", shards=3)
    first.append(ok(descriptor(seed=1)))
    manifest = json.loads(first.manifest_path.read_text())
    assert manifest["shards"] == 3
    # Re-opening without the shard count (or with a conflicting one)
    # adopts the manifest's value: the hash placement must not move.
    assert ResultStore(tmp_path / "runs.jsonl").shards == 3
    assert ResultStore(tmp_path / "runs.jsonl", shards=16).shards == 3
    reopened = ResultStore(tmp_path / "runs.jsonl")
    assert reopened.completed_ids() == {descriptor(seed=1).run_id}


def test_heal_repairs_torn_tails_per_shard(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl", shards=4)
    runs = [descriptor(seed=s) for s in range(8)]
    for run in runs:
        store.append(ok(run))
    torn = [p for p in (store.root / shard_name(i) for i in range(4))
            if p.exists()][:2]
    assert len(torn) == 2
    for path in torn:
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"run_id": "dead')  # killed mid-append
    assert store.heal() is True
    for path in torn:
        assert path.read_bytes().endswith(b"\n")
    assert store.heal() is False  # idempotent
    assert store.completed_ids() == {run.run_id for run in runs}


def test_resume_after_mid_append_kill_in_a_shard(tmp_path):
    """A parent killed while appending to shard-NN tears only that
    line; a fresh open neither mis-skips the torn run nor loses the
    healthy shards, and the next append heals the tail."""
    store = ResultStore(tmp_path / "runs.jsonl", shards=4)
    runs = [descriptor(seed=s) for s in range(8)]
    for run in runs:
        store.append(ok(run))
    victim = descriptor(seed=99)
    shard_path = store.root / shard_name(shard_for(victim.run_id, 4))
    with shard_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(ok(victim))[:25])  # torn: no newline
    resumed = ResultStore(tmp_path / "runs.jsonl")
    completed = resumed.completed_ids()
    assert victim.run_id not in completed  # torn record never resurrects
    assert completed == {run.run_id for run in runs}
    resumed.append(ok(victim))  # the re-run lands on its own clean line
    assert victim.run_id in resumed.completed_ids()
    lines = shard_path.read_text().splitlines()
    unparseable = [l for l in lines if l]
    assert sum(1 for l in unparseable if not _parses(l)) == 1
    assert _parses(lines[-1])


def _parses(line):
    try:
        json.loads(line)
        return True
    except json.JSONDecodeError:
        return False


def test_checkpoint_makes_cold_resume_incremental(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl", shards=4)
    runs = [descriptor(seed=s) for s in range(10)]
    for run in runs:
        store.append(ok(run))
    store.checkpoint()
    index = json.loads(store.index_path.read_text())
    assert index["shards"] == 4
    assert set(index["completed"]) == {run.run_id for run in runs}
    # The checkpointed open seeds the index instead of re-reading shards.
    reopened = ResultStore(tmp_path / "runs.jsonl")
    assert reopened._seeded is True
    assert reopened.completed_ids() == {run.run_id for run in runs}
    # Records appended after the checkpoint are still picked up (the
    # tails resume from the recorded offsets, not from EOF).
    late = descriptor(seed=77)
    store.append(ok(late))
    fresh = ResultStore(tmp_path / "runs.jsonl")
    assert fresh._seeded is True
    assert late.run_id in fresh.completed_ids()


def test_stale_checkpoint_is_rejected_not_trusted(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl", shards=4)
    runs = [descriptor(seed=s) for s in range(6)]
    for run in runs:
        store.append(ok(run))
    store.checkpoint()
    # An external tool rewrites a shard under the checkpoint: the
    # fingerprint no longer matches, so the next reader rebuilds.
    populated = next(store.root / shard_name(i) for i in range(4)
                     if (store.root / shard_name(i)).exists())
    surviving = populated.read_text().splitlines()[:-1]
    dropped = json.loads(populated.read_text().splitlines()[-1])["run_id"]
    populated.write_text("".join(line + "\n" for line in surviving))
    reopened = ResultStore(tmp_path / "runs.jsonl")
    completed = reopened.completed_ids()
    assert dropped not in completed
    assert completed == {run.run_id for run in runs} - {dropped}


def test_legacy_single_file_reads_through(tmp_path):
    """An existing single-file ledger keeps working unchanged under the
    shard layout: its records come first, count toward resume, and a
    re-run's shard record supersedes the legacy one."""
    path = tmp_path / "runs.jsonl"
    old_runs = [descriptor(seed=s) for s in range(4)]
    write_legacy(path, [ok(run, v=1.0) for run in old_runs])
    store = ResultStore(path, shards=4)
    assert store.completed_ids() == {run.run_id for run in old_runs}
    new_run = descriptor(seed=50)
    store.append(ok(new_run, v=2.0))
    store.append(ok(old_runs[0], v=3.0))  # re-run of a legacy run
    records = list(store.records())
    assert [r["run_id"] for r in records[:4]] == [
        r.run_id for r in old_runs]  # legacy order preserved, first
    latest = store.latest_by_run()
    assert latest[old_runs[0].run_id]["metrics"] == {"v": 3.0}
    ok_ids = [r["run_id"] for r in store.ok_records()]
    assert ok_ids.index(old_runs[0].run_id) > ok_ids.index(old_runs[1].run_id)


def test_compaction_keeps_resume_equivalent_minimum(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl", shards=2)
    flaky, failed, clean = (descriptor(seed=s) for s in (1, 2, 3))
    store.append(make_record(flaky.to_dict(), "retried", None,
                             attempts=1, error="flake"))
    store.append(ok(flaky, v=1.0))
    store.append(ok(flaky, v=2.0))  # supersedes
    store.append(make_record(failed.to_dict(), "failed", None,
                             attempts=2, error="boom"))
    store.append(ok(clean, v=3.0))
    before = (store.completed_ids(), store.latest_by_run(),
              {r["run_id"]: r["metrics"] for r in store.ok_records()})
    result = store.compact()
    # Kept: flaky's latest ok, failed's failure, clean's ok.
    assert result["kept"] == 3
    assert result["archived"] == 2  # the retry audit + superseded ok
    assert result["generation"] == 1
    after = (store.completed_ids(), store.latest_by_run(),
             {r["run_id"]: r["metrics"] for r in store.ok_records()})
    assert after[0] == before[0]
    assert after[2] == before[2]
    assert {k: v["status"] for k, v in after[1].items()} \
        == {k: v["status"] for k, v in before[1].items()}
    # The dropped records moved to the audit archive, not the void.
    archived = list((store.archive_dir).glob("compact-*.jsonl"))
    assert len(archived) == 1
    audit = [json.loads(l) for l in archived[0].read_text().splitlines()]
    assert {r["status"] for r in audit} == {"retried", "ok"}
    # A fresh open of the compacted layout agrees.
    assert ResultStore(tmp_path / "runs.jsonl").completed_ids() \
        == before[0]


def test_compaction_migrates_the_legacy_ledger(tmp_path):
    path = tmp_path / "runs.jsonl"
    runs = [descriptor(seed=s) for s in range(5)]
    write_legacy(path, [ok(run) for run in runs])
    store = ResultStore(path, shards=4)
    result = store.compact()
    assert result["migrated"] == 5
    assert not path.exists()  # parked under archive/, not deleted
    parked = list(store.archive_dir.glob("legacy-*-runs.jsonl"))
    assert len(parked) == 1
    assert len(parked[0].read_text().splitlines()) == 5
    assert store.completed_ids() == {run.run_id for run in runs}
    # All records now live in shards, placed by the same hash.
    for run in runs:
        shard = store.root / shard_name(shard_for(run.run_id, 4))
        assert run.run_id in shard.read_text()


def test_auto_compaction_policy_needs_floor_and_ratio(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl", shards=2)
    run = descriptor(seed=1)
    # Below the absolute floor: plenty stale by ratio, but too small to
    # be worth a rewrite.
    for i in range(10):
        store.append(ok(run, v=float(i)))
    assert store.maybe_compact() is None
    # Past the floor and majority-stale: compacts.
    for i in range(80):
        store.append(ok(run, v=float(i)))
    result = store.maybe_compact()
    assert result is not None
    assert result["kept"] == 1
    assert store.stats()["superseded"] == 0
    # Immediately after compaction there is nothing left to reclaim.
    assert store.maybe_compact() is None


def test_layout_directory_names_the_store(tmp_path):
    store_path = tmp_path / "svc.jsonl"
    created = ResultStore(store_path, shards=4)
    created.append(ok(descriptor(seed=1)))
    # The .d directory itself names the store (watch-friendly), and
    # the manifest's shard count is adopted.
    from_dir = ResultStore(tmp_path / "svc.jsonl.d")
    assert from_dir.path == store_path
    assert from_dir.root == created.root
    assert from_dir.shards == 4
    assert from_dir.completed_ids() == {descriptor(seed=1).run_id}


def test_shard_count_must_be_positive(tmp_path):
    for shards in (-1, 0):
        with pytest.raises(ValueError, match="shard"):
            ResultStore(tmp_path / "runs.jsonl", shards=shards)
    # Only an unspecified count falls back to the default fan-out.
    assert ResultStore(tmp_path / "runs.jsonl").shards == DEFAULT_SHARDS


def test_trace_artifacts_live_under_the_layout(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl", shards=2)
    path = store.write_trace("abc123", '{"kind":"message","seq":1}')
    assert path == store.trace_path("abc123")
    assert path.parent == store.root / "traces"
    assert path.read_text().endswith("\n")
