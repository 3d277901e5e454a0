"""The append-only JSONL result store: durability, resume bookkeeping."""

import json

from repro.campaign import RECORD_SCHEMA, ResultStore, RunDescriptor, make_record


def descriptor(seed=0, attack="passthrough"):
    return RunDescriptor(
        experiment="suppression", attack=attack, controller="pox",
        topology="enterprise", fail_mode="secure", seed=seed,
    )


def test_append_and_read_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    record = make_record(descriptor().to_dict(), "ok", {"throughput_mbps": 9.0},
                         attempts=1, duration_s=0.5, campaign="c")
    assert record["schema"] == RECORD_SCHEMA
    store.append(record)
    (loaded,) = list(store.records())
    assert loaded["run_id"] == descriptor().run_id
    assert loaded["metrics"] == {"throughput_mbps": 9.0}
    assert "recorded_at" in loaded
    assert len(store) == 1


def test_completed_ids_counts_only_ok(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    ok, failed = descriptor(seed=1), descriptor(seed=2)
    store.append(make_record(ok.to_dict(), "ok", {}, attempts=1))
    store.append(make_record(failed.to_dict(), "failed", None,
                             attempts=3, error="boom"))
    assert store.completed_ids() == {ok.run_id}
    assert {r["run_id"] for r in store.ok_records()} == {ok.run_id}


def test_torn_final_line_is_skipped(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    store.append(make_record(descriptor(seed=1).to_dict(), "ok", {}))
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"run_id": "deadbeef", "status": "o')  # killed mid-write
    assert len(list(store.records())) == 1
    assert store.completed_ids() == {descriptor(seed=1).run_id}
    # The store stays appendable after the torn line.
    store.append(make_record(descriptor(seed=2).to_dict(), "ok", {}))
    assert len(store.completed_ids()) == 2


def test_latest_record_per_run_wins(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    run = descriptor(seed=5)
    store.append(make_record(run.to_dict(), "ok", {"throughput_mbps": 1.0}))
    store.append(make_record(run.to_dict(), "ok", {"throughput_mbps": 2.0}))
    (latest,) = store.ok_records()
    assert latest["metrics"]["throughput_mbps"] == 2.0
    assert store.latest_by_run()[run.run_id] is not None


def test_ok_records_follow_latest_ok_position(tmp_path):
    """An out-of-order re-run moves to the end of ``ok_records``: the
    ordering contract is the *latest* ok record's file position, not
    where the run first appeared."""
    store = ResultStore(tmp_path / "runs.jsonl")
    first, second, third = (descriptor(seed=s) for s in (1, 2, 3))
    store.append(make_record(first.to_dict(), "ok", {"v": 1.0}))
    store.append(make_record(second.to_dict(), "ok", {"v": 2.0}))
    store.append(make_record(third.to_dict(), "ok", {"v": 3.0}))
    # Re-run the first run after the others completed.
    store.append(make_record(first.to_dict(), "ok", {"v": 9.0}))
    ordered = store.ok_records()
    assert [r["run_id"] for r in ordered] == [
        second.run_id, third.run_id, first.run_id]
    assert ordered[-1]["metrics"] == {"v": 9.0}  # and it is the re-run


def test_index_picks_up_external_appends_incrementally(tmp_path):
    """Two handles on one ledger: records appended through one store
    object surface through the other without a rebuild (the tail reads
    only the new bytes), and a truncation still forces a safe rebuild."""
    path = tmp_path / "runs.jsonl"
    reader, writer = ResultStore(path), ResultStore(path)
    writer.append(make_record(descriptor(seed=1).to_dict(), "ok", {}))
    assert reader.completed_ids() == {descriptor(seed=1).run_id}
    offset_before = reader._tail.offset
    writer.append(make_record(descriptor(seed=2).to_dict(), "ok", {}))
    assert len(reader.completed_ids()) == 2
    assert reader._tail.offset > offset_before  # consumed, not re-read
    # External truncation invalidates the tail and rebuilds cleanly.
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n")
    assert reader.completed_ids() == {descriptor(seed=1).run_id}


def test_missing_file_reads_empty(tmp_path):
    store = ResultStore(tmp_path / "never-written.jsonl")
    assert list(store.records()) == []
    assert store.completed_ids() == set()


def test_records_are_one_json_object_per_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    for seed in range(3):
        store.append(make_record(descriptor(seed=seed).to_dict(), "ok", {}))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert isinstance(json.loads(line), dict)


def _parses(line):
    try:
        json.loads(line)
        return True
    except json.JSONDecodeError:
        return False


def test_truncation_sweep_never_corrupts_resume(tmp_path):
    """Kill-at-every-byte sweep: truncate a healthy store after each
    possible byte, then append and re-read.  Whatever the cut point, the
    healed store must (a) keep every record whose line survived intact,
    (b) never resurrect the torn record, and (c) accept new appends on a
    clean line — so a resume neither mis-skips nor double-runs."""
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    runs = [descriptor(seed=seed) for seed in range(3)]
    for run in runs:
        store.append(make_record(run.to_dict(), "ok", {}))
    pristine = path.read_bytes()
    line_ends = [i + 1 for i, b in enumerate(pristine) if b == ord("\n")]
    new_run = descriptor(seed=99)
    for cut in range(len(pristine) + 1):
        path.write_bytes(pristine[:cut])
        store.append(make_record(new_run.to_dict(), "ok", {}))
        completed = store.completed_ids()
        # The new record always lands intact.
        assert new_run.run_id in completed
        # Every record whose JSON survived the cut is kept (losing only
        # the trailing newline is healed, not fatal); a truly torn one is
        # dropped, never half-parsed into a bogus run_id.
        surviving = sum(1 for end in line_ends if end - 1 <= cut)
        expected = {runs[i].run_id for i in range(surviving)} | {new_run.run_id}
        assert completed == expected, f"cut at byte {cut}"
        # The torn fragment stays (audit trail) but is the only casualty:
        # at most one unparseable line, and never the final one.
        lines = [l for l in path.read_text().splitlines() if l]
        torn = [l for l in lines if not _parses(l)]
        assert len(torn) <= 1
        assert _parses(lines[-1])


def test_same_size_rewrite_sharing_the_last_bytes_rebuilds(tmp_path):
    """A cut one byte later plus a ``recorded_at`` one digit shorter
    rewrites the file to the same size and the same last bytes (records
    of one run differ only mid-line); the open store must still see the
    record the later cut kept, as a fresh store does."""
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    for seed in range(3):
        store.append(dict(make_record(descriptor(seed=seed).to_dict(), "ok", {}),
                          recorded_at=1000.0))
    pristine = path.read_bytes()
    new_record = make_record(descriptor(seed=99).to_dict(), "ok", {})
    # One byte short of the last record's closing brace: it is torn.
    path.write_bytes(pristine[:-2])
    store.append(dict(new_record, recorded_at=1700000000.25))
    assert len(store.completed_ids()) == 3
    size = path.stat().st_size
    # Only its newline is cut now: the record survives the heal.
    path.write_bytes(pristine[:-1])
    store.append(dict(new_record, recorded_at=1700000000.5))
    assert path.stat().st_size == size
    assert store.completed_ids() == ResultStore(path).completed_ids()
    assert len(store.completed_ids()) == 4


def test_heal_terminates_a_torn_tail(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    assert store.heal() is False  # missing file: nothing to do
    store.append(make_record(descriptor(seed=1).to_dict(), "ok", {}))
    assert store.heal() is False  # healthy file: no repair needed
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"torn": tru')
    assert store.heal() is True
    assert path.read_bytes().endswith(b"\n")
    assert store.heal() is False  # idempotent


def test_record_carries_explicit_durations(tmp_path):
    record = make_record(
        descriptor().to_dict(), "ok",
        {"sim_duration_s": 135.0, "throughput_mbps": 1.0},
        duration_s=2.5,
    )
    assert record["duration_s"] == 2.5          # legacy name kept
    assert record["wall_duration_s"] == 2.5     # explicit wall clock
    assert record["sim_duration_s"] == 135.0    # lifted from metrics
    explicit = make_record(descriptor().to_dict(), "ok", {},
                           duration_s=1.0, sim_duration_s=42.0)
    assert explicit["sim_duration_s"] == 42.0
    missing = make_record(descriptor().to_dict(), "failed", None,
                          duration_s=1.0)
    assert missing["sim_duration_s"] is None


def test_write_trace_artifact(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    path = store.write_trace("abc123", '{"kind":"message","seq":1,"t":0.0}')
    assert path == store.trace_path("abc123")
    assert path.parent == store.traces_dir
    content = path.read_text()
    assert content.endswith("\n")
    assert json.loads(content.strip())["kind"] == "message"
