"""Crash harness: a campaign's store survives kills at every layer.

A small selfcheck campaign runs under :class:`CampaignScheduler` while
something dies: a busy worker, the scheduler mid-append, compaction at
any step, or the tail of a shard.  After a resume, the canonical
records must equal an undisturbed run's — no run lost, exactly one
``ok`` record per run.  Canonical drops what legitimately differs
between executions: the golden corpus's ``EXECUTION_KEYS`` plus the
worker pid and attempt in the metrics, and the attempt count, worker
block, wall-clock stamps and trace path of the record.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    CampaignScheduler,
    CampaignSpec,
    ResultStore,
    run_campaign,
)
from repro.campaign import store as store_module
from repro.campaign.store import shard_name
from tests.golden.corpus import EXECUTION_KEYS

RUNS = 6
SHARDS = 2
WORKERS = 2
#: Long enough that a worker killed right after its hand-off is still
#: mid-run, so every kill costs an attempt.
WORK_S = 0.25
SEED = 20170626

RECORD_RUN_KEYS = ("recorded_at", "attempts", "worker", "duration_s",
                   "wall_duration_s")
METRIC_RUN_KEYS = set(EXECUTION_KEYS) | {"pid", "attempt"}


def crash_spec(seeds=range(RUNS)):
    return CampaignSpec.from_dict({
        "name": "crash",
        "experiment": "selfcheck",
        "attacks": [None],
        "controllers": ["x"],
        "seeds": list(seeds),
        "params": {"work_s": WORK_S},
        "retries": 4,
        "timeout_s": 30.0,
    })


def canonical(store):
    """The latest ok record per run, minus what differs per execution."""
    out = {}
    for run_id, record in store.latest_by_run().items():
        if record["status"] != "ok":
            continue
        kept = {k: v for k, v in record.items() if k not in RECORD_RUN_KEYS}
        kept["metrics"] = {k: v for k, v in record["metrics"].items()
                           if k not in METRIC_RUN_KEYS}
        kept["trace"] = {k: v for k, v in record["trace"].items()
                         if k != "path"}
        out[run_id] = kept
    return out


def assert_matches_reference(store, reference):
    assert canonical(store) == reference
    oks = Counter(r["run_id"] for r in store.records() if r["status"] == "ok")
    assert set(oks) == set(reference) and set(oks.values()) == {1}


def resume(path):
    store = ResultStore(path)
    summary = run_campaign(crash_spec(), store, workers=WORKERS, trace=True)
    assert summary.failed == 0
    assert summary.skipped + summary.succeeded == RUNS
    return ResultStore(path)


def copy_store(src, dst):
    """Copy a store (legacy ledger and layout) to a new logical path."""
    for name in (src.name, src.name + ".d"):
        source = src.with_name(name)
        target = dst.with_name(name.replace(src.name, dst.name, 1))
        if source.is_dir():
            shutil.copytree(source, target)
        elif source.exists():
            shutil.copy2(source, target)
    return dst


def run_with_worker_kills(store, spec, kills, rng):
    """Drive ``spec`` and SIGKILL a busy worker after each seeded record.

    A kill falls due when the record count reaches one of ``kills``; it
    lands on a worker that is busy and has not reported yet, right after
    the scheduler's next sweep.  Returns the number of kills made.
    """
    due = []
    seen = []

    def on_record(record):
        seen.append(record)
        if len(seen) in kills:
            due.append(len(seen))

    scheduler = CampaignScheduler(store, workers=WORKERS, trace=True)
    scheduler.subscribe(on_record)
    made = 0
    try:
        scheduler.submit(spec)
        while scheduler.step():
            busy = [s for s in scheduler._slots
                    if s.busy and not s.conn.poll()]
            if due and busy:
                due.pop()
                os.kill(rng.choice(busy).process.pid, signal.SIGKILL)
                made += 1
    finally:
        scheduler.shutdown()
    return made


@pytest.fixture(scope="module")
def undisturbed(tmp_path_factory):
    """An undisturbed run of the crash spec: its store and canonical set."""
    path = tmp_path_factory.mktemp("undisturbed") / "runs.jsonl"
    store = ResultStore(path, shards=SHARDS)
    summary = run_campaign(crash_spec(), store, workers=WORKERS, trace=True)
    assert summary.succeeded == RUNS
    reference = canonical(ResultStore(path))
    assert len(reference) == RUNS
    return path, reference


def test_busy_workers_killed_at_seeded_record_boundaries(tmp_path,
                                                         undisturbed):
    _path, reference = undisturbed
    rng = random.Random(SEED)
    # Early boundaries, so queued work remains for every kill to land on.
    kills = set(rng.sample(range(1, RUNS // 2 + 1), 2))
    store = ResultStore(tmp_path / "runs.jsonl", shards=SHARDS)
    made = run_with_worker_kills(store, crash_spec(), kills, rng)
    assert made == len(kills)
    retried = [r for r in store.records() if r["status"] == "retried"]
    assert len(retried) == made
    assert all("worker crashed" in r["error"] for r in retried)
    assert_matches_reference(resume(store.path), reference)


#: Runs ``run_campaign`` in its own interpreter; its ``k``-th append
#: writes half a line and SIGKILLs the process.
APPEND_KILLER = r"""
import json, os, signal, sys, time
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.store import shard_for, shard_name

path, kill_at, shards, spec = sys.argv[1:]
kill_at, shards = int(kill_at), int(shards)
appends = 0
real_append = ResultStore.append


def append(self, record):
    global appends
    appends += 1
    if appends == kill_at:
        payload = dict(record, recorded_at=round(time.time(), 3))
        line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._ensure_layout()
        shard = self.root / shard_name(shard_for(payload["run_id"], shards))
        with shard.open("ab") as handle:
            handle.write(line[: len(line) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    return real_append(self, record)


ResultStore.append = append
run_campaign(CampaignSpec.from_dict(json.loads(spec)),
             ResultStore(path, shards=shards), workers=2, trace=True)
"""


def _wait_for_group_exit(pgid, timeout_s=10.0):
    """True once no process of group ``pgid`` is left; kills it after
    ``timeout_s`` and returns False."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    os.killpg(pgid, signal.SIGKILL)
    return False


def test_scheduler_killed_mid_append_at_seeded_records(tmp_path,
                                                      undisturbed):
    """The scheduler dies halfway through writing a record: the torn
    line is the only casualty, its workers exit on their own, and a
    resume re-runs exactly the runs without an intact ok record."""
    _path, reference = undisturbed
    spec = json.dumps(crash_spec().to_dict())
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    for kill_at in sorted(random.Random(SEED).sample(range(1, RUNS + 1), 2)):
        path = tmp_path / f"killed-at-{kill_at}.jsonl"
        log = tmp_path / f"killed-at-{kill_at}.log"
        with log.open("wb") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-c", APPEND_KILLER, str(path),
                 str(kill_at), str(SHARDS), spec],
                env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True)
            returncode = child.wait(timeout=60)
        assert returncode == -signal.SIGKILL, log.read_text()
        # Orphaned workers see their pipe close and exit by themselves.
        assert _wait_for_group_exit(child.pid)
        store = ResultStore(path)
        assert len(store.completed_ids()) == kill_at - 1
        tails = [(store.root / shard_name(i)).read_bytes()
                 for i in range(SHARDS)
                 if (store.root / shard_name(i)).exists()]
        assert sum(not tail.endswith(b"\n") for tail in tails) == 1
        assert_matches_reference(resume(path), reference)


def test_every_cut_of_each_shards_last_record(tmp_path, undisturbed):
    """Truncate each shard at every byte of its last record: the store
    completes exactly the runs whose lines survived, and a resume from a
    seeded sample of cuts reproduces the undisturbed records."""
    source, reference = undisturbed
    rng = random.Random(SEED)
    pristine_store = ResultStore(source)
    resumed = 0
    for index in range(SHARDS):
        name = shard_name(index)
        pristine = (pristine_store.root / name).read_bytes()
        lines = pristine.splitlines(keepends=True)
        start = len(pristine) - len(lines[-1])
        last = json.loads(lines[-1])["run_id"]
        cuts = range(start, len(pristine) + 1)
        sampled = set(rng.sample(cuts, 2))
        path = copy_store(source, tmp_path / f"cut-{index}.jsonl")
        shard = ResultStore(path).root / name
        for cut in cuts:
            shard.write_bytes(pristine[:cut])
            # The record survives while its JSON does (only the newline
            # may go); a torn record never completes its run.
            survived = cut >= len(pristine) - 1
            expected = set(reference) - (set() if survived else {last})
            assert ResultStore(path).completed_ids() == expected, cut
            if cut in sampled:
                resumed_path = copy_store(
                    path, tmp_path / f"resumed-{index}-{cut}.jsonl")
                assert_matches_reference(resume(resumed_path), reference)
                resumed += 1
    assert resumed == 2 * SHARDS


def _killed_compaction(path, step):
    """Compact ``path`` in a forked child that SIGKILLs itself at its
    ``step``-th write: an ``os.replace``, or an archive append (half
    written).  Returns False when compaction finished before ``step``."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        try:
            steps = iter(range(1, step + 1))
            real_replace = os.replace
            real_append = store_module._append_lines

            def replace(src, dst):
                real_replace(src, dst)
                if next(steps) == step:
                    os.kill(os.getpid(), signal.SIGKILL)

            def append_lines(target, lines):
                if lines and next(steps) == step:
                    data = b"".join(line + b"\n" for line in lines)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    with target.open("ab") as handle:
                        handle.write(data[: len(data) // 2])
                    os.kill(os.getpid(), signal.SIGKILL)
                real_append(target, lines)

            os.replace = replace
            store_module._append_lines = append_lines
            ResultStore(path).compact()
            os._exit(0)  # finished before reaching ``step``
        except BaseException:
            os._exit(1)
    deadline = time.time() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.time() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError(f"compaction stalled before step {step}")
        time.sleep(0.005)
    if os.WIFSIGNALED(status):
        assert os.WTERMSIG(status) == signal.SIGKILL
        return True
    assert os.WEXITSTATUS(status) == 0, "compaction raised in the child"
    return False


def _lines(store):
    """Every line in the ledger and its archive, torn ones included."""
    files = [store.path] + [store.root / shard_name(i)
                            for i in range(store.shards)]
    if store.archive_dir.exists():
        files.extend(sorted(store.archive_dir.iterdir()))
    out = Counter()
    for path in files:
        if path.exists():
            out.update(line for line in path.read_bytes().splitlines()
                       if line.strip())
    return out


def _ledger_state(store):
    return {
        "records": list(store.records()),
        "len": len(store),
        "stats": store.stats(),
        "shards": [(store.root / shard_name(i)).read_bytes()
                   for i in range(store.shards)],
    }


def test_compaction_killed_at_every_step(tmp_path, undisturbed):
    """A legacy ledger (with a torn tail) plus shards holding retried
    audit records, compacted and killed at every write: the ledger and
    the archive keep every line, and the next ``maybe_compact()`` lands
    on the state an uninterrupted compaction leaves."""
    _path, reference = undisturbed
    rng = random.Random(SEED)
    base = tmp_path / "base.jsonl"
    first = ResultStore(base, shards=1)
    run_campaign(crash_spec(range(RUNS // 2)), first, workers=WORKERS,
                 trace=True)
    # Written as stores wrote it before the shard layout: one file.
    os.replace(first.root / shard_name(0), base)
    with base.open("ab") as handle:
        handle.write(b'{"run_id": "torn", "status": "o')
    first.manifest_path.unlink()
    first.index_path.unlink()
    store = ResultStore(base, shards=SHARDS)
    made = run_with_worker_kills(store, crash_spec(), {1, 2}, rng)
    assert made == 2
    before = _lines(ResultStore(base))

    clean = ResultStore(copy_store(base, tmp_path / "clean.jsonl"))
    clean.compact()
    expected = _ledger_state(ResultStore(clean.path))
    assert_matches_reference(ResultStore(clean.path), reference)

    step = 1
    while True:
        path = copy_store(base, tmp_path / f"killed-{step}.jsonl")
        if not _killed_compaction(path, step):
            break
        after = _lines(ResultStore(path))
        lost = before - after
        assert not lost, f"step {step} lost {sorted(lost)[:1]}"
        ResultStore(path).maybe_compact()
        assert _ledger_state(ResultStore(path)) == expected, f"step {step}"
        step += 1
    # At least: the mark, the junk archive, each shard's replace, the
    # legacy park, the manifest and the checkpoint.
    assert step - 1 >= SHARDS + 5
