"""The campaign result store: an append-only JSONL ledger sharded by run ID.

One record per line, fanned out across ``<store>.d/shard-NN.jsonl`` by a
hash of the run ID, so every record of one run lands in one shard and
later records of a run always read after earlier ones.  Only the
campaign parent process writes (workers ship results back over pipes),
so appends need no cross-process locking; readers tolerate a torn final
line from a parent killed mid-write.

Layout under ``<store>.d/``::

    manifest.json     shard count + compaction generation (round-trips)
    shard-NN.jsonl    the ledger, hashed by run ID
    index.json        checkpoint: per-shard byte offsets + completed IDs
    events.jsonl      the scheduler's follow-mode stream
    archive/          audit lines rewritten out of the shards by compact()
    traces/           per-run trace exports

``completed_ids`` is what makes campaigns resumable: re-running a spec
skips every run whose ID already has an ``"ok"`` record.  Failed records
stay as an audit trail but do not mark the run complete, so a resume
retries them.  ``"retried"`` records are pure audit (where the
wall-clock of a flaky run went) and never mark a run complete either.

A single-file ledger at ``<store>`` itself, the layout stores had before
they were sharded, is read through: its records read before every shard
record.  ``compact()`` migrates it into the shards and parks it under
``archive/``.

Reads are incremental: every file keeps a byte-offset tail, so repeated
reads cost O(new records), and ``checkpoint()`` persists the offsets
and the completed set so a cold resume costs O(new records) too.  A
file rewritten under the index invalidates its tail and triggers a
rebuild.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

#: Schema tag stamped on every record (also emitted by the CLI ``--json``
#: modes, so single-shot runs and campaign runs share one format).
RECORD_SCHEMA = "attain.campaign.run.v1"

#: Schema tags for the layout's metadata files.
MANIFEST_SCHEMA = "attain.campaign.store.v1"
INDEX_SCHEMA = "attain.campaign.index.v1"

#: Default shard fan-out.  Wide enough that compaction rewrites stay
#: small relative to the ledger, small enough that a resume's directory
#: scan is negligible.
DEFAULT_SHARDS = 8

#: Auto-compaction policy (mirrors the simulator's heap tombstone
#: sweep): rewrite once superseded records both clear an absolute floor
#: and outnumber the live ones.
_COMPACT_MIN_SUPERSEDED = 64
_COMPACT_RATIO = 0.5

#: Key for the legacy single-file ledger in the checkpoint offsets map.
_LEGACY_KEY = "__legacy__"

#: Statuses that mark a run as done for resume purposes.  ``"failed"``
#: and ``"retried"`` records are audit trail only.
_OK = "ok"


def make_record(
    descriptor: Dict[str, object],
    status: str,
    metrics: Optional[Dict[str, object]],
    attempts: int = 1,
    duration_s: float = 0.0,
    error: Optional[str] = None,
    campaign: Optional[str] = None,
    worker: Optional[Dict[str, object]] = None,
    sim_duration_s: Optional[float] = None,
    trace: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build one store record from a run descriptor's ``to_dict()``.

    ``worker`` optionally carries pool observability (the executing
    worker's pid and its ``runs_executed`` count); absent for runs
    recorded outside a pool (single-shot CLI runs, pre-pool records).

    ``duration_s`` is the run's wall-clock duration; it is recorded both
    under its legacy name and explicitly as ``wall_duration_s``.
    ``sim_duration_s`` is the simulated horizon the run reached — taken
    from ``metrics["sim_duration_s"]`` when not given.  ``trace``
    optionally points at the run's exported trace artifact
    (``{"path": ..., "events": ...}``).
    """
    if sim_duration_s is None and metrics is not None:
        raw = metrics.get("sim_duration_s")
        if isinstance(raw, (int, float)):
            sim_duration_s = float(raw)
    record = {
        "schema": RECORD_SCHEMA,
        "run_id": descriptor["run_id"],
        "campaign": campaign,
        "experiment": descriptor["experiment"],
        "attack": descriptor.get("attack"),
        "controller": descriptor.get("controller"),
        "topology": descriptor.get("topology"),
        "fail_mode": descriptor.get("fail_mode"),
        "seed": descriptor.get("seed"),
        "params": descriptor.get("params") or {},
        "attack_params": descriptor.get("attack_params") or {},
        "status": status,
        "attempts": attempts,
        "duration_s": round(duration_s, 4),
        "wall_duration_s": round(duration_s, 4),
        "sim_duration_s": (
            round(sim_duration_s, 6) if sim_duration_s is not None else None
        ),
        "error": error,
        "metrics": metrics,
    }
    if worker is not None:
        record["worker"] = worker
    if trace is not None:
        record["trace"] = trace
    return record


def iter_jsonl(path: Path) -> Iterator[Dict[str, object]]:
    """Yield every parseable dict record in ``path``; skip torn lines."""
    if not path.exists():
        return
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from an interrupted run
            if isinstance(record, dict):
                yield record


def shard_for(run_id: str, shards: int) -> int:
    """Deterministic shard index for a run ID (16-hex sha256 prefix)."""
    try:
        return int(run_id[:8], 16) % shards
    except (TypeError, ValueError):
        return 0


def shard_name(index: int) -> str:
    return f"shard-{index:02d}.jsonl"


def _terminate_tail(handle) -> bool:
    """Newline-terminate a torn final line of a file opened ``a+b``.

    Returns True if healing happened.  A process killed mid-append
    leaves a record fragment with no trailing newline.  Starting the
    next line on a line of its own keeps the torn record the only
    casualty: the fragment never parses as JSON (readers skip it), so a
    resume neither mis-skips the interrupted run nor double-counts a
    healthy one, and a follower of the file loses no later line.
    """
    handle.seek(0, 2)
    if handle.tell() == 0:
        return False
    handle.seek(-1, 2)
    if handle.read(1) == b"\n":
        return False
    handle.write(b"\n")
    return True


def _append_lines(path: Path, lines: List[bytes]) -> None:
    """Append whole lines to ``path``, flushed, after healing its tail."""
    if not lines:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as handle:
        _terminate_tail(handle)
        handle.write(b"".join(line + b"\n" for line in lines))
        handle.flush()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text + "\n", encoding="utf-8")
    os.replace(tmp, path)


class _JsonlTail:
    """Incremental reader over one append-only JSONL file.

    Tracks a byte offset and parses only the complete (newline
    terminated) lines appended since the previous call, so derived
    indexes cost O(new records) to refresh.  A torn final line is left
    unconsumed — once ``_terminate_tail`` heals it the fragment reads as
    one unparseable line and is skipped.  A final line that parses is
    whole (only its newline was lost) and is consumed.

    Rewrites are detected two ways: a file smaller than the offset, and
    a fingerprint mismatch on the last consumed line (catches a file
    rewritten to a similar-or-larger size, e.g. a truncate-then-append
    interleaving).  Either invalidates the tail so the caller rebuilds
    derived state from scratch.  The fingerprint is the whole line, not
    a fixed-size suffix: records of one run share everything but the
    ``recorded_at`` stamp mid-line, so their last bytes match.  It must
    still be a whole line of the file (preceded by a newline or the
    start), so a suffix print from an older index forces one rebuild.
    """

    __slots__ = ("path", "offset", "fingerprint")

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.offset = 0
        self.fingerprint = b""

    def size(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def invalidated(self) -> bool:
        if self.size() < self.offset:
            return True
        if self.offset == 0:
            return False
        start = self.offset - len(self.fingerprint)
        if start < 0 or not self.fingerprint:
            return True
        expected = self.fingerprint if start == 0 else b"\n" + self.fingerprint
        try:
            with self.path.open("rb") as handle:
                handle.seek(self.offset - len(expected))
                return handle.read(len(expected)) != expected
        except OSError:
            return True

    def reset(self) -> None:
        self.offset = 0
        self.fingerprint = b""

    def read_new(self) -> Iterator[Dict[str, object]]:
        try:
            handle = self.path.open("rb")
        except OSError:
            return
        with handle:
            handle.seek(self.offset)
            while True:
                line = handle.readline()
                if not line:
                    break
                text = line.strip()
                try:
                    record = json.loads(text) if text else None
                except ValueError:
                    record = None
                if not line.endswith(b"\n") and not isinstance(record, dict):
                    break  # torn tail: stays unconsumed until healed
                # Consumed even without its newline when it parses, as
                # ``records()`` reads it; healing appends the newline
                # after the consumed bytes.
                self.offset += len(line)
                self.fingerprint = line
                if isinstance(record, dict):
                    yield record


class _ShardView:
    """One source file's slice of the in-memory index."""

    __slots__ = ("name", "tail", "latest", "ok", "superseded")

    def __init__(self, name: str, path: Path) -> None:
        self.name = name
        self.tail = _JsonlTail(path)
        self.latest: Dict[str, Dict[str, object]] = {}
        # Insertion order tracks the *latest* ok occurrence per run:
        # ``_fold`` re-inserts on every ok record (move-to-end), which is
        # what makes ``ok_records`` honour its file-order contract.
        self.ok: Dict[str, Dict[str, object]] = {}
        self.superseded = 0

    @property
    def path(self) -> Path:
        return self.tail.path

    def reset(self) -> None:
        self.tail.reset()
        self.latest.clear()
        self.ok.clear()
        self.superseded = 0


class ResultStore:
    """The campaign's ledger, sharded by run ID.

    ``path`` is the *logical* store path; the shard directory lives
    beside it at ``<path>.d``, and passing that directory names the same
    store.  Opening an existing layout adopts its manifest's shard
    count, so the fan-out round-trips without callers having to
    remember it; ``shards`` only sizes a store that does not exist yet.
    """

    def __init__(self, path, shards: Optional[int] = None) -> None:
        path = Path(path)
        if path.name.endswith(".d"):
            path = path.with_name(path.name[:-2])
        self.path = path
        self.root = path.with_name(path.name + ".d")
        manifest = self._read_manifest()
        if manifest is not None:
            self.shards = int(manifest.get("shards") or DEFAULT_SHARDS)
        else:
            self.shards = int(shards or DEFAULT_SHARDS)
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards!r}")
        self._legacy = _ShardView(_LEGACY_KEY, self.path)
        self._views = [
            _ShardView(shard_name(i), self.root / shard_name(i))
            for i in range(self.shards)
        ]
        self._completed: Set[str] = set()
        self._count = 0
        # False while ``_completed`` is checkpoint-seeded but the
        # latest/ok maps have not been built from a full scan yet.
        self._full = False
        self._seeded = self._load_checkpoint()

    # ------------------------------------------------------------------ #
    # Layout metadata
    # ------------------------------------------------------------------ #

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def archive_dir(self) -> Path:
        return self.root / "archive"

    @property
    def events_path(self) -> Path:
        """Where a scheduler streams this store's follow-mode tail."""
        return self.root / "events.jsonl"

    def _read_manifest(self) -> Optional[Dict[str, object]]:
        try:
            data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def _write_manifest(self, compactions: int = 0,
                        compacting: bool = False) -> None:
        payload = {
            "schema": MANIFEST_SCHEMA,
            "shards": self.shards,
            "compactions": compactions,
        }
        if compacting:
            payload["compacting"] = True
        _atomic_write(self.manifest_path, json.dumps(payload, sort_keys=True))

    def _ensure_layout(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        if not self.manifest_path.exists():
            self._write_manifest()

    # ------------------------------------------------------------------ #
    # Checkpoint (persisted resume index)
    # ------------------------------------------------------------------ #

    def _load_checkpoint(self) -> bool:
        """Seed ``_completed`` + tail offsets from ``index.json``.

        Returns True when the checkpoint was adopted.  A checkpoint is
        rejected wholesale if the manifest shard count changed or any
        file shrank below its recorded offset — the subsequent full
        rebuild is always correct, just slower.
        """
        try:
            data = json.loads(self.index_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return False
        if not isinstance(data, dict) or data.get("shards") != self.shards:
            return False
        offsets = data.get("offsets")
        prints = data.get("prints")
        completed = data.get("completed")
        if (not isinstance(offsets, dict) or not isinstance(prints, dict)
                or not isinstance(completed, list)):
            return False
        views = {view.name: view for view in self._all_views()}
        staged = []
        for name, offset in offsets.items():
            view = views.get(name)
            fingerprint = prints.get(name)
            if (view is None or not isinstance(offset, int) or offset < 0
                    or not isinstance(fingerprint, str)):
                return False
            if view.tail.size() < offset:
                return False
            try:
                staged.append((view, offset, bytes.fromhex(fingerprint)))
            except ValueError:
                return False
        for view, offset, fingerprint in staged:
            view.tail.offset = offset
            view.tail.fingerprint = fingerprint
        self._completed = {r for r in completed if isinstance(r, str)}
        self._count = int(data.get("records") or 0)
        return True

    def checkpoint(self) -> Path:
        """Persist the resume index so the *next* open is O(new records)."""
        self._refresh(full=False)
        self._ensure_layout()
        payload = {
            "schema": INDEX_SCHEMA,
            "shards": self.shards,
            "offsets": {v.name: v.tail.offset for v in self._all_views()},
            "prints": {v.name: v.tail.fingerprint.hex()
                       for v in self._all_views()},
            "completed": sorted(self._completed),
            "records": self._count,
        }
        _atomic_write(self.index_path, json.dumps(payload, sort_keys=True))
        return self.index_path

    # ------------------------------------------------------------------ #
    # Incremental index
    # ------------------------------------------------------------------ #

    def _all_views(self) -> List[_ShardView]:
        return [self._legacy] + self._views

    def _fold(self, view: _ShardView, record: Dict[str, object]) -> None:
        self._count += 1
        run_id = record.get("run_id")
        if not isinstance(run_id, str):
            view.superseded += 1  # junk line: compaction will archive it
            return
        if run_id in view.latest:
            view.superseded += 1
        view.latest[run_id] = record
        if record.get("status") == _OK:
            self._completed.add(run_id)
            view.ok.pop(run_id, None)
            view.ok[run_id] = record

    def _rebuild(self) -> None:
        self._completed.clear()
        self._count = 0
        self._full = True
        for view in self._all_views():
            view.reset()
            for record in view.tail.read_new():
                self._fold(view, record)

    def _refresh(self, full: bool) -> None:
        if any(view.tail.invalidated() for view in self._all_views()):
            self._rebuild()
            return
        if full and not self._full:
            # The checkpoint only persists completed IDs; the first call
            # needing latest/ok maps pays one full scan, then stays
            # incremental.
            self._rebuild()
            return
        if self._full:
            for view in self._all_views():
                for record in view.tail.read_new():
                    self._fold(view, record)
        else:
            for view in self._all_views():
                for record in view.tail.read_new():
                    self._count += 1
                    run_id = record.get("run_id")
                    if record.get("status") == _OK and isinstance(run_id, str):
                        self._completed.add(run_id)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def heal(self) -> bool:
        """Newline-terminate torn final lines, per shard (and legacy)."""
        healed = False
        for view in self._all_views():
            if not view.path.exists():
                continue
            with view.path.open("a+b") as handle:
                healed = _terminate_tail(handle) or healed
        return healed

    def append(self, record: Dict[str, object]) -> Dict[str, object]:
        """Append one record to its run's shard (adds a wall-clock
        ``recorded_at`` stamp).

        Returns the payload as written, so streaming callers can fan the
        exact durable record out to subscribers.
        """
        payload = dict(record)
        payload.setdefault("recorded_at", round(time.time(), 3))
        run_id = payload.get("run_id")
        index = shard_for(run_id if isinstance(run_id, str) else "", self.shards)
        self._ensure_layout()
        with self._views[index].path.open("a+b") as handle:
            _terminate_tail(handle)
            line = json.dumps(payload, sort_keys=True) + "\n"
            handle.write(line.encode("utf-8"))
            handle.flush()
        return payload

    # ------------------------------------------------------------------ #
    # Trace artifacts
    # ------------------------------------------------------------------ #

    @property
    def traces_dir(self) -> Path:
        """Directory holding per-run trace exports (``<store>.d/traces/``)."""
        return self.root / "traces"

    def trace_path(self, run_id: str) -> Path:
        return self.traces_dir / f"{run_id}.jsonl"

    def write_trace(self, run_id: str, jsonl: str) -> Path:
        """Persist one run's trace JSONL beside the ledger (parent-only)."""
        path = self.trace_path(run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        if jsonl and not jsonl.endswith("\n"):
            jsonl += "\n"
        path.write_text(jsonl, encoding="utf-8")
        return path

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        self._refresh(full=True)
        return self._count

    def records(self) -> Iterator[Dict[str, object]]:
        """Every parseable record, shard-major (the legacy ledger first).

        Records of one run share a shard, so they keep their order;
        records of different runs follow no order across shards.
        """
        for view in self._all_views():
            yield from iter_jsonl(view.path)

    def latest_by_run(self) -> Dict[str, Dict[str, object]]:
        """The last record per run ID (later attempts supersede earlier)."""
        self._refresh(full=True)
        latest = dict(self._legacy.latest)
        for view in self._views:
            latest.update(view.latest)  # a run lives in exactly one shard
        return latest

    def completed_ids(self) -> Set[str]:
        """Run IDs with at least one ok record — O(new records) when a
        checkpoint exists."""
        self._refresh(full=False)
        return set(self._completed)

    def ok_records(self) -> List[Dict[str, object]]:
        """The latest ok record per run, shard-major.

        Within a shard the order follows the position of each run's
        *latest* ok record, so a run re-executed after later runs of its
        shard moves behind them.  A legacy run re-executed since emits
        at its shard position (the newer record); legacy-only runs keep
        their legacy order ahead of every shard.
        """
        self._refresh(full=True)
        shard_ok: Set[str] = set()
        for view in self._views:
            shard_ok.update(view.ok)
        out = [
            record for run_id, record in self._legacy.ok.items()
            if run_id not in shard_ok
        ]
        for view in self._views:
            out.extend(view.ok.values())
        return out

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, int]:
        """Ledger shape: record/run/superseded counts and byte sizes."""
        self._refresh(full=True)
        runs: Set[str] = set()
        superseded = 0
        for view in self._all_views():
            runs.update(view.latest)
            superseded += view.superseded
        return {
            "shards": self.shards,
            "records": self._count,
            "runs": len(runs),
            "completed": len(self._completed),
            "superseded": superseded,
            "bytes": sum(v.tail.size() for v in self._views),
            "legacy_bytes": self._legacy.tail.size(),
        }

    def maybe_compact(self) -> Optional[Dict[str, int]]:
        """Compact when superseded records pass the tombstone policy, or
        when a killed compaction left its mark in the manifest."""
        if (self._read_manifest() or {}).get("compacting"):
            return self.compact()
        stats = self.stats()
        stale = stats["superseded"]
        if stale < _COMPACT_MIN_SUPERSEDED:
            return None
        if stale <= stats["records"] * _COMPACT_RATIO:
            return None
        return self.compact()

    def compact(self) -> Dict[str, int]:
        """Rewrite every shard to its minimal resume-equivalent form.

        Per run the rewrite keeps (at most) two records: the latest ok
        record and, if different, the final record — exactly the set
        that reproduces ``completed_ids``/``latest_by_run``/
        ``ok_records`` for that run.  Everything else (retried audit
        records, superseded attempts, torn fragments) moves to an
        ``archive/compact-NNNN.jsonl`` audit file.  The legacy
        single-file ledger is migrated into the shards and parked under
        ``archive/`` as part of the same pass.

        A kill at any step loses no line.  Each shard's dropped lines
        reach the archive before the shard is replaced, so a kill
        between the two archives them twice, never zero times.  The
        manifest carries a ``compacting`` mark from before the first
        rewrite until the legacy ledger is parked, because until then
        the migrated records read twice; ``maybe_compact()`` finishes a
        marked compaction, which converges on the uninterrupted result
        (the keep set prefers the shard copy of a migrated record).
        """
        self._ensure_layout()
        self.heal()
        manifest = self._read_manifest() or {}
        generation = int(manifest.get("compactions") or 0) + 1
        self._write_manifest(compactions=generation - 1, compacting=True)
        archive_path = self.archive_dir / f"compact-{generation:04d}.jsonl"
        legacy_lines = self._raw_lines(self.path)
        # Unparseable legacy lines have no shard; archive them outright.
        junk = [line for line, record in legacy_lines if record is None]
        _append_lines(archive_path, junk)
        kept_total = 0
        archived_total = len(junk)
        for index, view in enumerate(self._views):
            stream = [
                (line, record) for line, record in legacy_lines
                if record is not None
                and shard_for(str(record.get("run_id")), self.shards) == index
            ]
            stream.extend(self._raw_lines(view.path))
            keep = self._keep_set(stream)
            kept = [line for position, (line, _record) in enumerate(stream)
                    if position in keep]
            _append_lines(archive_path, [
                line for position, (line, _record) in enumerate(stream)
                if position not in keep])
            kept_total += len(kept)
            archived_total += len(stream) - len(kept)
            tmp = view.path.with_name(view.path.name + ".tmp")
            tmp.write_bytes(b"".join(line + b"\n" for line in kept))
            os.replace(tmp, view.path)
        if self.path.exists():
            self.archive_dir.mkdir(parents=True, exist_ok=True)
            os.replace(
                self.path,
                self.archive_dir / f"legacy-{generation:04d}-{self.path.name}")
        self._write_manifest(compactions=generation)
        self._rebuild()
        self.checkpoint()
        return {
            "kept": kept_total,
            "archived": archived_total,
            "migrated": len(legacy_lines),
            "generation": generation,
        }

    @staticmethod
    def _raw_lines(path: Path):
        """(raw line, parsed record|None) pairs, preserving exact bytes."""
        out = []
        if not path.exists():
            return out
        with path.open("rb") as handle:
            for line in handle:
                line = line.rstrip(b"\n")
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if not isinstance(record, dict):
                    record = None
                out.append((line, record))
        return out

    @staticmethod
    def _keep_set(stream) -> Set[int]:
        """Positions to keep: latest ok + final record per run."""
        latest_ok: Dict[str, int] = {}
        final: Dict[str, int] = {}
        for position, (_line, record) in enumerate(stream):
            if record is None:
                continue
            run_id = record.get("run_id")
            if not isinstance(run_id, str):
                continue
            final[run_id] = position
            if record.get("status") == _OK:
                latest_ok[run_id] = position
        keep = set(latest_ok.values())
        keep.update(final.values())
        return keep
