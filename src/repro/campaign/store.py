"""Append-only JSONL result store keyed by deterministic run IDs.

One record per line; the file is the campaign's durable state.  Only the
campaign parent process writes (workers ship results back over pipes),
so appends need no cross-process locking; readers tolerate a torn final
line from a run that was killed mid-write.

``completed_ids`` is what makes campaigns resumable: re-running a spec
skips every run whose ID already has an ``"ok"`` record.  Failed records
stay in the file as an audit trail but do not mark the run complete, so
a resume retries them.  ``"retried"`` records are pure audit (where the
wall-clock of a flaky run went) and never mark a run complete either.

Reads are incremental: the store keeps an in-memory index (completed
IDs, latest record per run, latest-ok per run) fed by a byte-offset
tail, so repeated ``completed_ids()``/``latest_by_run()`` calls cost
O(new records) instead of re-parsing the whole ledger.  A file that
shrinks under the index (rewritten by an external tool) invalidates the
tail and triggers a full rebuild.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

#: Schema tag stamped on every record (also emitted by the CLI ``--json``
#: modes, so single-shot runs and campaign runs share one format).
RECORD_SCHEMA = "attain.campaign.run.v1"

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


class _JsonlTail:
    """Incremental reader over one append-only JSONL file.

    Tracks a byte offset and parses only the complete (newline
    terminated) lines appended since the previous call, so derived
    indexes cost O(new records) to refresh.  A torn final line is left
    unconsumed — once ``_terminate_tail`` heals it the fragment reads as
    one unparseable line and is skipped.

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
                if not line or not line.endswith(b"\n"):
                    break  # torn tail: stays unconsumed until healed
                self.offset += len(line)
                self.fingerprint = line
                text = line.strip()
                if not text:
                    continue
                try:
                    record = json.loads(text)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record


class ResultStore:
    """The campaign's JSONL ledger."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._tail = _JsonlTail(self.path)
        self._count = 0
        self._completed: Set[str] = set()
        self._latest: Dict[str, Dict[str, object]] = {}
        # Insertion order tracks the *latest* ok occurrence per run:
        # ``_fold`` re-inserts on every ok record (move-to-end), which is
        # what makes ``ok_records`` honour its file-order contract.
        self._ok: Dict[str, Dict[str, object]] = {}

    def __len__(self) -> int:
        self._refresh()
        return self._count

    # ------------------------------------------------------------------ #
    # Incremental index
    # ------------------------------------------------------------------ #

    def _refresh(self) -> None:
        """Fold records appended since the last read into the index."""
        if self._tail.invalidated():
            self._tail.reset()
            self._count = 0
            self._completed.clear()
            self._latest.clear()
            self._ok.clear()
        for record in self._tail.read_new():
            self._fold(record)

    def _fold(self, record: Dict[str, object]) -> None:
        self._count += 1
        run_id = record.get("run_id")
        if not isinstance(run_id, str):
            return
        self._latest[run_id] = record
        if record.get("status") == _OK:
            self._completed.add(run_id)
            # Re-insert so dict order follows the latest ok occurrence's
            # position in the file, not the first one's.
            self._ok.pop(run_id, None)
            self._ok[run_id] = record

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _terminate_tail(handle) -> bool:
        """Newline-terminate a torn final line; True if healing happened.

        A parent killed mid-append leaves a record fragment with no
        trailing newline.  Starting the next record on a line of its own
        keeps the torn record the only casualty: the fragment never
        parses as JSON (``records`` skips it), so a resume neither
        mis-skips the interrupted run nor double-counts a healthy one.
        """
        handle.seek(0, 2)
        if handle.tell() == 0:
            return False
        handle.seek(-1, 2)
        if handle.read(1) == b"\n":
            return False
        handle.write(b"\n")
        return True

    def heal(self) -> bool:
        """Explicitly repair a torn final line; True if a repair happened."""
        if not self.path.exists():
            return False
        with self.path.open("a+b") as handle:
            return self._terminate_tail(handle)

    def append(self, record: Dict[str, object]) -> Dict[str, object]:
        """Append one record (adds a wall-clock ``recorded_at`` stamp).

        Returns the payload as written, so streaming callers can fan the
        exact durable record out to subscribers.
        """
        payload = dict(record)
        payload.setdefault("recorded_at", round(time.time(), 3))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as handle:
            self._terminate_tail(handle)
            line = json.dumps(payload, sort_keys=True) + "\n"
            handle.write(line.encode("utf-8"))
            handle.flush()
        return payload

    # ------------------------------------------------------------------ #
    # Trace artifacts
    # ------------------------------------------------------------------ #

    @property
    def traces_dir(self) -> Path:
        """Directory holding per-run trace exports (``<store>.traces/``)."""
        return self.path.with_name(self.path.name + ".traces")

    def trace_path(self, run_id: str) -> Path:
        return self.traces_dir / f"{run_id}.jsonl"

    def write_trace(self, run_id: str, jsonl: str) -> Path:
        """Persist one run's trace JSONL next to the ledger (parent-only)."""
        path = self.trace_path(run_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        if jsonl and not jsonl.endswith("\n"):
            jsonl += "\n"
        path.write_text(jsonl, encoding="utf-8")
        return path

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def records(self) -> Iterator[Dict[str, object]]:
        """Yield every parseable record; skip torn/corrupt lines."""
        yield from iter_jsonl(self.path)

    def latest_by_run(self) -> Dict[str, Dict[str, object]]:
        """The last record per run ID (later attempts supersede earlier)."""
        self._refresh()
        return dict(self._latest)

    def completed_ids(self) -> Set[str]:
        """Run IDs with at least one successful record."""
        self._refresh()
        return set(self._completed)

    def ok_records(self) -> List[Dict[str, object]]:
        """The latest successful record per run ID, in file order.

        "File order" follows the position of the *latest* ok record per
        run: a run re-executed after later runs moves to the end, as the
        ledger says it should.
        """
        self._refresh()
        return list(self._ok.values())
