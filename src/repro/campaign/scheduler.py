"""Long-lived campaign scheduler: the service shape of the runner.

:class:`CampaignScheduler` owns the persistent worker pool that
:func:`~repro.campaign.runner.run_campaign` drives for a single spec,
and generalises it to service use:

* **submit while running** — new specs join the queue without draining
  the pool; workers stay warm across campaigns;
* **streaming** — every durable record fans out, as written, to
  registered callbacks and an append-only events JSONL file that
  ``repro campaign watch`` tails;
* **incremental aggregation** — an optional
  :class:`~repro.campaign.aggregate.CampaignAggregator` folds each
  record into per-cell digests, so serving never re-reads the ledger;
* **checkpointing** — the store gets a resume-index checkpoint (and a
  tombstone-policy compaction probe) every ``checkpoint_every`` records.

Fault handling is the runner's, with two long-service bugs fixed here:
a worker whose idle hand-off fails is fully reaped (``join`` + parent
pipe end closed) instead of leaking a zombie, and every retried attempt
leaves a ``status="retried"`` audit record so the ledger explains where
campaign wall-clock went.  ``completed_ids``/``ok_records`` ignore
those records; only ``"ok"`` marks a run complete.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional

from repro.campaign.runner import (
    _POLL_INTERVAL_S,
    _SHUTDOWN_GRACE_S,
    CampaignSummary,
    _worker_loop,
)
from repro.campaign.spec import CampaignSpec, RunDescriptor, load_spec
from repro.campaign.store import _terminate_tail, make_record

#: Sleep between idle serve-loop sweeps (inbox scan + pool poll).
_SERVE_IDLE_POLL_S = 0.05

#: Spec file suffixes the serve inbox accepts.
_SPEC_SUFFIXES = {".xml", ".json", ".py"}


@dataclass
class CampaignJob:
    """One submitted spec's lifecycle inside the scheduler."""

    spec: CampaignSpec
    summary: CampaignSummary
    timeout_s: float
    retries: int
    trace: bool
    preflight: bool
    started_at: float
    remaining: int = 0
    done: bool = False
    spawned_at_submit: int = 0


@dataclass
class _JobTask:
    job: CampaignJob
    descriptor: RunDescriptor
    attempt: int
    last_error: Optional[str] = None


@dataclass
class _WorkerSlot:
    """One pooled worker process and the task it is executing (if any)."""

    process: object
    conn: object
    runs_done: int = 0
    task: Optional[_JobTask] = None
    started_at: float = 0.0
    deadline: float = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None


class CampaignScheduler:
    """Schedules submitted specs over one persistent process pool."""

    def __init__(
        self,
        store,
        workers: int = 1,
        progress: Optional[Callable[[str], None]] = None,
        trace: bool = False,
        preflight: bool = True,
        aggregator=None,
        stream_path=None,
        checkpoint_every: int = 64,
    ) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.trace = bool(trace)
        self.preflight = bool(preflight)
        self.aggregator = aggregator
        self.checkpoint_every = int(checkpoint_every)
        self._progress = progress or (lambda line: None)
        self._queue: Deque[_JobTask] = deque()
        self._slots: List[_WorkerSlot] = []
        self._jobs: List[CampaignJob] = []
        self._subscribers: List[Callable[[Dict[str, object]], None]] = []
        self._stream_path = Path(stream_path) if stream_path else None
        self._stream_handle = None
        self._records_since_checkpoint = 0
        self._closed = False
        #: Pool-wide observability (the per-job summaries snapshot these).
        self.processes_spawned = 0
        self.worker_runs: Dict[str, int] = {}
        #: Wall-clock spent on streaming/aggregation/checkpointing — the
        #: scheduler's overhead on top of plain runner execution.
        self.stream_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    @property
    def jobs(self) -> List[CampaignJob]:
        return list(self._jobs)

    def subscribe(
            self, callback: Callable[[Dict[str, object]], None]) -> None:
        """Register a callback invoked with every durable record."""
        self._subscribers.append(callback)

    def submit(
        self,
        spec: CampaignSpec,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        trace: Optional[bool] = None,
        preflight: Optional[bool] = None,
    ) -> CampaignJob:
        """Queue a spec's pending runs; returns immediately.

        Safe to call while the pool is mid-campaign: the new job's tasks
        queue behind the current ones and reuse the warm workers.
        """
        descriptors = spec.expand()
        completed = self.store.completed_ids()
        pending = [d for d in descriptors if d.run_id not in completed]
        job = CampaignJob(
            spec=spec,
            summary=CampaignSummary(
                campaign=spec.name,
                total=len(descriptors),
                skipped=len(descriptors) - len(pending),
            ),
            timeout_s=float(timeout_s if timeout_s is not None
                            else spec.timeout_s),
            retries=int(retries if retries is not None else spec.retries),
            trace=bool(self.trace if trace is None else trace),
            preflight=bool(self.preflight if preflight is None
                           else preflight),
            started_at=time.time(),
            spawned_at_submit=self.processes_spawned,
        )
        if job.summary.skipped:
            self._progress(
                f"resume: skipping {job.summary.skipped} completed run(s)")
        if job.preflight and pending:
            pending = self._preflight(job, pending)
        job.remaining = len(pending)
        for descriptor in pending:
            self._queue.append(_JobTask(job, descriptor, attempt=1))
        self._jobs.append(job)
        if job.remaining == 0:
            self._finalize(job)
        return job

    def _preflight(self, job: CampaignJob,
                   pending: List[RunDescriptor]) -> List[RunDescriptor]:
        """Lint pending cells; record and drop the rejects before any
        worker process exists."""
        from repro.campaign.preflight import partition_pending, rejection_error

        summary = job.summary
        runnable, rejected = partition_pending(pending)
        for descriptor, report in rejected:
            error = rejection_error(report)
            summary.executed += 1
            summary.failed += 1
            summary.lint_rejected += 1
            summary.failed_run_ids.append(descriptor.run_id)
            self._record(job, make_record(
                descriptor.to_dict(), "failed", None,
                attempts=0, duration_s=0.0, error=error,
                campaign=job.spec.name,
            ))
            self._progress(
                f"run {descriptor.run_id} [{descriptor.label()}] "
                f"REJECTED by lint pre-flight: {report.errors[0].render()}")
        return runnable

    # ------------------------------------------------------------------ #
    # Pool loop
    # ------------------------------------------------------------------ #

    @property
    def idle(self) -> bool:
        return not self._queue and not any(s.busy for s in self._slots)

    def step(self) -> bool:
        """One scheduling sweep; False when nothing is queued or running."""
        self._assign()
        if self.idle:
            return False
        time.sleep(_POLL_INTERVAL_S)
        for slot in list(self._slots):
            outcome = self._poll(slot)
            if outcome is None:
                continue
            dead = not slot.process.is_alive()
            if dead:
                self._slots.remove(slot)  # replaced lazily by _assign
            retry = self._settle(slot, outcome)
            if dead:
                self._reap(slot)
            if retry is not None:
                self._queue.appendleft(retry)  # retries run first
        return True

    def run_until_idle(self) -> List[CampaignJob]:
        """Drain the queue and every in-flight run; pool stays warm."""
        while True:
            self._assign()
            if self.idle:
                break
            self.step()
        return self.jobs

    def serve(
        self,
        inbox=None,
        idle_exit_s: Optional[float] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> List[CampaignJob]:
        """Run as a service: poll the pool and (optionally) an inbox.

        ``inbox`` is a spool directory: spec files (.xml/.json/.py)
        dropped there are loaded, submitted, and moved to ``done/``
        (``failed/`` when they do not load).  With ``idle_exit_s`` the
        loop exits after that many seconds of a drained pool and empty
        inbox; otherwise it serves until ``stop()`` returns True.
        Shuts the pool down on exit.
        """
        inbox_path = Path(inbox) if inbox else None
        idle_since: Optional[float] = None
        try:
            while True:
                if stop is not None and stop():
                    break
                if inbox_path is not None and self._scan_inbox(inbox_path):
                    idle_since = None
                self._assign()
                if not self.idle:
                    idle_since = None
                    self.step()
                    continue
                now = time.time()
                if idle_exit_s is not None:
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= idle_exit_s:
                        break
                time.sleep(_SERVE_IDLE_POLL_S)
        finally:
            self.shutdown()
        return self.jobs

    def _scan_inbox(self, inbox: Path) -> int:
        """Ingest queued spec files; returns how many were submitted."""
        if not inbox.is_dir():
            return 0
        submitted = 0
        for path in sorted(inbox.iterdir()):
            if not path.is_file() or path.suffix.lower() not in _SPEC_SUFFIXES:
                continue
            try:
                spec = load_spec(path)
            except Exception as exc:  # noqa: BLE001 - spool must survive
                self._progress(f"inbox: rejected {path.name}: {exc}")
                self._move_into(path, inbox / "failed")
                continue
            self._move_into(path, inbox / "done")
            self.submit(spec)
            self._progress(f"inbox: submitted {path.name} "
                           f"(campaign {spec.name})")
            submitted += 1
        return submitted

    @staticmethod
    def _move_into(path: Path, dest_dir: Path) -> None:
        import os

        dest_dir.mkdir(parents=True, exist_ok=True)
        target = dest_dir / path.name
        serial = 1
        while target.exists():
            target = dest_dir / f"{path.stem}.{serial}{path.suffix}"
            serial += 1
        os.replace(path, target)

    # ------------------------------------------------------------------ #
    # Worker pool (runner fault semantics + zombie fixes)
    # ------------------------------------------------------------------ #

    def _assign(self) -> None:
        """Hand queued tasks to idle workers, spawning up to the cap."""
        while self._queue:
            slot = next((s for s in self._slots if not s.busy), None)
            if slot is None:
                if len(self._slots) >= self.workers:
                    return
                slot = self._spawn()
                self._slots.append(slot)
            task = self._queue.popleft()
            try:
                slot.conn.send((task.descriptor.identity(), task.attempt,
                                task.job.trace))
            except (BrokenPipeError, OSError):
                # The idle worker died between runs: reap it fully (join
                # the corpse, close our pipe end — leaking either is the
                # zombie bug) and retry the hand-off on a fresh worker.
                self._slots.remove(slot)
                self._reap(slot)
                self._queue.appendleft(task)
                continue
            now = time.time()
            slot.task = task
            slot.started_at = now
            slot.deadline = now + task.job.timeout_s
            self._progress(
                f"run {task.descriptor.run_id} [{task.descriptor.label()}] "
                f"attempt {task.attempt} started (pid {slot.process.pid})")

    def _spawn(self) -> _WorkerSlot:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        inherited = [parent_conn] + [slot.conn for slot in self._slots]
        process = multiprocessing.Process(
            target=_worker_loop, args=(child_conn, inherited), daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its own end
        self.processes_spawned += 1
        return _WorkerSlot(process=process, conn=parent_conn)

    def _reap(self, slot: _WorkerSlot) -> None:
        """Fully retire a dead/dying worker: no zombie, no leaked fd."""
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join()
        try:
            slot.conn.close()
        except OSError:
            pass

    def _poll(self, slot: _WorkerSlot) -> Optional[Dict[str, object]]:
        """None while running; otherwise this attempt's outcome dict."""
        if not slot.busy:
            return None
        # Results are honoured before liveness: a worker that reported
        # and then exited still completed its run.
        try:
            if slot.conn.poll():
                return slot.conn.recv()
        except (EOFError, OSError):
            pass
        if not slot.process.is_alive():
            slot.process.join()
            return {"status": "error",
                    "error": f"worker crashed "
                             f"(exit code {slot.process.exitcode})"}
        if time.time() >= slot.deadline:
            slot.process.terminate()
            slot.process.join()
            return {"status": "error",
                    "error": f"timeout after "
                             f"{slot.task.job.timeout_s:.1f}s"}
        return None

    def _settle(self, slot: _WorkerSlot,
                outcome: Dict[str, object]) -> Optional[_JobTask]:
        """Record a finished attempt; return the retry task if any."""
        task = slot.task
        slot.task = None
        job = task.job
        summary = job.summary
        duration = time.time() - slot.started_at
        descriptor = task.descriptor
        worker_key = str(slot.process.pid)
        if outcome.get("status") == "ok":
            slot.runs_done = int(
                outcome.get("worker_runs") or slot.runs_done + 1)
            summary.worker_runs[worker_key] = slot.runs_done
            self.worker_runs[worker_key] = slot.runs_done
            summary.executed += 1
            summary.succeeded += 1
            summary.retries_used += task.attempt - 1
            trace_info = None
            trace_jsonl = outcome.get("trace_jsonl")
            if isinstance(trace_jsonl, str):
                # Only the parent touches the store directory: workers
                # ship trace JSONL back over the pipe like any result.
                path = self.store.write_trace(descriptor.run_id, trace_jsonl)
                trace_info = {"path": str(path),
                              "events": int(outcome.get("trace_events") or 0)}
            self._record(job, make_record(
                descriptor.to_dict(), "ok", outcome.get("metrics"),
                attempts=task.attempt, duration_s=duration,
                campaign=job.spec.name,
                worker={"pid": slot.process.pid,
                        "runs_executed": slot.runs_done},
                trace=trace_info,
            ))
            self._progress(
                f"run {descriptor.run_id} ok "
                f"(attempt {task.attempt}, {duration:.2f}s)")
            self._task_done(job)
            return None
        if "worker_runs" in outcome:
            slot.runs_done = int(outcome["worker_runs"])
            summary.worker_runs[worker_key] = slot.runs_done
            self.worker_runs[worker_key] = slot.runs_done
        error = str(outcome.get("error") or "unknown failure").strip()
        if task.attempt <= job.retries:
            # Audit where the wall-clock went: the attempt's duration and
            # error would otherwise vanish with the retry.  Pure audit —
            # never marks the run complete, and resume ignores it.
            self._record(job, make_record(
                descriptor.to_dict(), "retried", None,
                attempts=task.attempt, duration_s=duration, error=error,
                campaign=job.spec.name,
                worker={"pid": slot.process.pid,
                        "runs_executed": slot.runs_done},
            ))
            self._progress(
                f"run {descriptor.run_id} attempt {task.attempt} failed "
                f"({error.splitlines()[-1]}); retrying")
            return _JobTask(job, descriptor, task.attempt + 1,
                            last_error=error)
        summary.executed += 1
        summary.failed += 1
        summary.retries_used += task.attempt - 1
        summary.failed_run_ids.append(descriptor.run_id)
        self._record(job, make_record(
            descriptor.to_dict(), "failed", None,
            attempts=task.attempt, duration_s=duration, error=error,
            campaign=job.spec.name,
            worker={"pid": slot.process.pid,
                    "runs_executed": slot.runs_done},
        ))
        self._progress(
            f"run {descriptor.run_id} FAILED after {task.attempt} "
            f"attempt(s): {error.splitlines()[-1]}")
        self._task_done(job)
        return None

    def _task_done(self, job: CampaignJob) -> None:
        job.remaining -= 1
        if job.remaining <= 0 and not job.done:
            self._finalize(job)

    def _finalize(self, job: CampaignJob) -> None:
        job.done = True
        job.summary.duration_s = time.time() - job.started_at
        job.summary.processes_spawned = (
            self.processes_spawned - job.spawned_at_submit)
        self._progress(job.summary.render())

    # ------------------------------------------------------------------ #
    # Streaming + checkpointing
    # ------------------------------------------------------------------ #

    def _record(self, job: CampaignJob,
                record: Dict[str, object]) -> Dict[str, object]:
        """Durably append one record, then fan it out as written."""
        payload = self.store.append(record)
        streamed_at = time.perf_counter()
        for callback in self._subscribers:
            try:
                callback(payload)
            except Exception as exc:  # noqa: BLE001 - never kill the pool
                self._progress(f"stream subscriber error: {exc}")
        if self._stream_path is not None:
            if self._stream_handle is None:
                self._stream_path.parent.mkdir(parents=True, exist_ok=True)
                self._stream_handle = self._stream_path.open("a+b")
                _terminate_tail(self._stream_handle)
            self._stream_handle.write(
                (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
            self._stream_handle.flush()
        if self.aggregator is not None:
            self.aggregator.fold(payload)
        self._records_since_checkpoint += 1
        if (self.checkpoint_every > 0
                and self._records_since_checkpoint >= self.checkpoint_every):
            self._checkpoint_store()
        self.stream_seconds += time.perf_counter() - streamed_at
        return payload

    def _checkpoint_store(self) -> None:
        self._records_since_checkpoint = 0
        self.store.checkpoint()
        compacted = self.store.maybe_compact()
        if compacted is not None:
            self._progress(
                f"store compacted: kept {compacted['kept']} record(s), "
                f"archived {compacted['archived']} "
                f"(generation {compacted['generation']})")

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """Stop every worker: graceful for idle ones, terminate the rest.

        Idempotent.  Joins every child and closes every parent pipe end
        so a long-lived service neither accumulates zombies nor leaks
        fds across campaign generations.
        """
        if self._closed:
            return
        self._closed = True
        slots, self._slots = self._slots, []
        for slot in slots:
            if not slot.busy and slot.process.is_alive():
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.time() + _SHUTDOWN_GRACE_S
        for slot in slots:
            if slot.busy and slot.process.is_alive():
                # Interrupted mid-run: don't leak the worker.
                slot.process.terminate()
            slot.process.join(timeout=max(0.0, deadline - time.time()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join()
            try:
                slot.conn.close()
            except OSError:
                pass
            if slot.process.pid is not None and slot.runs_done:
                self.worker_runs.setdefault(
                    str(slot.process.pid), slot.runs_done)
        if self._stream_handle is not None:
            self._stream_handle.close()
            self._stream_handle = None
        self.store.checkpoint()
