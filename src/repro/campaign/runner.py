"""The campaign runner: a persistent pool of reusable worker processes.

Workers are long-lived: each executes run descriptors one after another
off a duplex pipe.  Every sequence a run draws from lives on its own
engine (:class:`~repro.sim.engine.SimContext`), so a run behaves
bit-identically to one in a fresh process with nothing reset between
cells.  Amortizing the interpreter start + import cost over many
runs is where campaign wall-clock goes on wide matrices — the summary's
``processes_spawned`` should come out well below the number of runs.

Fault semantics are unchanged from the process-per-run model:

* a run exceeding the wall-clock timeout gets its worker terminated (the
  only way to preempt a hung simulation) and a fresh worker is spawned
  on demand;
* a worker that dies without reporting (hard crash, kill) fails only the
  run it was executing, which is retried up to ``retries`` extra
  attempts — on a replacement worker;
* the parent is the only writer to the result store.

The pool loop itself lives in :mod:`repro.campaign.scheduler`;
``CampaignRunner`` is the one-shot facade over it, and this module keeps
the process-level primitive (``_worker_loop``) the scheduler's workers
run.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore

#: How often the scheduler polls its active workers (seconds).
_POLL_INTERVAL_S = 0.01

#: How long the parent waits for a worker to exit after a shutdown
#: request before terminating it.
_SHUTDOWN_GRACE_S = 2.0


def _worker_loop(conn) -> None:
    """Persistent worker: execute run descriptors until told to shut down.

    Each task is a ``(descriptor, attempt, trace_enabled)`` tuple that
    runs one campaign cell to completion; ``None`` ends the loop.
    """
    from repro.campaign.executors import execute_descriptor

    runs_executed = 0
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        descriptor, attempt, trace_enabled = task
        tracer = None
        if trace_enabled:
            from repro.obs import TraceCollector

            tracer = TraceCollector()
        try:
            metrics = execute_descriptor(descriptor, attempt=attempt,
                                         tracer=tracer)
            runs_executed += 1
            outcome = {"status": "ok", "metrics": metrics,
                       "worker_runs": runs_executed}
            if tracer is not None:
                outcome["trace_jsonl"] = tracer.to_jsonl()
                outcome["trace_events"] = tracer.events_total
        except BaseException:
            runs_executed += 1
            outcome = {"status": "error",
                       "error": traceback.format_exc(limit=8),
                       "worker_runs": runs_executed}
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):
            break
    conn.close()


@dataclass
class CampaignSummary:
    """What one ``run_campaign`` invocation did."""

    campaign: str
    total: int
    skipped: int = 0
    executed: int = 0
    succeeded: int = 0
    failed: int = 0
    retries_used: int = 0
    duration_s: float = 0.0
    failed_run_ids: List[str] = field(default_factory=list)
    processes_spawned: int = 0
    worker_runs: Dict[str, int] = field(default_factory=dict)
    lint_rejected: int = 0

    @property
    def complete(self) -> bool:
        return self.failed == 0

    def render(self) -> str:
        rejected = (
            f", {self.lint_rejected} rejected by lint pre-flight"
            if self.lint_rejected else ""
        )
        return (
            f"campaign {self.campaign}: {self.total} runs — "
            f"{self.skipped} already complete, {self.executed} executed "
            f"({self.succeeded} ok, {self.failed} failed, "
            f"{self.retries_used} retries{rejected}) in {self.duration_s:.1f}s "
            f"across {self.processes_spawned} worker process(es)"
        )


class CampaignRunner:
    """Schedules a spec's pending runs over a persistent process pool.

    One-shot facade over :class:`~repro.campaign.scheduler.
    CampaignScheduler`: ``run()`` submits the spec as a single job,
    drains it, and shuts the pool down.  Service users (multiple specs,
    streaming, aggregation) drive the scheduler directly.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        mp_context: Optional[str] = None,
        trace: bool = False,
        preflight: bool = True,
    ) -> None:
        self.spec = spec
        self.store = store
        self.workers = max(1, int(workers))
        self.timeout_s = float(timeout_s if timeout_s is not None
                               else spec.timeout_s)
        self.retries = int(retries if retries is not None else spec.retries)
        self.trace = bool(trace)
        self.preflight = bool(preflight)
        self._progress = progress or (lambda line: None)
        self._ctx = multiprocessing.get_context(mp_context)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def run(self) -> CampaignSummary:
        from repro.campaign.scheduler import CampaignScheduler

        started = time.time()
        scheduler = CampaignScheduler(
            self.store, workers=self.workers, mp_context=self._ctx,
            progress=self._progress,
        )
        try:
            job = scheduler.submit(
                self.spec, timeout_s=self.timeout_s, retries=self.retries,
                trace=self.trace, preflight=self.preflight)
            scheduler.run_until_idle()
        finally:
            scheduler.shutdown()
        summary = job.summary
        summary.processes_spawned = scheduler.processes_spawned
        summary.worker_runs = dict(scheduler.worker_runs)
        summary.duration_s = time.time() - started
        return summary


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace: bool = False,
    preflight: bool = True,
) -> CampaignSummary:
    """Convenience wrapper: build a :class:`CampaignRunner` and run it."""
    return CampaignRunner(
        spec, store, workers=workers, timeout_s=timeout_s,
        retries=retries, progress=progress, trace=trace,
        preflight=preflight,
    ).run()
