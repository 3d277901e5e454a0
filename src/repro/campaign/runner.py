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
``run_campaign`` is its one-shot use, and this module keeps the
process-level primitive (``_worker_loop``) the scheduler's workers run.
"""

from __future__ import annotations

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


def _worker_loop(conn, inherited) -> None:
    """Persistent worker: execute run descriptors until told to shut down.

    Each task is a ``(descriptor, attempt, trace_enabled)`` tuple that
    runs one campaign cell to completion; ``None`` ends the loop.
    ``inherited`` holds the scheduler's pipe ends the fork copied into
    this worker (its own and those of older workers).  Closing them lets
    ``recv`` see EOF as soon as the scheduler dies, so a worker outlives
    a killed scheduler by at most its current run.
    """
    from repro.campaign.executors import execute_descriptor

    for end in inherited:
        end.close()

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
    """Run a spec's pending runs over a fresh persistent pool.

    Submits the spec to a :class:`~repro.campaign.scheduler.
    CampaignScheduler` as a single job, drains it, and shuts the pool
    down.  Service users (multiple specs, streaming, aggregation) drive
    the scheduler directly.
    """
    from repro.campaign.scheduler import CampaignScheduler

    started = time.time()
    scheduler = CampaignScheduler(store, workers=workers, progress=progress)
    try:
        job = scheduler.submit(spec, timeout_s=timeout_s, retries=retries,
                               trace=trace, preflight=preflight)
        scheduler.run_until_idle()
    finally:
        scheduler.shutdown()
    summary = job.summary
    summary.processes_spawned = scheduler.processes_spawned
    summary.worker_runs = dict(scheduler.worker_runs)
    summary.duration_s = time.time() - started
    return summary
