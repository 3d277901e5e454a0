"""A fixed pool of forked worker processes executing simulation shards.

:class:`ShardWorkerPool` forks one worker per shard after building the
pipe mesh (:mod:`repro.sim.mesh`), so every worker inherits a direct pipe
to every peer.  Each worker answers three tasks per run with one reply
each: ``shard_init`` builds its regions, ``shard_run`` executes the whole
barrier loop SPMD-style with batches travelling peer-to-peer over the
mesh, and ``shard_collect`` returns the region results (see
:class:`~repro.sim.shard.ShardWorkerSession`).

The pool always forks: the mesh relies on file-descriptor inheritance.
Where ``fork`` is unavailable, and inside daemonic campaign workers that
cannot have children,
:func:`~repro.experiments.fabric.run_fabric_experiment` runs the regions
inline instead, with identical results.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import List, Optional

from repro.sim.mesh import MeshMatrix, close_mesh, create_mesh
from repro.sim.shard import ShardWorkerSession

#: How long shutdown waits for a worker to exit before terminating it.
_SHUTDOWN_GRACE_S = 2.0


def _worker_loop(conn, index: int, mesh_matrix: Optional[MeshMatrix]) -> None:
    """Answer ``shard_*`` tasks until the pool sends ``None``."""
    session = ShardWorkerSession(index, mesh_matrix)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        try:
            reply = session.handle(task)
        except BaseException:
            reply = {"status": "error", "error": traceback.format_exc(limit=8)}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class ShardWorkerPool:
    """A fixed set of forked workers driven in lock-step.

    Every call sends one task to each worker and waits for every reply;
    worker ``i`` owns the regions ``assignment[i]`` given to :meth:`init`.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers!r}")
        ctx = multiprocessing.get_context("fork")
        self._slots = []
        # The mesh must exist before any worker forks so every child
        # inherits the full fd matrix; each worker closes the fds it does
        # not own, and the parent closes its copies below.
        mesh_matrix = create_mesh(workers)
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_loop,
                args=(child_conn, index, mesh_matrix),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._slots.append((process, parent_conn))
        close_mesh(mesh_matrix)

    def _call_all(self, tasks: List[dict]) -> List[dict]:
        for (_process, conn), task in zip(self._slots, tasks):
            conn.send(task)
        replies = []
        for process, conn in self._slots:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise RuntimeError(
                    f"shard worker pid {process.pid} died mid-run "
                    f"(exit code {process.exitcode})"
                )
            if reply.get("status") != "ok":
                raise RuntimeError(
                    "shard worker failed:\n" + str(reply.get("error"))
                )
            replies.append(reply)
        return replies

    def init(self, config: dict, assignment: List[List[int]]) -> List[dict]:
        """Build each worker's regions; ``assignment[i]`` lists worker
        ``i``'s region ids."""
        if len(assignment) != len(self._slots):
            raise ValueError(
                f"assignment covers {len(assignment)} workers, "
                f"pool has {len(self._slots)}"
            )
        return self._call_all([
            {"op": "shard_init", "config": config, "rids": rids,
             "assignment": assignment}
            for rids in assignment
        ])

    def run_barrier(
        self,
        lookahead: float,
        horizon: float,
        promise: Optional[float] = None,
    ) -> List[dict]:
        """Run the whole SPMD barrier loop inside the workers.

        One task and one reply per worker for the entire simulation;
        batches travel over the pipe mesh and every worker derives the
        identical epoch schedule from exchanged control words.  Returns
        per-worker ``{"epochs", "epochs_skipped", "epochs_widened",
        "exchange_bytes", "exchange_blobs"}``."""
        return self._call_all([
            {"op": "shard_run", "lookahead": lookahead, "horizon": horizon,
             "promise": promise}
            for _ in self._slots
        ])

    def collect(self) -> List[dict]:
        """Fetch per-region results and per-worker CPU accounting."""
        return self._call_all([
            {"op": "shard_collect"} for _ in self._slots
        ])

    def shutdown(self) -> None:
        for _process, conn in self._slots:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.time() + _SHUTDOWN_GRACE_S
        for process, conn in self._slots:
            process.join(timeout=max(0.0, deadline - time.time()))
            if process.is_alive():
                process.terminate()
                process.join()
            conn.close()
        self._slots = []
