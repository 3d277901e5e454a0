"""Forked workers for a pooled sharded run: one fork and one reply each.

:func:`run_pooled` builds the pipe mesh (:mod:`repro.sim.mesh`) and forks
one worker per entry of the region assignment, so every worker inherits
a direct pipe to every peer.  A worker also inherits the run's config,
the coordinator's plan and the assignment instead of receiving them: it
builds its own regions, runs the barrier loop with batches travelling
peer-to-peer over the mesh (:func:`~repro.sim.shard.run_regions`), and
sends one reply holding its schedule and exchange counts, its region
results and its CPU seconds.

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
from typing import Any, Dict, List

from repro.sim.mesh import MeshEndpoint, MeshMatrix, close_mesh, create_mesh
from repro.sim.shard import run_regions

#: How long the coordinator waits for a worker to exit before
#: terminating it.
_SHUTDOWN_GRACE_S = 2.0


def _worker(conn, index: int, matrix: MeshMatrix, config: Dict[str, Any],
            plan: Any, assignment: List[List[int]]) -> None:
    """Run worker ``index``'s regions and send its one reply."""
    started = time.process_time()
    try:
        mesh = MeshEndpoint(index, matrix)
        owner = {rid: worker for worker, rids in enumerate(assignment)
                 for rid in rids}
        reply = run_regions(config, plan, assignment[index], mesh, owner)
        mesh.close()
        reply["cpu_s"] = time.process_time() - started
    except Exception:
        reply = {"error": traceback.format_exc(limit=8)}
    conn.send(reply)
    conn.close()


def run_pooled(config: Dict[str, Any], plan: Any,
               assignment: List[List[int]]) -> List[Dict[str, Any]]:
    """Run worker ``i`` on the regions ``assignment[i]``; return each
    worker's reply, in worker order.

    Raises :class:`RuntimeError` with the traceback of every worker that
    failed and the exit code of every worker that died.  No worker
    outlives the call.
    """
    ctx = multiprocessing.get_context("fork")
    matrix = create_mesh(len(assignment))
    workers = []
    replies: List[Dict[str, Any]] = []
    failures: List[str] = []
    try:
        try:
            for index in range(len(assignment)):
                reader, writer = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker,
                    args=(writer, index, matrix, config, plan, assignment),
                    daemon=True,
                )
                process.start()
                writer.close()
                workers.append((process, reader))
        finally:
            # Each worker keeps the fds it owns; once the parent's copies
            # are gone, a worker that exits reads as end-of-file to its
            # peers instead of leaving them waiting.
            close_mesh(matrix)
        for index, (process, reader) in enumerate(workers):
            try:
                reply = reader.recv()
            except EOFError:
                process.join(_SHUTDOWN_GRACE_S)
                failures.append(f"shard worker {index} (pid {process.pid}) "
                                f"died with exit code {process.exitcode}")
                continue
            if "error" in reply:
                failures.append(f"shard worker {index} failed:\n"
                                f"{reply['error']}")
            replies.append(reply)
    finally:
        for process, reader in workers:
            reader.close()
            process.join(_SHUTDOWN_GRACE_S)
            if process.is_alive():
                process.terminate()
                process.join()
    if failures:
        raise RuntimeError("\n".join(failures))
    return replies
