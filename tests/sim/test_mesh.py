"""The worker pipe mesh: a worker leaves as soon as its last round is out.

A pooled worker exits right after it has collected its last round.  Its
peers may still be reading: the frame it sent last can be larger than a
pipe holds, and its end-of-file can reach a peer that is waiting on a
third worker.  Neither may fail that peer.
"""

import multiprocessing
import time

import pytest

from repro.sim.mesh import MeshEndpoint, create_mesh

#: Far more than one pipe holds, so most of it is still pending when the
#: sender closes its endpoint.
BIG = 1 << 20


def _send_and_leave(matrix, index, size, delay_s):
    mesh = MeshEndpoint(index, matrix)
    time.sleep(delay_s)
    mesh.send(0, bytes(size))
    mesh.close()


def test_a_peer_that_leaves_after_its_last_frame_fails_nobody():
    ctx = multiprocessing.get_context("fork")
    matrix = create_mesh(3)
    early = ctx.Process(target=_send_and_leave, args=(matrix, 1, BIG, 0.0))
    late = ctx.Process(target=_send_and_leave, args=(matrix, 2, 10, 0.2))
    early.start()
    late.start()
    mesh = MeshEndpoint(0, matrix)
    try:
        # Worker 1's whole frame and its end-of-file arrive while worker
        # 0 waits on worker 2.
        assert mesh.recv(2) == bytes(10)
        assert mesh.recv(1) == bytes(BIG)
        with pytest.raises(RuntimeError, match="peer 1 closed its pipe"):
            mesh.recv(1)
    finally:
        mesh.close()
        early.join(30)
        late.join(30)
    assert early.exitcode == late.exitcode == 0
