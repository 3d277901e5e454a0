"""A full mesh of non-blocking OS pipes between shard workers.

The barrier loop (:func:`repro.sim.shard.run_barrier_loop`) exchanges
one frame per directed worker pair per epoch.  ``multiprocessing.Queue``
pays a feeder thread, a lock and a pickle per transfer; a raw ``os.pipe``
moves the codec's single ``bytes`` blob with one syscall each side.

Deadlock safety: every write end is non-blocking and writes queue in a
per-peer pending buffer; :meth:`MeshEndpoint.recv` services *all*
readable pipes and flushes pending writes while it waits, so two workers
bursting oversized frames at each other always make progress.  The
barrier protocol is lock-step (a worker sends its round-``r`` frames
before collecting round ``r``, and cannot start round ``r+1`` until
round ``r`` is fully collected), so at most one frame per sender can
arrive ahead of the round being collected and per-peer buffers stay
bounded.

A worker leaves as soon as it has collected its last round.
:meth:`MeshEndpoint.close` first writes out what its peers are still
reading, and a peer's end-of-file is an error only while a frame from
that peer is still awaited.

The mesh relies on file-descriptor inheritance, which is why
:func:`~repro.sim.pool.run_pooled` always forks its workers.
"""

from __future__ import annotations

import os
import select
from collections import deque
from typing import Dict, List, Optional, Tuple

_READ_CHUNK = 1 << 16
_STALL_TIMEOUT_S = 600.0

#: matrix[i][j] = (read_fd, write_fd) of the i -> j pipe (None when i == j).
MeshMatrix = List[List[Optional[Tuple[int, int]]]]


def create_mesh(workers: int) -> MeshMatrix:
    """Build the pipe matrix in the parent, before any worker forks."""
    matrix: MeshMatrix = []
    for i in range(workers):
        row: List[Optional[Tuple[int, int]]] = []
        for j in range(workers):
            row.append(None if i == j else os.pipe())
        matrix.append(row)
    return matrix


def close_mesh(matrix: MeshMatrix) -> None:
    """Close every fd of the matrix (parent-side, after workers forked)."""
    for row in matrix:
        for pair in row:
            if pair is not None:
                for fd in pair:
                    try:
                        os.close(fd)
                    except OSError:
                        pass


class MeshEndpoint:
    """Worker ``index``'s view of the mesh: keeps its own read/write fds,
    closes every inherited fd it does not own."""

    def __init__(self, index: int, matrix: MeshMatrix) -> None:
        self.index = index
        self._wfd: Dict[int, int] = {}
        self._rfd: Dict[int, int] = {}
        for i, row in enumerate(matrix):
            for j, pair in enumerate(row):
                if pair is None:
                    continue
                read_fd, write_fd = pair
                if i == index:
                    self._wfd[j] = write_fd
                    os.close(read_fd)
                elif j == index:
                    self._rfd[i] = read_fd
                    os.close(write_fd)
                else:
                    os.close(read_fd)
                    os.close(write_fd)
        for fd in self._wfd.values():
            os.set_blocking(fd, False)
        for fd in self._rfd.values():
            os.set_blocking(fd, False)
        self._peer_by_rfd = {fd: peer for peer, fd in self._rfd.items()}
        self._rbuf: Dict[int, bytearray] = {p: bytearray() for p in self._rfd}
        self._frames: Dict[int, deque] = {p: deque() for p in self._rfd}
        self._pending: Dict[int, deque] = {p: deque() for p in self._wfd}

    @property
    def peers(self) -> List[int]:
        return sorted(self._wfd)

    # -- sending ------------------------------------------------------- #

    def send(self, peer: int, blob: bytes) -> None:
        """Queue one length-prefixed frame for ``peer`` and try to flush."""
        pending = self._pending[peer]
        pending.append(memoryview(len(blob).to_bytes(4, "little") + blob))
        self._flush(peer)

    def _flush(self, peer: int) -> bool:
        """Write as much pending data as the pipe accepts; True if drained."""
        pending = self._pending[peer]
        fd = self._wfd[peer]
        while pending:
            view = pending[0]
            try:
                written = os.write(fd, view)
            except BlockingIOError:
                return False
            if written == len(view):
                pending.popleft()
            else:
                pending[0] = view[written:]
        return True

    # -- receiving ----------------------------------------------------- #

    def recv(self, peer: int) -> bytes:
        """Block until one full frame from ``peer`` is available.

        While waiting, drains every readable pipe (frames from other
        peers are queued for their own ``recv``) and flushes any pending
        outbound data, which is what makes the mesh deadlock-free.
        """
        frames = self._frames[peer]
        while not frames:
            if peer not in self._rfd:
                raise RuntimeError(
                    f"mesh worker {self.index}: peer {peer} closed its pipe"
                )
            rlist = list(self._rfd.values())
            wlist = [self._wfd[p] for p, q in self._pending.items() if q]
            readable, writable, _ = select.select(
                rlist, wlist, [], _STALL_TIMEOUT_S)
            if not readable and not writable:
                raise RuntimeError(
                    f"mesh worker {self.index} stalled waiting on "
                    f"worker {peer}"
                )
            for fd in readable:
                self._drain_fd(fd)
            if writable:
                writer_by_fd = {self._wfd[p]: p for p in self._wfd}
                for fd in writable:
                    self._flush(writer_by_fd[fd])
        return frames.popleft()

    def _drain_fd(self, fd: int) -> None:
        sender = self._peer_by_rfd[fd]
        buf = self._rbuf[sender]
        while True:
            try:
                chunk = os.read(fd, _READ_CHUNK)
            except BlockingIOError:
                break
            if not chunk:
                # The peer has left: keep what it sent, stop watching it.
                del self._rfd[sender]
                os.close(fd)
                break
            buf.extend(chunk)
            if len(chunk) < _READ_CHUNK:
                break
        frames = self._frames[sender]
        while len(buf) >= 4:
            length = int.from_bytes(buf[:4], "little")
            if len(buf) < 4 + length:
                break
            frames.append(bytes(buf[4:4 + length]))
            del buf[:4 + length]

    def flush_all(self) -> None:
        """Opportunistically push out whatever the pipes will take."""
        for peer, pending in self._pending.items():
            if pending:
                self._flush(peer)

    def close(self) -> None:
        """Write out every pending frame, then close the pipes: a peer
        may still be reading this worker's last round."""
        for peer, pending in self._pending.items():
            if pending:
                os.set_blocking(self._wfd[peer], True)
                self._flush(peer)
        for fd in list(self._wfd.values()) + list(self._rfd.values()):
            try:
                os.close(fd)
            except OSError:
                pass
        self._wfd.clear()
        self._rfd.clear()
