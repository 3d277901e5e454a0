"""Host-speed-independent run time: a fixed kernel sampled during the run.

The host this benchmark runs on is shared, and how fast it runs Python
changes within a second: the same run took anywhere from 1x to 2x its
quiet time, and a median over the runs of one invocation could not
remove slow phases that lasted minutes.  :class:`HostClock` therefore
times a tiny fixed kernel every 50 ms of a run, from a timer signal, and
converts the run's wall time into *reference seconds*: each stretch
between two samples is divided by the kernel's time around it and
multiplied by :data:`REF_KERNEL_S`.  A stretch that ran at half speed
took twice as long, and so did the kernel timed at its ends, so the
stretch counts the same.

A change to the program changes how many stretches the run takes and not
the kernel's time, because the kernel lives here and imports nothing
from ``repro``.  The kernel mixes what the simulator spends its time on
-- integer arithmetic and dict stores, a heap of event tuples, struct
unpacking of a header, tuple-keyed lookups and a slotted method call --
and runs with the cyclic garbage collector off, so its time does not
depend on what the workload has on the heap.  It costs about 1.5% of a
run, which the conversion leaves out.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import struct
import time
from typing import List, Tuple

#: Seconds one kernel pass is taken to last; about its time on an idle
#: 2 GHz Xeon, so reference seconds read close to wall seconds there.
REF_KERNEL_S = 0.75e-3
PERIOD_S = 0.05

_TABLE = dict.fromkeys(range(256), 0)
_HEADER = struct.Struct("!HBBII")
_FRAMES = [_HEADER.pack(i, 4, 6, i * 7, i * 13) + bytes(16) for i in range(64)]
_FLOWS = {(i, (i * 7) & 0xFF, 6): i % 7 for i in range(512)}


class _Port:
    __slots__ = ("node", "hits")

    def __init__(self, node: int) -> None:
        self.node = node
        self.hits = 0

    def deliver(self, key: Tuple[int, int, int], table: dict):
        nxt = table.get(key)
        if nxt is not None:
            self.hits += 1
        return nxt


_PORTS = [_Port(i) for i in range(8)]


def kernel() -> None:
    """One pass of the fixed kernel."""
    acc, table = 0, _TABLE
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    heap = [(0.0, i) for i in range(16)]
    flows, ports, frames, unpack = _FLOWS, _PORTS, _FRAMES, _HEADER.unpack_from
    for i in range(450):
        now, seq = heapq.heappop(heap)
        port, _, proto, a, _ = unpack(frames[i & 63])
        ports[i & 7].deliver((port & 511, a & 0xFF, proto), flows)
        heapq.heappush(heap, (now + 1e-6, seq + 16))


def kernel_seconds() -> float:
    """Wall seconds of one kernel pass, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """``with HostClock() as clock: run()``, then ``clock.reference_seconds()``.

    Uses ``SIGALRM`` and ``ITIMER_REAL`` for the duration of the block.
    """

    def __init__(self) -> None:
        #: ``(start, seconds)`` of each kernel pass.
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append((start, kernel_seconds()))

    def __enter__(self) -> "HostClock":
        kernel_seconds()                      # warm
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self) -> float:
        """The block's time outside the kernel, in reference seconds."""
        total = 0.0
        for (start, spent), (next_start, next_spent) in zip(self.samples, self.samples[1:]):
            stretch = next_start - (start + spent)
            total += stretch / ((spent + next_spent) / 2)
        return total * REF_KERNEL_S

    def kernel_ms(self) -> float:
        """Median kernel time in the block: how fast the host ran."""
        return statistics.median(spent for _, spent in self.samples) * 1e3
