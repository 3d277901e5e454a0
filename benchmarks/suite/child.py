"""One benchmark run in a fresh interpreter, spawned by the harness.

``python -m benchmarks.suite.child WORKLOAD SEED [--quick] [--trace]``

Prints ``ready`` as soon as the experiment entry points are imported (the
parent times set-up from spawn to that line, and scales it by the kernel
time sampled during the imports), then runs the workload once
under a :class:`~benchmarks.suite.reference.HostClock` and prints one JSON
line: wall, CPU and reference seconds of the run call, the median kernel
time, peak RSS, the run's record and, with ``--trace``, the span counters.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from typing import List

from benchmarks.suite.reference import HostClock


def _cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children, at full
    resolution (``os.times`` counts in clock ticks)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv: List[str]) -> int:
    name, seed, flags = argv[0], int(argv[1]), set(argv[2:])
    # The imports are the measured set-up; the clock tells the parent how
    # fast the host ran while they did.
    with HostClock() as setup_clock:
        from benchmarks.suite.workloads import WORKLOADS

        import repro.experiments  # noqa: F401

    workload = WORKLOADS[name]
    print("ready", flush=True)

    instrumentation = None
    if "--trace" in flags:
        from benchmarks.suite.spans import Instrumentation

        instrumentation = Instrumentation()
        instrumentation.install()
    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr), HostClock() as clock:
        record = workload.run(seed, "--quick" in flags)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_before
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "wall_ref_s": clock.reference_seconds(),
        "kernel_ms": clock.kernel_ms(),
        "setup_kernel_ms": setup_clock.kernel_ms(),
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0,
        "record": record,
    }
    if instrumentation is not None:
        instrumentation.uninstall()
        result["spans"] = instrumentation.stats
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
