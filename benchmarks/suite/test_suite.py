"""Self-test of the benchmark harness (about 20 s on a 2-CPU host).

``PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py`` from the
repository root.  It runs the ``--quick`` configurations (fat-tree-k4, one
iperf second, one repeat) through the same spawn/check/trace code as a
full set.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time

import pytest

from benchmarks.suite import harness
from benchmarks.suite.reference import HostClock
from benchmarks.suite.spans import BOUNDARIES, Instrumentation
from benchmarks.suite.workloads import WORKLOADS

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_set():
    return harness.run_set(list(WORKLOADS), repeats=1, seed=None, quick=True)


def test_every_benchmark_metric_is_emitted_with_its_unit(quick_set):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(harness.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in quick_set["workloads"].items():
        assert entry["fail_rate"] == 0, entry["problems"]
        for metric in SPEC["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["unit"] == metric["unit"], name
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            assert entry["per_layer"][metric["name"]]["unit"] == metric["unit"], name


def test_layers_report_time_only_where_they_run(quick_set):
    workloads = quick_set["workloads"]

    def self_s(name, layer):
        return workloads[name]["per_layer"][f"{layer}.self_s"]["value"]

    for layer in ("core.injector", "controllers", "defense", "workloads"):
        assert self_s("fabric-forward", layer) == 0
    for name in ("fig11-iperf", "fig11-suppress", "fabric-forward"):
        assert self_s(name, "defense") == 0 and self_s(name, "workloads") == 0
    for layer in ("dataplane.flowtable", "controllers", "defense", "workloads"):
        assert self_s("table-overflow", layer) > 0
    # The switch's per-hop flow-key parse counts as netlib, not switch time.
    assert self_s("fabric-forward", "netlib") > 0
    assert workloads["fabric-forward"]["per_layer"]["netlib.decodes"]["value"] > 0
    for name, entry in workloads.items():
        assert entry["per_layer"]["trace.coverage"]["value"] > 0.9, name


def test_patch_cycle_restores_every_patched_attribute():
    import repro.experiments  # noqa: F401  (the modules a run patches)

    instrumentation = Instrumentation()
    instrumentation.install()
    patched = instrumentation.patched()
    try:
        assert len(patched) >= len(BOUNDARIES)
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        instrumentation.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert instrumentation.patched() == []


def test_module_global_rebinding_covers_decode_ethernet():
    import repro.controllers.base as controllers_base
    import repro.dataplane.host as host
    from repro.netlib import packet

    original = packet.decode_ethernet
    frame = bytes(12) + b"\x99\x99" + bytes(46)
    with Instrumentation() as instrumentation:
        shim = packet.decode_ethernet
        assert shim is not original
        assert host.decode_ethernet is shim
        assert controllers_base.decode_ethernet is shim
        host.decode_ethernet(frame)
        controllers_base.decode_ethernet(frame)
        assert instrumentation.stats["decode_ethernet"][0] == 2
    assert host.decode_ethernet is original
    assert controllers_base.decode_ethernet is original


def test_host_clock_samples_during_the_block_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.reference_seconds() > 0


def test_forced_output_check_failure_raises_fail_rate(monkeypatch):
    workload = WORKLOADS["fabric-forward"]
    monkeypatch.setitem(WORKLOADS, workload.name, dataclasses.replace(
        workload, check=lambda record, quick: ["forced failure"]))
    result = harness.run_set([workload.name], repeats=1, seed=None, quick=True)
    entry = result["workloads"][workload.name]
    assert entry["fail_rate"] == 1.0
    assert any("forced failure" in problem for problem in entry["problems"])
