"""A/B equivalence: the packet fast lane must be invisible to results.

Runs real experiment cells — Fig. 11 suppression and Table II
interruption — twice each, once as is and once with every FastFrame
producer returning plain bytes (:mod:`tests.netlib.plain_frames`), and
asserts that every frame delivered to every host is byte-identical and
that the recorded metrics match exactly.  Interning and key memoization
are a pure performance layer; any divergence here is a correctness bug,
not a tuning difference.
"""

from typing import List, Tuple

from repro.core.injector.proxy import ConnectionProxy
from repro.dataplane.host import Host
from repro.dataplane.switch import OpenFlowSwitch
from repro.experiments import run_interruption_cell, run_suppression_cell
from repro.netlib.fastframe import FastFrame
from tests.netlib import plain_frames

FAST_PARAMS = {"ping_trials": 3, "iperf_trials": 1, "iperf_duration_s": 0.5,
               "iperf_gap_s": 0.5, "warmup_s": 2.0}


def run_with_capture(monkeypatch, enabled, cell, **kwargs):
    """Run one cell, plain frames unless ``enabled``, capturing host
    deliveries; checks which frame type reached hosts and switches."""
    delivered: List[Tuple[str, bytes]] = []
    fast_arrivals = []

    def capturing(original, record):
        def receive(self, *args):
            data = args[-1]
            fast_arrivals.append(type(data) is FastFrame)
            if record:
                delivered.append((self.name, bytes(data)))
            return original(self, *args)
        return receive

    with monkeypatch.context() as patch:
        patch.setattr(Host, "frame_received",
                      capturing(Host.frame_received, True))
        patch.setattr(OpenFlowSwitch, "frame_received",
                      capturing(OpenFlowSwitch.frame_received, False))
        if not enabled:
            plain_frames.apply(patch)
        metrics = cell(**kwargs)
    assert any(fast_arrivals) == enabled
    return metrics, delivered


def assert_ab_identical(monkeypatch, cell, **kwargs):
    metrics_on, frames_on = run_with_capture(monkeypatch, True, cell, **kwargs)
    metrics_off, frames_off = run_with_capture(monkeypatch, False, cell,
                                               **kwargs)
    assert len(frames_on) == len(frames_off)
    assert frames_on == frames_off  # byte-identical, in delivery order
    assert metrics_on == metrics_off
    return metrics_on, frames_on


class TestSuppressionAB:
    def test_attacked_cell_is_fastlane_invariant(self, monkeypatch):
        metrics, frames = assert_ab_identical(
            monkeypatch, run_suppression_cell,
            controller="pox", attack="flow-mod-suppression", seed=3,
            **FAST_PARAMS,
        )
        assert metrics["denial_of_service"] is True
        assert frames  # the hosts actually exchanged traffic

    def test_baseline_cell_is_fastlane_invariant(self, monkeypatch):
        metrics, _ = assert_ab_identical(
            monkeypatch, run_suppression_cell,
            controller="pox", attack=None, seed=3, **FAST_PARAMS,
        )
        assert metrics["throughput_mbps"] > 10.0


class TestInterruptionAB:
    def test_attacked_cell_is_fastlane_invariant(self, monkeypatch):
        metrics, frames = assert_ab_identical(
            monkeypatch, run_interruption_cell,
            controller="floodlight", attack="connection-interruption",
            seed=1, time_scale=0.5,
        )
        assert metrics["interruption_happened"] is True
        assert frames

    def test_baseline_cell_is_fastlane_invariant(self, monkeypatch):
        metrics, _ = assert_ab_identical(
            monkeypatch, run_interruption_cell,
            controller="floodlight", attack=None, seed=1, time_scale=0.5,
        )
        assert metrics["interruption_happened"] is False


#: Implementation counters, by the class whose ``stats`` dict keeps them.
IMPLEMENTATION_COUNTERS = {
    OpenFlowSwitch: ("frames_interned", "rx_no_lookup"),
    ConnectionProxy: ("decode_avoided", "repack_avoided"),
}


def test_fastlane_counters_stay_out_of_experiment_metrics(monkeypatch):
    """Implementation counters are operational telemetry; they must never
    enter a cell's recorded metrics (or A/B equality — and cross-machine
    reproducibility — would be unachievable).  Each counter must exist on
    its owner in the same run, so a renamed counter fails here instead of
    passing as absent."""
    owners = {cls: [] for cls in IMPLEMENTATION_COUNTERS}

    def recording(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            owners[cls].append(self)
        return init

    for cls in IMPLEMENTATION_COUNTERS:
        monkeypatch.setattr(cls, "__init__", recording(cls))
    metrics, _ = run_with_capture(
        monkeypatch, True, run_suppression_cell,
        controller="pox", attack=None, seed=0, **FAST_PARAMS,
    )
    for cls, keys in IMPLEMENTATION_COUNTERS.items():
        assert owners[cls], f"the run built no {cls.__name__}"
        for key in keys:
            assert all(key in owner.stats for owner in owners[cls]), key
            assert key not in metrics
