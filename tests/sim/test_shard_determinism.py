"""Shard-count invariance: the tentpole determinism contract.

The same fabric run must produce byte-identical merged trace exports and
identical metrics whether its regions execute inline in one process or
spread across any number of pool workers.  The barrier's adaptive epoch
widening is checked against the fixed lookahead grid it widens
(:class:`FixedGridSchedule`): widening must never reorder deliveries.

Suppression and interruption attacks are both exercised — the injector,
proxies, and control-plane boundary channels all sit on the sharded path.
"""

import os

from repro.experiments.fabric import run_fabric_experiment
from repro.obs import TraceCollector
from repro.sim import shard
from tests.golden.corpus import EXECUTION_KEYS

#: Additionally schedule-dependent: epoch counts differ between the fixed
#: grid and the adaptive schedule (that is the point of widening).
SCHEDULE_KEYS = ("epochs", "epochs_skipped", "epochs_widened")

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")


def _run(shards, **kwargs):
    """The run's result and the collector its trace went into."""
    trace = TraceCollector()
    result = run_fabric_experiment(
        "fat-tree-k4", controller="floodlight", pairs=4, packets=3,
        shards=shards, trace=trace, **kwargs,
    )
    return result, trace


def _comparable(result, across_schedules=False):
    metrics = result.record()
    for key in EXECUTION_KEYS:
        metrics.pop(key)
    if across_schedules:
        for key in SCHEDULE_KEYS:
            metrics.pop(key)
    return metrics


class FixedGridSchedule(shard.BarrierSchedule):
    """The fixed lookahead grid: epochs end on multiples of the lookahead
    ``L``, fast-forwarding over empty slots.  Arrivals are strictly
    beyond ``previous boundary + L`` and can never trigger the drain
    round."""

    def advance(self, next_time, pending_arrival):
        self.epochs += 1
        horizon = self.horizon
        if self._until >= horizon:
            return pending_arrival is not None and pending_arrival <= horizon
        wake = next_time
        if pending_arrival is not None and (wake is None or pending_arrival < wake):
            wake = pending_arrival
        lookahead = self.lookahead
        if wake is None:
            k_next = max(self._k + 1, int(horizon / lookahead))
            self.epochs_skipped += max(0, k_next - self._k - 1)
            self._k = k_next
            self._until = min((k_next + 1) * lookahead, horizon)
            return True
        # The epoch whose (k+1)*L boundary first covers `wake`.
        k_next = max(self._k + 1, -int(-wake / lookahead) - 1)
        self.epochs_skipped += max(0, k_next - self._k - 1)
        self._k = k_next
        self._until = min((k_next + 1) * lookahead, horizon)
        return True


def test_shard_counts_are_byte_identical():
    """Inline and every pooled shard count replay the same run."""
    shard_counts = (1, 2) if QUICK else (1, 2, 4)
    reference, reference_trace = _run(shard_counts[0])
    assert reference_trace.events_total > 0
    for shards in shard_counts[1:]:
        result, trace = _run(shards)
        assert trace.to_jsonl() == reference_trace.to_jsonl(), shards
        assert _comparable(result) == _comparable(reference), shards


def test_adaptive_lookahead_actually_widens_epochs(monkeypatch):
    for shards in (1, 2):
        adaptive, adaptive_trace = _run(shards)
        with monkeypatch.context() as patch:
            patch.setattr(shard, "BarrierSchedule", FixedGridSchedule)
            fixed, fixed_trace = _run(shards)
        assert adaptive_trace.to_jsonl() == fixed_trace.to_jsonl(), shards
        assert (_comparable(adaptive, across_schedules=True)
                == _comparable(fixed, across_schedules=True)), shards
        assert adaptive.epochs_widened > 0, shards
        assert fixed.epochs_widened == 0, shards
        assert adaptive.epochs < fixed.epochs, shards


def test_suppression_attack_is_shard_invariant():
    inline, inline_trace = _run(1, attack="flow-mod-suppression")
    pooled, pooled_trace = _run(3, attack="flow-mod-suppression")
    assert inline_trace.to_jsonl() == pooled_trace.to_jsonl()
    assert inline_trace.events_total == pooled_trace.events_total > 0
    assert _comparable(inline) == _comparable(pooled)
    assert inline.flow_mods_dropped > 0  # the attack actually fired


def test_interruption_attack_is_shard_invariant():
    # The Fig. 12 interruption attack, retargeted at the first workload
    # pair's edge switch: FLOW_MODs for pings from p00e00h00 toward its
    # partner trip the state machine.
    from repro.dataplane.fabrics import generate_fabric

    hosts = generate_fabric("fat-tree-k4").topology.hosts
    params = {
        "connection": ("c1", "p00e00"),
        "trigger_source_ip": str(hosts["p00e00h00"].ip),
        "protected_destination_ips": [str(hosts["p02e00h00"].ip)],
    }
    inline, inline_trace = _run(1, attack="connection-interruption",
                                attack_params=params)
    pooled, pooled_trace = _run(4, attack="connection-interruption",
                                attack_params=params)
    assert inline_trace.to_jsonl() == pooled_trace.to_jsonl()
    assert _comparable(inline) == _comparable(pooled)
    assert inline.flow_mods_dropped > 0  # the state machine reached phi2


def test_unattacked_controller_run_is_shard_invariant():
    inline, inline_trace = _run(1)
    pooled, pooled_trace = _run(2)
    assert inline_trace.to_jsonl() == pooled_trace.to_jsonl()
    assert inline.ping_received == inline.ping_sent > 0


def test_controllerless_udp_run_is_shard_invariant():
    inline_trace, pooled_trace = TraceCollector(), TraceCollector()
    inline = run_fabric_experiment("fat-tree-k4", pairs=4, packets=10,
                                   shards=1, trace=inline_trace)
    pooled = run_fabric_experiment("fat-tree-k4", pairs=4, packets=10,
                                   shards=2, trace=pooled_trace)
    assert inline_trace.to_jsonl() == pooled_trace.to_jsonl()
    assert _comparable(inline) == _comparable(pooled)
    assert inline.packets_delivered == inline.packets_sent == 40


def test_rerun_same_config_is_byte_identical():
    _first, first_trace = _run(2)
    _second, second_trace = _run(2)
    assert first_trace.to_jsonl() == second_trace.to_jsonl()


def test_exchange_counters_are_populated_on_pooled_runs():
    pooled, _trace = _run(2)
    assert pooled.exchange_bytes > 0
    assert pooled.exchange_blobs > 0
    assert pooled.cross_shard_messages > 0
    inline, _trace = _run(1)
    assert inline.exchange_bytes == inline.exchange_blobs == 0
