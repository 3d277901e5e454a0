"""Traced runs: determinism, zero-overhead-off, and the Table II forensics.

The acceptance bar for the trace subsystem: a traced interruption run
must reproduce the paper's unauthorized-access window from the trace
alone — the summary names the firewall-violating FLOW_MOD, the rule
that fired on it, and the state transition that severed (c1, s2), with
sim timestamps inside the experiment's probe window.
"""

import pytest

from repro.dataplane import FailMode
from repro.experiments import (
    run_interruption_experiment,
    run_suppression_experiment,
)
from repro.obs import TraceCollector, render_summary, summarize


SUPPRESSION_FAST = dict(ping_trials=3, iperf_trials=1, iperf_duration_s=0.5,
                        iperf_gap_s=0.5, warmup_s=2.0)


def traced_interruption(seed=0, fail_mode=FailMode.SECURE):
    tracer = TraceCollector()
    result = run_interruption_experiment("pox", fail_mode, seed=seed,
                                         trace=tracer)
    return tracer, result


def test_same_seed_same_cell_is_byte_identical():
    first, _ = traced_interruption(seed=3)
    second, _ = traced_interruption(seed=3)
    assert first.to_jsonl() == second.to_jsonl()
    assert first.events_total == second.events_total > 0


def test_different_seeds_share_structure_not_bytes():
    first, _ = traced_interruption(seed=1)
    second, _ = traced_interruption(seed=2)
    # Both traces tell the same attack story...
    for tracer in (first, second):
        assert tracer.count("rule_fired") > 0
        assert tracer.count("state") >= 2


def test_suppression_trace_is_deterministic_too():
    exports = []
    for _ in range(2):
        tracer = TraceCollector()
        run_suppression_experiment("pox", attacked=True, seed=5,
                                   trace=tracer, **SUPPRESSION_FAST)
        exports.append(tracer.to_jsonl())
    assert exports[0] == exports[1]


def test_untraced_run_has_no_collector_attached():
    """trace=None must leave every tracer attribute None (the zero-
    overhead configuration) and produce identical experiment results."""
    baseline = run_interruption_experiment("pox", FailMode.SECURE, seed=0)
    tracer, traced = traced_interruption(seed=0)
    assert tracer.events_total > 0
    assert baseline.record() == traced.record()


def test_disabled_collector_means_zero_events():
    tracer = TraceCollector()
    run_interruption_experiment("pox", FailMode.SECURE, seed=0)  # no trace=
    assert tracer.events_total == 0
    assert len(tracer) == 0


def test_trace_covers_every_instrumented_layer():
    tracer, _ = traced_interruption(seed=0)
    for kind in ("message", "rule_eval", "rule_fired", "state",
                 "flow_install", "monitor"):
        assert tracer.count(kind) > 0, f"no {kind} events collected"


def test_interruption_forensics_from_the_trace_alone():
    """Reproduce the Table II unauthorized-access analysis from the trace."""
    tracer, result = traced_interruption(seed=0,
                                         fail_mode=FailMode.STANDALONE)
    assert result.unauthorized_increased_access
    assert result.interruption_happened

    events = tracer.events()
    # 1. The firewall-violating FLOW_MOD: phi2 fires on a TO_SWITCH
    #    FLOW_MOD on the interposed (c1, s2) connection.
    (phi2,) = [e for e in events if e["kind"] == "rule_fired"
               and e["rule"] == "phi2"]
    assert phi2["type"] == "FLOW_MOD"
    assert phi2["connection"] == ["c1", "s2"]
    assert phi2["direction"] == "to_switch"
    assert phi2["xid"] is not None

    # 2. The transition that severed the connection, at the same instant.
    (sever,) = [e for e in events if e["kind"] == "state"
                and e["to"] == "sigma3"]
    assert sever["from"] == "sigma2"
    assert sever["t"] == phi2["t"]

    # 3. Timestamps sit inside the experiment's t=50s probe window —
    #    the attack triggers on the firewall's drop rule for the
    #    external->internal flow that starts at t=50.
    assert 50.0 <= phi2["t"] < 60.0

    # 4. The original FLOW_MOD never reached the switch.
    drops = [e for e in events if e["kind"] == "message_drop"
             and e["type"] == "FLOW_MOD"]
    assert drops

    # And the human rendering says all of that in one place.
    text = render_summary(summarize(events))
    assert "sigma2/phi2" in text
    assert "FLOW_MOD" in text
    assert "sigma2 -> sigma3" in text
    assert "(c1, s2)" in text


def test_ring_capacity_bounds_a_traced_run():
    tracer = TraceCollector(capacity=64)
    run_interruption_experiment("pox", FailMode.SECURE, seed=0, trace=tracer)
    assert len(tracer) == 64
    assert tracer.events_dropped == tracer.events_total - 64 > 0


@pytest.mark.parametrize("fail_mode", [FailMode.SECURE, FailMode.STANDALONE])
def test_sim_duration_is_recorded(fail_mode):
    _, result = traced_interruption(seed=0, fail_mode=fail_mode)
    assert result.sim_duration_s > 100.0
    assert result.record()["sim_duration_s"] == round(result.sim_duration_s, 6)
