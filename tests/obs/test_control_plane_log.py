"""One control-plane log: each control message is traced once.

The paper's injector "logged all control plane connections, all messages
sent across such connections, and rule notifications" (Section VII-A2).
Here that log is the proxy's ``message`` events and the executor's
events; the control-plane monitor only counts.  A traced cell must hold
exactly one ``message`` event per control message its record counts,
and no control-plane monitor sample repeating them, whatever the
experiment family and the shard count.
"""

import pytest

from repro.campaign.executors import execute_descriptor
from repro.obs import TraceCollector
from tests.golden.corpus import CELLS_BY_NAME


def traced(name):
    tracer = TraceCollector()
    record = execute_descriptor(CELLS_BY_NAME[name].descriptor().identity(),
                                tracer=tracer)
    return tracer, record


@pytest.mark.parametrize("name", [
    "fig11-floodlight-attacked", "table-overflow-k4", "table-overflow-k4-shards2",
])
def test_each_control_message_is_logged_once(name):
    tracer, record = traced(name)
    assert tracer.events_dropped == 0
    assert tracer.count("message") == record["total_control_messages"] > 0
    assert [event for event in tracer.events("monitor")
            if event["monitor"] == "control-plane"] == []


def test_shard_counts_log_the_same_control_plane():
    inline, _record = traced("table-overflow-k4")
    pooled, _record = traced("table-overflow-k4-shards2")
    assert pooled.to_jsonl() == inline.to_jsonl()
    assert inline.counts == pooled.counts
