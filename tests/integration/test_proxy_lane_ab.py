"""A/B equivalence: the proxy's lane must be invisible to results.

Each cell runs twice: as shipped, and with ``RuntimeInjector.passes``
patched to answer "never", so every control message goes through
``submit``, the executor, the observers' ``message_interposed`` and
``deliver``, as before the lane existed.  Each pair runs once traced and
once untraced, and its two runs must agree on:

* the run's record (without host timing);
* the trace JSONL, in the traced pair;
* the chunks every control-channel endpoint received, in order;
* each connection proxy's stats;
* each control-plane monitor's ``message_counts``, ``per_connection`` and
  ``dropped_by_type``;
* each attack executor's stats;
* the last message id each engine drew.

A two-shard run builds its regions in forked workers, so each worker
hands what it captured back inside its reply.
"""

from collections import defaultdict

import pytest

from repro.attacks import library
from repro.campaign.executors import execute_descriptor
from repro.core import RuntimeInjector
from repro.core.injector.executor import AttackExecutor
from repro.core.injector.proxy import ConnectionProxy
from repro.core.lang import (
    Attack,
    AttackState,
    DelayMessage,
    DuplicateMessage,
    Rule,
    Sleep,
    parse_condition,
)
from repro.core.model import gamma_no_tls
from repro.core.monitors import ControlPlaneMonitor
from repro.dataplane.control import ControlChannel
from repro.obs import TraceCollector
from repro.sim import SimulationEngine, pool
from repro.sim.shard import BoundaryControlChannel
from tests.golden.corpus import EXECUTION_KEYS

FIG11 = {"ping_trials": 3, "iperf_trials": 1, "iperf_duration_s": 0.5,
         "iperf_gap_s": 0.5, "warmup_s": 2}
OVERFLOW = {
    "workload": "table-overflow", "table_capacity": 16,
    "table_eviction": "lru", "detectors": "pktin-rate", "horizon_s": 0.5,
    "workload_params": {"schedule": "constant:1000", "keys": 128,
                        "senders": 4, "duration_s": 0.1},
}


def _rule(name, connections, condition, actions):
    return Rule(name, connections, gamma_no_tls(), parse_condition(condition), actions)


def _sleep_attack(connections):
    """Every PACKET_IN puts the executor to sleep: what follows is deferred."""
    state = AttackState("sigma1", [
        _rule("nap", connections, "type = PACKET_IN", [Sleep(0.002)])])
    return Attack("lane-ab-sleep", [state], "sigma1")


def _delay_duplicate_attack(connections):
    state = AttackState("sigma1", [
        _rule("copy-late", connections, "type = FLOW_MOD",
              [DuplicateMessage(), DelayMessage(0.003)]),
        _rule("late", connections, "type = PACKET_OUT", [DelayMessage(0.001)]),
    ])
    return Attack("lane-ab-delay-duplicate", [state], "sigma1")


def _suppression(controller, attack=None, **attack_params):
    return {"experiment": "suppression", "controller": controller, "attack": attack,
            "topology": "enterprise", "fail_mode": "secure", "seed": 3,
            "params": FIG11, "attack_params": attack_params}


def _overflow(shards):
    return {"experiment": "workload", "controller": "floodlight", "attack": None,
            "topology": "fat-tree-k4", "fail_mode": "secure", "seed": 1,
            "params": dict(OVERFLOW, shards=shards), "attack_params": {}}


CELLS = {
    **{f"fig11-{controller}-{tag}": _suppression(controller, attack)
       for controller in ("floodlight", "pox", "ryu")
       for tag, attack in (("attacked", "flow-mod-suppression"), ("baseline", None))},
    # GOTOSTATE moves the attack between states whose rules want
    # different message types.
    "table2-floodlight-secure": {
        "experiment": "interruption", "controller": "floodlight",
        "attack": "connection-interruption", "topology": "enterprise",
        "fail_mode": "secure", "seed": 0, "params": {"time_scale": 0.5},
        "attack_params": {}},
    "sleep": _suppression("floodlight", "lane-ab-sleep"),
    "delay-duplicate": _suppression("floodlight", "lane-ab-delay-duplicate"),
    "prob-typed": _suppression("floodlight", "stochastic-drop", drop_probability=0.3,
                               condition_text="type = PACKET_OUT"),
    # A bare prob(p) constrains no type: no message may take the lane.
    "prob-bare": _suppression("floodlight", "stochastic-drop", drop_probability=0.02),
    "table-overflow-k4-shards1": _overflow(1),
    "table-overflow-k4-shards2": _overflow(2),
}


class _Capture:
    """What one process saw of a run."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.chunks = defaultdict(list)
        self.proxies = []
        self.monitors = []
        self.executors = []
        self.engines = []
        self.lane = 0

    def summary(self) -> dict:
        return {
            "chunks": dict(self.chunks),
            "proxies": [dict(proxy.stats) for proxy in self.proxies],
            "monitors": [(dict(m.message_counts), dict(m.per_connection),
                          dict(m.dropped_by_type)) for m in self.monitors],
            "executors": [dict(executor.stats) for executor in self.executors],
            "last_ids": [next(engine.ctx.msg_ids) - 1 for engine in self.engines],
            "lane": self.lane,
        }


def _merge(total: dict, part: dict) -> None:
    assert not set(total["chunks"]) & set(part["chunks"])
    total["chunks"].update(part["chunks"])
    for key in ("proxies", "monitors", "executors", "last_ids"):
        total[key] += part[key]
    total["lane"] += part["lane"]


def _instrument(patch, capture: _Capture, lane: bool) -> list:
    """Capture the run through ``patch``; return the forked workers'
    summaries as they arrive."""
    workers = []

    def registering(cls, into):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            into(capture).append(self)
        patch.setattr(cls, "__init__", init)

    registering(ConnectionProxy, lambda c: c.proxies)
    registering(ControlPlaneMonitor, lambda c: c.monitors)
    registering(AttackExecutor, lambda c: c.executors)
    registering(SimulationEngine, lambda c: c.engines)

    for cls in (ControlChannel, BoundaryControlChannel):
        def recording(self, data, _original=cls._deliver):
            if self.open:
                capture.chunks[self.name].append(bytes(data))
            _original(self, data)
        patch.setattr(cls, "_deliver", recording)

    if lane:
        shipped = RuntimeInjector.passes

        def counted(self, connection, type_name):
            passes = shipped(self, connection, type_name)
            capture.lane += passes
            return passes
        patch.setattr(RuntimeInjector, "passes", counted)
    else:
        patch.setattr(RuntimeInjector, "passes", lambda self, connection, type_name: False)

    run_regions, run_pooled = pool.run_regions, pool.run_pooled

    def worker_regions(*args):  # runs in the forked worker
        capture.reset()
        reply = run_regions(*args)
        reply["lane_ab"] = capture.summary()
        return reply

    def pooled(*args):
        replies = run_pooled(*args)
        workers.extend(reply.pop("lane_ab") for reply in replies)
        return replies

    patch.setattr(pool, "run_regions", worker_regions)
    patch.setattr(pool, "run_pooled", pooled)
    return workers


def _run(monkeypatch, descriptor: dict, traced: bool, lane: bool):
    capture = _Capture()
    tracer = TraceCollector() if traced else None
    with monkeypatch.context() as patch:
        patch.setitem(library._REGISTRY, "lane-ab-sleep", _sleep_attack)
        patch.setitem(library._REGISTRY, "lane-ab-delay-duplicate",
                      _delay_duplicate_attack)
        workers = _instrument(patch, capture, lane)
        record = execute_descriptor(descriptor, tracer=tracer)
    seen = capture.summary()
    for part in workers:
        _merge(seen, part)
    record = {key: value for key, value in record.items() if key not in EXECUTION_KEYS}
    return record, (tracer.to_jsonl() if traced else None), seen


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_the_lane_is_invisible(monkeypatch, cell, traced):
    record, trace, seen = _run(monkeypatch, CELLS[cell], traced, lane=True)
    never_record, never_trace, never_seen = _run(monkeypatch, CELLS[cell], traced,
                                                 lane=False)
    assert (seen["lane"] == 0) == (cell == "prob-bare")
    assert seen["chunks"] and seen["monitors"] and max(seen["last_ids"]) > 0
    assert record == never_record
    assert trace == never_trace
    for key in ("chunks", "proxies", "monitors", "executors", "last_ids"):
        assert seen[key] == never_seen[key], key
