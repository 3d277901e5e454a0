"""Deterministic staleness detection in optimistic distributed injection."""

import pytest

from repro.attacks import counting_attack_deque
from repro.core.injector import CoordinationMode, DistributedInjection
from repro.core.lang.properties import Direction, InterposedMessage
from repro.core.model import AttackModel, SystemModel
from repro.dataplane import Topology
from repro.openflow import EchoRequest
from repro.sim import SimulationEngine


def build_cluster(latency):
    topo = Topology("stale")
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_switch("s1", datapath_id=1)
    topo.add_switch("s2", datapath_id=2)
    topo.add_link("h1", "s1")
    topo.add_link("s1", "s2")
    topo.add_link("h2", "s2")
    system = SystemModel.from_topology(topo, ["c1"])
    model = AttackModel.no_tls_everywhere(system)
    attack = counting_attack_deque(system.connection_keys(), n=1,
                                   condition_text="type = ECHO_REQUEST")
    engine = SimulationEngine()
    cluster = DistributedInjection(
        engine, model, attack, ["inj-a", "inj-b"],
        coordination_latency=latency, mode=CoordinationMode.OPTIMISTIC,
    )
    return engine, cluster


class _FakeProxy:
    def __init__(self):
        self.delivered = []

    def deliver(self, outgoing):
        self.delivered.append(outgoing)


def echo_on(connection, at):
    message = EchoRequest(payload=b"x")
    return InterposedMessage(connection, Direction.TO_CONTROLLER, at,
                             message.pack(), message)


def test_stale_decision_counted_before_broadcast_lands():
    engine, cluster = build_cluster(latency=10.0)
    inst_a = cluster.instance("inj-a")
    inst_b = cluster.instance("inj-b")
    proxy = _FakeProxy()

    # Replica A sees the arming echo on (c1, s1): it transitions to
    # "armed" locally and records the authoritative transition.
    inst_a.submit(proxy, echo_on(("c1", "s1"), engine.now))
    assert cluster.replica_states()["inj-a"] == "armed"
    assert cluster.replica_states()["inj-b"] == "counting"
    assert cluster.stats["stale_decisions"] == 0

    # Before the broadcast lands (10 s away), replica B processes a
    # message against its stale "counting" state: counted as stale.
    engine.run(until=1.0)
    inst_b.submit(proxy, echo_on(("c1", "s2"), engine.now))
    assert cluster.stats["stale_decisions"] == 1

    # After the broadcast propagates, replica B converges and further
    # processing is no longer stale.
    engine.run(until=12.0)
    assert cluster.replica_states()["inj-b"] == "armed"
    inst_b.submit(proxy, echo_on(("c1", "s2"), engine.now))
    assert cluster.stats["stale_decisions"] == 1


def test_zero_latency_has_no_staleness():
    engine, cluster = build_cluster(latency=0.0)
    inst_a = cluster.instance("inj-a")
    inst_b = cluster.instance("inj-b")
    proxy = _FakeProxy()
    inst_a.submit(proxy, echo_on(("c1", "s1"), engine.now))
    engine.run(until=0.5)  # zero-latency broadcast applies immediately
    inst_b.submit(proxy, echo_on(("c1", "s2"), engine.now))
    assert cluster.stats["stale_decisions"] == 0
    assert set(cluster.replica_states().values()) == {"armed"}


def test_authoritative_log_records_first_transition_only_once():
    engine, cluster = build_cluster(latency=5.0)
    inst_a = cluster.instance("inj-a")
    proxy = _FakeProxy()
    inst_a.submit(proxy, echo_on(("c1", "s1"), engine.now))
    inst_a.submit(proxy, echo_on(("c1", "s1"), engine.now))  # already armed
    transitions = [state for _t, state in cluster.transition_log]
    assert transitions == ["counting", "armed"]
