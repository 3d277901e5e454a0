"""Tests for ordering comparisons and the black-hole attack."""

import pytest

from repro.attacks import blackhole_attack, flow_mod_suppression_attack
from repro.controllers import FloodlightController
from repro.core import AttackModel, RuntimeInjector, SystemModel
from repro.core.compiler.codegen import condition_to_text
from repro.core.injector import AttackExecutor
from repro.core.lang import EvalContext, StorageSet, parse_condition
from repro.core.lang.properties import Direction, InterposedMessage
from repro.core.monitors import ControlPlaneMonitor
from repro.dataplane import Network, Topology
from repro.openflow import FlowMod, Match, OutputAction, parse_message
from repro.sim import SimulationEngine

CONN = ("c1", "s1")


def interposed(message, at=0.0):
    return InterposedMessage(CONN, Direction.TO_SWITCH, at, message.pack(), message)


class TestOrderingOperators:
    def evaluate(self, text, message=None, at=0.0):
        ctx = EvalContext(message, StorageSet(), at)
        return parse_condition(text).compile()(ctx)

    def test_timestamp_gating(self):
        late = interposed(FlowMod(Match()), at=31.0)
        early = interposed(FlowMod(Match()), at=29.0)
        assert self.evaluate("timestamp > 30", late)
        assert not self.evaluate("timestamp > 30", early)
        assert self.evaluate("timestamp < 30", early)

    def test_length_gating(self):
        small = interposed(FlowMod(Match()))
        assert self.evaluate("length > 8", small)
        assert not self.evaluate("length < 8", small)

    def test_none_never_orders(self):
        # TYPE of an undecodable message is None: ordering is false.
        garbage = InterposedMessage(CONN, Direction.TO_SWITCH, 0.0, b"\xff" * 12)
        assert not self.evaluate("opt.idle_timeout > 0", garbage)

    def test_non_numeric_never_orders(self):
        msg = interposed(FlowMod(Match()))
        assert not self.evaluate("type > 3", msg)  # "FLOW_MOD" is not numeric

    def test_codegen_roundtrip(self):
        cond = parse_condition("timestamp > 30 and length < 100")
        text = condition_to_text(cond)
        reparsed = parse_condition(text)
        late = interposed(FlowMod(Match()), at=31.0)
        ctx = EvalContext(late, StorageSet(), 0.0)
        assert cond.compile()(ctx) == reparsed.compile()(ctx)


class TestBlackholeExecutorLevel:
    def test_output_actions_rewritten(self):
        attack = blackhole_attack(CONN, dead_port=9)
        executor = AttackExecutor(attack, SimulationEngine())
        flow_mod = FlowMod(Match(in_port=1), actions=[OutputAction(2),
                                                      OutputAction(3)])
        out = executor.handle_message(interposed(flow_mod))
        assert len(out) == 1  # NOT dropped — stealth is the point
        rewritten = parse_message(out[0].message.raw)
        assert [a.port for a in rewritten.actions] == [9, 9]

    def test_drop_rules_pass_unmodified(self):
        attack = blackhole_attack(CONN, dead_port=9)
        executor = AttackExecutor(attack, SimulationEngine())
        drop_rule = FlowMod(Match(in_port=1), actions=[])
        out = executor.handle_message(interposed(drop_rule))
        assert parse_message(out[0].message.raw).actions == []

    def test_time_gated_variant(self):
        attack = blackhole_attack(CONN, dead_port=9, after_timestamp=10.0)
        engine = SimulationEngine()
        executor = AttackExecutor(attack, engine)
        early = interposed(FlowMod(Match(), actions=[OutputAction(2)]), at=5.0)
        out = executor.handle_message(early)
        assert parse_message(out[0].message.raw).actions == [OutputAction(2)]
        late = interposed(FlowMod(Match(), actions=[OutputAction(2)]), at=15.0)
        out = executor.handle_message(late)
        assert parse_message(out[0].message.raw).actions == [OutputAction(9)]


class TestBlackholeEndToEnd:
    def build(self, attack):
        engine = SimulationEngine()
        topo = Topology("bh")
        topo.add_host("h1")
        topo.add_host("h2")
        topo.add_switch("s1")
        topo.add_switch("s2")
        topo.add_link("h1", "s1")
        topo.add_link("s1", "s2")
        topo.add_link("h2", "s2")
        network = Network(engine, topo)
        controller = FloodlightController(engine)
        system = SystemModel.from_topology(topo, ["c1"])
        model = AttackModel.no_tls_everywhere(system)
        injector = RuntimeInjector(engine, model, attack)
        monitor = ControlPlaneMonitor()
        injector.add_observer(monitor)
        injector.install(network, {"c1": controller})
        network.start()
        engine.run(until=5.0)
        return engine, network, monitor

    def test_stealthy_denial_of_service(self):
        system_conns = [("c1", "s1"), ("c1", "s2")]
        engine, network, monitor = self.build(
            blackhole_attack(system_conns, dead_port=200)
        )
        run = network.host("h1").ping(network.host_ip("h2"), count=4)
        engine.run(until=30.0)
        # Rules were installed (the controller sees success; the poisoned
        # entries idle out later like any others)...
        assert network.total_stat("flow_mods_received") > 0
        # ...but traffic vanishes once it matches the poisoned rules.
        # (Floodlight also packet-outs the triggering packet, so the very
        # first ping may survive; later ones die in the black hole.)
        assert run.result.received < run.result.sent
        # Stealth: nothing was dropped on the control plane.
        assert monitor.dropped_total() == 0

    def test_contrast_with_suppression_signature(self):
        """Suppression leaves a loud control-plane signature; the black
        hole leaves none — same service impact, different observable."""
        system_conns = [("c1", "s1"), ("c1", "s2")]
        engine_s, network_s, monitor_s = self.build(
            flow_mod_suppression_attack(system_conns)
        )
        network_s.host("h1").ping(network_s.host_ip("h2"), count=4)
        engine_s.run(until=30.0)
        assert monitor_s.dropped_total() > 0
        assert network_s.total_stat("flow_mods_received") == 0
