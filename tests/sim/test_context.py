"""Per-run sequences: every run draws from its own engine's SimContext.

Two runs advanced alternately in one process must each produce the bytes
they produce alone, and no module or class in ``src/repro`` may hold a
sequence that outlives a run.
"""

import ast
from pathlib import Path

import repro
from repro.controllers import FloodlightController
from repro.dataplane import Network, Topology
from repro.sim import SimContext, SimulationEngine

SRC_ROOT = Path(repro.__file__).parent


def test_every_engine_starts_its_own_sequences():
    engine, other = SimulationEngine(), SimulationEngine()
    assert isinstance(engine.ctx, SimContext)
    assert engine.ctx is not other.ctx
    ctx = engine.ctx
    assert ctx.next_xid() == 1  # 0 stays reserved for unsolicited messages
    assert next(ctx.msg_ids) == 1
    assert next(ctx.icmp_ids) == 1
    assert next(ctx.ephemeral_ports) == 49152
    assert ctx.frames == {}
    assert other.ctx.next_xid() == 1


class RecordingController(FloodlightController):
    """Floodlight that keeps every byte string its switches send it."""

    def __init__(self, engine):
        super().__init__(engine)
        self.received = []

    def bytes_received(self, channel, data):
        self.received.append(bytes(data))
        super().bytes_received(channel, data)


def build_run():
    """h1 - s1 - s2 - h2 under Floodlight: 3 pings, then a 0.2 s iperf."""
    topo = Topology("pair")
    for name in ("h1", "h2"):
        topo.add_host(name)
    for name in ("s1", "s2"):
        topo.add_switch(name)
    topo.add_link("h1", "s1")
    topo.add_link("s1", "s2")
    topo.add_link("h2", "s2")
    engine = SimulationEngine()
    network = Network(engine, topo)
    controller = RecordingController(engine)
    network.set_all_controller_targets(controller)
    network.start()
    h1, h2 = network.host("h1"), network.host("h2")
    h2.start_iperf_server()
    engine.schedule_at(1.0, h1.ping, h2.ip, 3, 0.25)
    engine.schedule_at(2.0, h1.run_iperf_client, h2.ip, 5001, 0.2)
    return engine, controller


STEPS = [0.25 * step for step in range(1, 17)]


def test_two_runs_in_one_process_stay_isolated():
    engine, alone = build_run()
    for until in STEPS:
        engine.run(until=until)
    assert alone.stats["packet_ins_handled"] > 0

    first_engine, first = build_run()
    second_engine, second = build_run()
    for until in STEPS:
        first_engine.run(until=until)
        second_engine.run(until=until)
    assert first.received == alone.received
    assert second.received == alone.received


def _sequence_globals(path):
    """``global`` statements and ``itertools.count`` module/class attrs."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    scopes = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for statement in body:
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            if any(isinstance(node, ast.Call) and _is_count(node.func)
                   for node in ast.walk(statement)):
                found.append(statement.lineno)
    return found


def _is_count(func):
    if isinstance(func, ast.Attribute):
        return (func.attr == "count" and isinstance(func.value, ast.Name)
                and func.value.id == "itertools")
    return isinstance(func, ast.Name) and func.id == "count"


def test_no_process_global_sequence_remains():
    offenders = [f"{path.relative_to(SRC_ROOT)}:{line}"
                 for path in sorted(SRC_ROOT.rglob("*.py"))
                 for line in _sequence_globals(path)]
    assert offenders == []
