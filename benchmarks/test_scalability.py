"""E4 — Section VI-D: memory and runtime scalability of the framework.

* **VI-D1 memory**: N_D grows O((|S|+|H|)^2) in the worst (fully linked)
  case and N_C grows O(|C| x |S|); measured via the system model's
  abstract memory-cell accounting.
* **VI-D2 runtime**: executing a state against a message is O(|Φ|) rule
  checks plus the fired rules' actions; measured as executor wall time vs.
  the number of rules in the current state, for the one-rule-fires and
  all-rules-fire cases.
"""

import pytest

from benchmarks.conftest import print_table
from repro.core.injector import AttackExecutor
from repro.core.lang import (
    Attack,
    AttackState,
    PassMessage,
    Rule,
    parse_condition,
)
from repro.core.lang.properties import Direction, InterposedMessage
from repro.core.model import SystemModel, gamma_no_tls
from repro.core.model.system import (
    ControlConnection,
    ControllerSpec,
    DataPlaneEdge,
    HostSpec,
    SwitchSpec,
)
from repro.openflow import Hello
from repro.sim import SimulationEngine
from tests.core.executor_reference import LinearAttackExecutor

CONN = ("c1", "s1")


def full_mesh_system(n_switches, n_hosts, n_controllers=1):
    switches = [SwitchSpec(f"s{i}", i, (1,)) for i in range(1, n_switches + 1)]
    hosts = [HostSpec(f"h{i}") for i in range(1, n_hosts + 1)]
    controllers = [ControllerSpec(f"c{i}") for i in range(1, n_controllers + 1)]
    vertices = [s.name for s in switches] + [h.name for h in hosts]
    edges = []
    for a in vertices:
        for b in vertices:
            if a != b:
                a_port = None if a.startswith("h") else 1
                edges.append(DataPlaneEdge(a, b, a_port, 1))
    connections = [
        ControlConnection(c.name, s.name) for c in controllers for s in switches
    ]
    return SystemModel(controllers, switches, hosts, edges, connections)


def test_nd_memory_grows_quadratically(benchmark):
    def collect():
        rows = []
        for size in (2, 4, 8, 16):
            system = full_mesh_system(size, size)
            cells = system.memory_cells()
            rows.append((size, cells["nd_vertices"], cells["nd_edges"],
                         cells["nd_attributes"], cells["nc_relations"]))
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    print_table(
        "Section VI-D1 — N_D/N_C memory cells (fully connected worst case)",
        ("|S|=|H|", "vertices", "edges", "attributes", "N_C relations"),
        rows,
    )
    # O((|S|+|H|)^2): doubling the size ~quadruples the edge count.
    sizes = {row[0]: row for row in rows}
    assert sizes[8][2] / sizes[4][2] == pytest.approx(4, rel=0.3)
    assert sizes[16][2] / sizes[8][2] == pytest.approx(4, rel=0.3)
    # N_C is |C| x |S|: linear in |S| for one controller.
    assert sizes[16][4] == 2 * sizes[8][4]


def _executor_with_rules(n_rules, all_fire, executor_cls=LinearAttackExecutor):
    """n rules in one state; either all fire or only the last can.

    Defaults to the linear scan (``tests/core/executor_reference.py``):
    these benchmarks measure the paper's O(|Φ|) Algorithm 1.  The indexed
    fast lane is measured separately (here in
    ``test_executor_runtime_indexed`` and in
    ``benchmarks/test_fastpath.py``).
    """
    rules = []
    for index in range(n_rules):
        condition = "type = HELLO" if all_fire else "type = FLOW_MOD"
        rules.append(
            Rule(f"r{index}", CONN, gamma_no_tls(),
                 parse_condition(condition), [PassMessage()])
        )
    attack = Attack("scale", [AttackState("s", rules)], "s")
    return executor_cls(attack, SimulationEngine())


@pytest.mark.parametrize("n_rules", [1, 16, 64])
def test_executor_runtime_scales_with_rule_count(benchmark, n_rules):
    """VI-D2: per-message cost is O(|Φ|) when no rule fires."""
    executor = _executor_with_rules(n_rules, all_fire=False)
    message = Hello()

    def process():
        interposed = InterposedMessage(
            CONN, Direction.TO_CONTROLLER, 0.0, message.pack(), message
        )
        return executor.handle_message(interposed)

    benchmark(process)
    benchmark.extra_info["rules"] = n_rules
    assert executor.stats["rules_fired"] == 0


@pytest.mark.parametrize("n_rules", [1, 16, 64])
def test_executor_runtime_all_rules_fire(benchmark, n_rules):
    """VI-D2 worst case: O(|Φ| x |α_max|) when every conditional is true."""
    executor = _executor_with_rules(n_rules, all_fire=True)
    message = Hello()

    def process():
        interposed = InterposedMessage(
            CONN, Direction.TO_CONTROLLER, 0.0, message.pack(), message
        )
        return executor.handle_message(interposed)

    benchmark(process)
    benchmark.extra_info["rules"] = n_rules


@pytest.mark.parametrize("n_rules", [16, 64])
def test_executor_runtime_indexed(benchmark, n_rules):
    """The fast lane breaks O(|Φ|): no-fire cost is flat in the rule count."""
    executor = _executor_with_rules(n_rules, all_fire=False,
                                    executor_cls=AttackExecutor)
    raw = Hello().pack()

    def process():
        interposed = InterposedMessage(CONN, Direction.TO_CONTROLLER, 0.0, raw)
        return executor.handle_message(interposed)

    benchmark(process)
    benchmark.extra_info["rules"] = n_rules
    # The index skipped every rule without evaluating a single conditional.
    assert executor.stats["rules_fired"] == 0
    assert executor.stats["rules_evaluated"] == 0
    assert executor.stats["rules_skipped_by_index"] == \
        n_rules * executor.stats["messages_processed"]


def test_message_decode_encode_throughput(benchmark):
    """Injector hot path: decode + re-encode one FLOW_MOD."""
    from repro.openflow import FlowMod, Match, OutputAction, parse_message

    raw = FlowMod(Match(in_port=1, tp_dst=80), idle_timeout=5,
                  actions=[OutputAction(2)]).pack()

    def roundtrip():
        return parse_message(raw).pack()

    result = benchmark(roundtrip)
    assert result == raw
