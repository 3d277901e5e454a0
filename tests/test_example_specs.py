"""Every committed example attack spec runs on the enterprise network.

Each ``examples/attacks/*.xml`` (but the system model) is compiled
against ``examples/attacks/system.xml`` and run under POX with the
injector on every control connection: h3 pings h4 three times at
t = 2 s and h1 three times at t = 6 s, to a 12 s horizon.  CI's
lint-smoke only lints these specs; this runs them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.compiler import compile_attack, parse_system_model_xml
from repro.core.model import AttackModel
from tests.attacks.enterprise_run import run_on_enterprise

SPECS = Path(__file__).resolve().parent.parent / "examples" / "attacks"
SYSTEM = parse_system_model_xml((SPECS / "system.xml").read_text())
PINGS = [(2.0, "h3", "h4", 3), (6.0, "h3", "h1", 3)]
HORIZON = 12.0


def run_spec(name):
    attack = compile_attack((SPECS / name).read_text(), SYSTEM,
                            AttackModel.no_tls_everywhere(SYSTEM))
    return run_on_enterprise(attack, "pox", PINGS, HORIZON, system=SYSTEM)


@pytest.mark.parametrize("name", sorted(
    path.name for path in SPECS.glob("*.xml") if path.name != "system.xml"))
def test_spec_runs_to_the_horizon(name):
    setup, _injector, _records, _pings = run_spec(name)
    assert setup.engine.now == HORIZON


def test_counting_replay_captures_three_flow_mods_and_replays_them():
    _setup, injector, _records, _pings = run_spec("counting_replay.xml")
    stats = injector.executor.stats
    assert injector.current_state == "done"
    assert stats["rules_fired"] == 5
    assert stats["messages_injected"] == 3
