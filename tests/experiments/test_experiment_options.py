"""Coverage for experiment-driver options and injector introspection."""

import pytest

from repro.attacks import flow_mod_suppression_attack
from repro.controllers import FloodlightController
from repro.core import AttackModel, RuntimeInjector, SystemModel
from repro.core.monitors import ControlPlaneMonitor
from repro.dataplane import FailMode, Network
from repro.experiments import run_interruption_experiment
from repro.sim import SimulationEngine


def test_interruption_time_scale_compresses_runtime():
    """A 0.5 time scale still reproduces the fail-secure outcome while the
    simulation finishes earlier (the liveness constants dominate)."""
    result = run_interruption_experiment("floodlight", FailMode.SECURE,
                                         time_scale=0.5)
    assert result.interruption_happened
    assert result.denial_of_service


def test_interruption_unattacked_baseline_row():
    result = run_interruption_experiment("pox", FailMode.STANDALONE,
                                         attacked=False)
    assert not result.attacked
    assert not result.interruption_happened
    # Normal operation: the firewall holds and nothing breaks.
    assert not result.external_to_internal_t50
    assert result.internal_to_external_t95


class _Verdicts:
    """Counts the messages whose executor verdict is ``dropped``."""

    def __init__(self) -> None:
        self.dropped = 0

    def message_interposed(self, message, outgoing, now) -> None:
        self.dropped += message.dropped

    def rule_fired(self, state, rule_name, message) -> None:
        pass

    def state_changed(self, previous, current, at) -> None:
        pass


def test_monitor_counts_the_messages_the_attack_drops(engine, small_topology):
    """The control-plane monitor's ``dropped_by_type`` counts the
    messages the executor's verdict dropped on an attacked Floodlight
    cell: here every one a FLOW_MOD."""
    network = Network(engine, small_topology)
    controller = FloodlightController(engine)
    system = SystemModel.from_topology(small_topology, ["c1"])
    model = AttackModel.no_tls_everywhere(system)
    attack = flow_mod_suppression_attack(system.connection_keys())
    injector = RuntimeInjector(engine, model, attack)
    monitor, verdicts = ControlPlaneMonitor(), _Verdicts()
    injector.add_observer(monitor)
    injector.add_observer(verdicts)
    injector.install(network, {"c1": controller})
    network.start()
    engine.run(until=5.0)
    network.host("h1").ping(network.host_ip("h2"), count=3)
    engine.run(until=15.0)
    assert monitor.dropped_by_type == {"FLOW_MOD": verdicts.dropped}
    assert verdicts.dropped > 0
    assert injector.current_state == "sigma1"
    assert "flow-mod-suppression" in repr(injector)


def test_cli_compile_validation_failure(tmp_path, capsys):
    """An attack demanding payload capabilities fails TLS validation."""
    from repro.cli import main
    from tests.test_cli import ATTACK_XML, SYSTEM_XML

    system = tmp_path / "system.xml"
    system.write_text(SYSTEM_XML)
    attack = tmp_path / "attack.xml"
    attack.write_text(ATTACK_XML)
    model = tmp_path / "model.xml"
    model.write_text(
        '<attackmodel><connection controller="c1" switch="s1" '
        'class="tls"/></attackmodel>'
    )
    with pytest.raises(Exception):
        main(["compile", "--system", str(system), "--attack", str(attack),
              "--attack-model", str(model)])


def test_controller_add_app(engine, small_topology):
    from repro.controllers import ControllerApp
    from tests.conftest import build_connected_network

    network, controller = build_connected_network(engine, small_topology)
    before = len(controller.apps)
    controller.add_app(ControllerApp())
    assert len(controller.apps) == before + 1
