"""Run an attack on the enterprise network (Section VII-A) to a horizon.

The injector interposes every control connection in N_C; the attack's
rules bind what they bind.  Shared by the tests that check an attacker
program runs to its horizon instead of ending the run.
"""

from __future__ import annotations

from repro.core import AttackModel, RuntimeInjector
from repro.experiments import build_enterprise
from repro.obs import TraceCollector, wire_run


class ActionRecords:
    """The kind of every action record in a run's trace."""

    def __init__(self, trace: TraceCollector) -> None:
        self.trace = trace

    @property
    def kinds(self):
        return [event["record_kind"] for event in self.trace.events("record")]


def run_on_enterprise(attack, controller_kind, pings, horizon, system=None):
    """Run ``attack`` on the enterprise network with ``controller_kind``.

    Each ``(at, source, target, count)`` of ``pings`` starts a ping at
    simulated time ``at``.  The attack model is no-TLS on every
    connection of ``system`` (default: the network's own system model).
    Returns ``(setup, injector, records, ping_runs)`` at ``horizon``.
    """
    setup = build_enterprise(controller_kind=controller_kind)
    model = AttackModel.no_tls_everywhere(system or setup.system)
    injector = RuntimeInjector(setup.engine, model, attack)
    records = ActionRecords(wire_run(TraceCollector(), setup.engine,
                                     injector=injector))
    injector.install(setup.network, {"c1": setup.controller})
    setup.network.start()
    ping_runs = []
    for at, source, target, count in pings:
        setup.engine.run(until=at)
        ping_runs.append(setup.network.host(source).ping(
            setup.network.host_ip(target), count=count))
    setup.engine.run(until=horizon)
    return setup, injector, records, ping_runs


def flow_tables(setup):
    """Every switch's installed entries, by switch name."""
    return {
        name: [(entry.priority, entry.match.key, entry.idle_timeout,
                entry.hard_timeout, entry.cookie, repr(entry.actions))
               for entry in setup.network.switch(name).flow_table.entries]
        for name in sorted(setup.topology.switches)
    }
