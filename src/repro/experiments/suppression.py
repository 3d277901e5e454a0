"""The flow-modification-suppression experiment (Section VII-B, Fig. 11).

Timeline (paper values; scaled variants supported for fast test runs):

* t = 0 s: controller initialized (everything boots at simulation start);
* t = 5 s: attack injector initialized to state σ1;
* t = 30 s: ``ping`` h1 -> h6, 60 one-second trials (Fig. 11b latency);
* t = 95 s: iperf server on h6, then 30 ten-second client trials from h1
  with ten-second gaps (Fig. 11a throughput).

Metrics: per-trial throughput, ping RTT statistics and loss, and the
control-plane message counts that quantify the PACKET_IN amplification.
A run with ``attacked=False`` produces the baseline series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.attacks import build_attack, flow_mod_suppression_attack
from repro.core import RuntimeInjector
from repro.core.model import AttackModel
from repro.core.monitors import ControlPlaneMonitor, IperfMonitor, PingMonitor
from repro.dataplane import FailMode
from repro.experiments.enterprise import build_enterprise
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRng


@dataclass
class SuppressionResult:
    """Everything the Fig. 11 plots and the E5 overhead table need."""

    controller: str
    attacked: bool
    ping_sent: int
    ping_received: int
    ping_loss_rate: float
    median_rtt_s: Optional[float]
    avg_rtt_s: Optional[float]
    throughputs_mbps: List[float] = field(default_factory=list)
    mean_throughput_mbps: float = 0.0
    iperf_connect_failures: int = 0
    packet_ins: int = 0
    flow_mods_seen: int = 0
    flow_mods_dropped: int = 0
    total_control_messages: int = 0
    attack: Optional[str] = None
    seed: int = 0
    fail_mode: str = FailMode.SECURE.value
    sim_duration_s: float = 0.0

    @property
    def denial_of_service(self) -> bool:
        """The Fig. 11 asterisk: zero throughput and infinite latency."""
        return self.ping_received == 0 and self.mean_throughput_mbps == 0.0

    def row(self) -> Dict[str, object]:
        return {
            "controller": self.controller,
            "attacked": self.attacked,
            "throughput_mbps": round(self.mean_throughput_mbps, 2),
            "median_rtt_ms": (
                round(self.median_rtt_s * 1000, 3) if self.median_rtt_s else None
            ),
            "ping_loss": round(self.ping_loss_rate, 3),
            "packet_ins": self.packet_ins,
            "flow_mods_dropped": self.flow_mods_dropped,
            "dos": self.denial_of_service,
        }

    def record(self) -> Dict[str, object]:
        """The campaign ResultStore metrics payload for this run."""
        return {
            "experiment": "suppression",
            "controller": self.controller,
            "attack": self.attack,
            "attacked": self.attacked,
            "fail_mode": self.fail_mode,
            "seed": self.seed,
            "throughput_mbps": round(self.mean_throughput_mbps, 4),
            "throughputs_mbps": [round(t, 4) for t in self.throughputs_mbps],
            "median_rtt_ms": (
                round(self.median_rtt_s * 1000, 4)
                if self.median_rtt_s is not None else None
            ),
            "avg_rtt_ms": (
                round(self.avg_rtt_s * 1000, 4)
                if self.avg_rtt_s is not None else None
            ),
            "ping_loss": round(self.ping_loss_rate, 4),
            "packet_ins": self.packet_ins,
            "flow_mods_seen": self.flow_mods_seen,
            "flow_mods_dropped": self.flow_mods_dropped,
            "total_control_messages": self.total_control_messages,
            "denial_of_service": self.denial_of_service,
            "unauthorized_access": False,
            "sim_duration_s": round(self.sim_duration_s, 6),
        }


def run_suppression_experiment(
    controller_kind: str,
    attacked: bool,
    ping_trials: int = 60,
    iperf_trials: int = 30,
    iperf_duration_s: float = 10.0,
    iperf_gap_s: float = 10.0,
    warmup_s: float = 30.0,
    source: str = "h1",
    target: str = "h6",
    behavior_override=None,
    seed: int = 0,
    attack_name: Optional[str] = None,
    attack_params: Optional[Dict[str, object]] = None,
    fail_mode: FailMode = FailMode.SECURE,
    trace=None,
) -> SuppressionResult:
    """Run one (controller, attacked?) cell of the Fig. 11 matrix.

    Use smaller ``ping_trials``/``iperf_trials``/``iperf_duration_s`` for
    quick runs; the defaults reproduce the paper's timing.

    ``seed`` roots every random stream the run draws from, so two runs
    with the same arguments are bit-identical and two seeds are
    independent.  ``attack_name`` swaps the interposed attack for any
    registry entry (``repro.attacks.list_attacks()``) bound to all
    control-plane connections; the default keeps the paper's pairing of
    ``attacked`` with Fig. 10's flow-mod suppression.  Both trial counts
    must be at least 1.
    """
    for name, trials in (("ping_trials", ping_trials), ("iperf_trials", iperf_trials)):
        if trials < 1:
            raise ValueError(f"{name} must be at least 1, got {trials!r}")
    engine = SimulationEngine()
    setup = build_enterprise(
        engine,
        controller_kind=controller_kind,
        fail_mode=fail_mode,
        with_firewall=False,  # the paper runs plain learning switches here
        behavior_override=behavior_override,
    )
    attack_model = AttackModel.no_tls_everywhere(setup.system)
    if attack_name is not None:
        attack = build_attack(
            attack_name,
            connections=setup.system.connection_keys(),
            **(attack_params or {}),
        )
    elif attacked:
        attack = flow_mod_suppression_attack(setup.system.connection_keys())
    else:
        attack = None
    injector = RuntimeInjector(engine, attack_model, attack,
                               rng=SeededRng(seed))
    control_monitor = ControlPlaneMonitor()
    injector.add_observer(control_monitor)
    injector.install(setup.network, {"c1": setup.controller})
    setup.network.start()

    ping_monitor = PingMonitor()
    iperf_monitor = IperfMonitor()
    if trace is not None:
        from repro.obs import wire_run

        wire_run(trace, engine, injector=injector,
                 switches=setup.network.switches.values(),
                 monitors=(ping_monitor, iperf_monitor))
    source_host = setup.network.host(source)
    target_host = setup.network.host(target)

    # t = warmup: the ping series (one 1 s trial per ping).
    engine.schedule_at(
        warmup_s,
        ping_monitor.start_series,
        source_host,
        target_host.ip,
        ping_trials,
    )
    # After the pings: iperf trials with gaps.
    iperf_start = warmup_s + ping_trials * 1.0 + 5.0
    for trial in range(iperf_trials):
        engine.schedule_at(
            iperf_start + trial * (iperf_duration_s + iperf_gap_s),
            iperf_monitor.start_trial,
            source_host,
            target_host,
            iperf_duration_s,
        )
    horizon = iperf_start + iperf_trials * (iperf_duration_s + iperf_gap_s) + 30.0
    engine.run(until=horizon)

    ping_result = ping_monitor.results[0] if ping_monitor.results else None
    attack_label = attack_name if attack_name is not None else (
        "flow-mod-suppression" if attacked else None
    )
    return SuppressionResult(
        controller=controller_kind,
        attacked=attack is not None and attack.name != "passthrough",
        ping_sent=ping_result.sent if ping_result else 0,
        ping_received=ping_result.received if ping_result else 0,
        ping_loss_rate=ping_result.loss_rate if ping_result else 1.0,
        median_rtt_s=ping_result.median_rtt if ping_result else None,
        avg_rtt_s=ping_result.avg_rtt if ping_result else None,
        throughputs_mbps=iperf_monitor.throughputs_mbps(),
        mean_throughput_mbps=iperf_monitor.mean_throughput_mbps() or 0.0,
        iperf_connect_failures=iperf_monitor.connect_failures(),
        packet_ins=control_monitor.count_of("PACKET_IN"),
        flow_mods_seen=control_monitor.count_of("FLOW_MOD"),
        flow_mods_dropped=control_monitor.dropped_by_type.get("FLOW_MOD", 0),
        total_control_messages=control_monitor.total_messages(),
        attack=attack_label,
        seed=seed,
        fail_mode=fail_mode.value,
        sim_duration_s=engine.now,
    )


def run_cell(
    controller: str = "floodlight",
    attack: Optional[str] = "flow-mod-suppression",
    fail_mode: str = FailMode.SECURE.value,
    seed: int = 0,
    attack_params: Optional[Dict[str, object]] = None,
    trace=None,
    **params,
) -> Dict[str, object]:
    """Campaign entry point: one suppression-harness run -> metrics dict.

    ``attack`` is a registry name (``None`` means no injector attack at
    all); remaining keyword arguments are forwarded to
    :func:`run_suppression_experiment` (``ping_trials`` etc.).
    """
    result = run_suppression_experiment(
        controller,
        attacked=attack is not None,
        seed=seed,
        attack_name=attack,
        attack_params=attack_params,
        fail_mode=FailMode(fail_mode),
        trace=trace,
        **params,
    )
    return result.record()
