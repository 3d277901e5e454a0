"""Distributed runtime injection (the Section VIII-C discussion).

"The runtime injector, as described, inherently imposes a total ordering
of control plane events because of its centralized nature.  In the case of
a distributed runtime injector architecture, total ordering could be
imposed through distributed systems techniques.  However, a guarantee of
total ordering may come at the cost of increased latency ..."

This module makes that trade-off measurable.  A
:class:`DistributedInjection` cluster runs one injector *instance* per
administrative slice of N_C, in one of two coordination modes:

* ``TOTAL_ORDER`` — every interposed message is shipped to a central
  coordinator (paying ``coordination_latency`` each way), which runs the
  single authoritative executor.  Semantics identical to the centralized
  injector; control-plane latency grows by two coordination hops per
  message.
* ``OPTIMISTIC`` — each instance runs a local executor replica and
  processes messages immediately; state transitions are broadcast to the
  other replicas with ``coordination_latency`` delay.  Latency stays flat,
  but replicas can evaluate messages against a *stale* attack state — the
  cluster counts those divergences (``stale_decisions``), and each replica
  keeps private storage Δ, so cross-connection deque attacks lose global
  consistency exactly as the paper warns.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.core.injector.executor import AttackExecutor
from repro.core.injector.runtime import RuntimeInjector
from repro.core.lang.attack import Attack
from repro.core.lang.properties import InterposedMessage
from repro.core.model.threat import AttackModel
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRng

ConnectionKey = Tuple[str, str]


class CoordinationMode(enum.Enum):
    TOTAL_ORDER = "total-order"
    OPTIMISTIC = "optimistic"


class _InstanceInjector(RuntimeInjector):
    """One distributed injector instance; defers execution to the cluster."""

    def __init__(self, cluster: "DistributedInjection", name: str,
                 engine: SimulationEngine, attack_model: AttackModel) -> None:
        super().__init__(engine, attack_model, attack=None, name=name)
        self.cluster = cluster
        self.local_executor: Optional[AttackExecutor] = None

    def passes(self, connection, type_name) -> bool:
        # The cluster orders and delays every message: none skips it.
        return False

    def submit(self, proxy, message: InterposedMessage) -> None:
        self.cluster.route_message(self, proxy, message)


class DistributedInjection:
    """A cluster of injector instances sharing one attack."""

    def __init__(
        self,
        engine: SimulationEngine,
        attack_model: AttackModel,
        attack: Attack,
        instance_names: List[str],
        coordination_latency: float = 0.005,
        mode: CoordinationMode = CoordinationMode.TOTAL_ORDER,
        rng: Optional[SeededRng] = None,
    ) -> None:
        if not instance_names:
            raise ValueError("a cluster needs at least one instance")
        attack.validate_against(attack_model)
        self.engine = engine
        self.attack_model = attack_model
        self.attack = attack
        self.mode = mode
        self.coordination_latency = coordination_latency
        self.rng = rng or SeededRng(0)

        self.instances: Dict[str, _InstanceInjector] = {}
        for name in instance_names:
            self.instances[name] = _InstanceInjector(self, name, engine, attack_model)

        #: authoritative transition log: ordered (time, new_state)
        self.transition_log: List[Tuple[float, str]] = [(0.0, attack.start)]
        self.stats = {
            "messages_coordinated": 0,
            "stale_decisions": 0,
            "broadcasts": 0,
        }

        if mode is CoordinationMode.TOTAL_ORDER:
            self._executor = AttackExecutor(attack, engine,
                                            rng=self.rng.child("coordinator"))
            self._executor.add_observer(_TransitionRecorder(self))
        else:
            self._executor = None
            for index, instance in enumerate(self.instances.values()):
                replica = AttackExecutor(
                    attack, engine, rng=self.rng.child(f"replica-{index}")
                )
                replica.add_observer(_ReplicaBroadcaster(self, instance))
                instance.local_executor = replica

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def instance(self, name: str) -> _InstanceInjector:
        return self.instances[name]

    def install_slices(self, network, controllers,
                       assignment: Dict[str, List[ConnectionKey]],
                       latency_s: float = RuntimeInjector.DEFAULT_CONTROL_LATENCY) -> None:
        """Point each connection at its assigned instance's proxy port."""
        for instance_name, connections in assignment.items():
            instance = self.instances[instance_name]
            for connection in connections:
                controller_name, switch_name = connection
                endpoint = controllers[controller_name]
                port = instance.port_for(connection, endpoint, latency_s)
                network.set_controller_target(switch_name, port, latency_s)

    # ------------------------------------------------------------------ #
    # Message routing
    # ------------------------------------------------------------------ #

    def route_message(self, instance: _InstanceInjector, proxy,
                      message: InterposedMessage) -> None:
        if self.mode is CoordinationMode.TOTAL_ORDER:
            # Ship to the coordinator, execute there, ship the result back.
            self.engine.schedule(
                self.coordination_latency, self._coordinate, instance, proxy, message
            )
        else:
            self._process_optimistically(instance, proxy, message)

    def _coordinate(self, instance: _InstanceInjector, proxy,
                    message: InterposedMessage) -> None:
        assert self._executor is not None
        if self._executor.sleeping(self.engine.now):
            self.engine.schedule_at(
                self._executor.sleep_until, self._coordinate, instance, proxy, message
            )
            return
        self.stats["messages_coordinated"] += 1
        outgoing = self._executor.handle_message(message)
        instance.notify_interposed(message, outgoing)
        self.engine.schedule(self.coordination_latency, proxy.deliver, outgoing)

    def _process_optimistically(self, instance: _InstanceInjector, proxy,
                                message: InterposedMessage) -> None:
        replica = instance.local_executor
        assert replica is not None
        authoritative = self.authoritative_state(self.engine.now)
        if replica.current_state_name != authoritative:
            # The replica is acting on a state the global order has already
            # left (or not yet reached): the Section VIII-C consistency risk.
            self.stats["stale_decisions"] += 1
        outgoing = replica.handle_message(message)
        instance.notify_interposed(message, outgoing)
        proxy.deliver(outgoing)

    # ------------------------------------------------------------------ #
    # State propagation
    # ------------------------------------------------------------------ #

    def record_transition(self, new_state: str) -> None:
        self.transition_log.append((self.engine.now, new_state))

    def broadcast_transition(self, origin: _InstanceInjector, new_state: str) -> None:
        """OPTIMISTIC mode: propagate a replica's transition to its peers."""
        self.record_transition(new_state)
        for instance in self.instances.values():
            if instance is origin:
                continue
            self.stats["broadcasts"] += 1
            self.engine.schedule(
                self.coordination_latency, self._apply_remote, instance, new_state
            )

    @staticmethod
    def _apply_remote(instance: _InstanceInjector, new_state: str) -> None:
        replica = instance.local_executor
        if replica is not None and new_state in replica.attack.states:
            if replica.current_state_name != new_state:
                replica.current_state_name = new_state

    def authoritative_state(self, at: float) -> str:
        """The state the single-injector total order prescribes at ``at``."""
        current = self.transition_log[0][1]
        for time, state in self.transition_log:
            if time <= at:
                current = state
            else:
                break
        return current

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def current_state(self) -> str:
        if self._executor is not None:
            return self._executor.current_state_name
        return self.transition_log[-1][1]

    def replica_states(self) -> Dict[str, str]:
        return {
            name: (instance.local_executor.current_state_name
                   if instance.local_executor else self.current_state)
            for name, instance in self.instances.items()
        }

    def __repr__(self) -> str:
        return (
            f"<DistributedInjection {self.mode.value} "
            f"instances={sorted(self.instances)} state={self.current_state!r}>"
        )


class _TransitionRecorder:
    """Observer feeding the coordinator's transition log."""

    def __init__(self, cluster: DistributedInjection) -> None:
        self.cluster = cluster

    def rule_fired(self, state, rule_name, message) -> None:
        pass

    def state_changed(self, previous, current, at) -> None:
        self.cluster.record_transition(current)


class _ReplicaBroadcaster:
    """Observer broadcasting a replica's transitions to its peers."""

    def __init__(self, cluster: DistributedInjection,
                 instance: _InstanceInjector) -> None:
        self.cluster = cluster
        self.instance = instance

    def rule_fired(self, state, rule_name, message) -> None:
        pass

    def state_changed(self, previous, current, at) -> None:
        self.cluster.broadcast_transition(self.instance, current)
