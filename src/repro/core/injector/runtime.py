"""The runtime injector: orchestration of proxies, executor, and monitors.

The paper's deployment (Section VI-C): all control-plane connections are
proxied "through a single-threaded, centralized runtime injector instance",
imposing a total order on interposed messages.  Here that total order is
the simulation engine's deterministic event order, and the single executor
instance holds the one global state σ and storage Δ.

For each frame the proxy asks :meth:`RuntimeInjector.passes` whether a
rule of the current state could fire on it.  When none can, Algorithm 1's
output is the message itself: the proxy forwards the frame and hands it
to the observers' ``message_passed`` hooks, and no message object is
built.  Every other message goes through :meth:`RuntimeInjector.submit`
to the executor, and its observers see it through ``message_interposed``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.dataplane.control import ControlEndpoint, connect_endpoints
from repro.dataplane.network import Network
from repro.core.injector.executor import AttackExecutor
from repro.core.injector.proxy import ConnectionProxy, ProxyPort
from repro.core.lang.actions import OutgoingMessage
from repro.core.lang.attack import Attack
from repro.core.lang.properties import Direction, InterposedMessage
from repro.core.model.threat import AttackModel
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SeededRng

ConnectionKey = Tuple[str, str]


class RuntimeInjector:
    """The centralized ATTAIN runtime injector."""

    DEFAULT_CONTROL_LATENCY = 0.00025

    def __init__(
        self,
        engine: SimulationEngine,
        attack_model: AttackModel,
        attack: Optional[Attack] = None,
        rng: Optional[SeededRng] = None,
        name: str = "injector",
    ) -> None:
        self.engine = engine
        self.attack_model = attack_model
        self.name = name
        self.rng = rng or SeededRng(0)
        self.executor: Optional[AttackExecutor] = None
        if attack is not None:
            attack.validate_against(attack_model)
            self.executor = AttackExecutor(attack, engine, rng=self.rng)
        self._controller_endpoints: Dict[ConnectionKey, ControlEndpoint] = {}
        self._latency: Dict[ConnectionKey, float] = {}
        self._ports: Dict[ConnectionKey, ProxyPort] = {}
        self.active_proxies: Dict[ConnectionKey, ConnectionProxy] = {}
        self._observers: List = []
        #: The observers' ``message_interposed`` hooks, bound once.
        self._interposed_hooks: List[Callable] = []
        #: The observers' ``message_passed`` hooks, bound once; the proxy
        #: calls them for each message it forwards without the executor.
        self.passed_hooks: List[Callable] = []
        self.tracer = None
        self.stats: Dict[str, int] = {
            "messages_deferred": 0,
            "proxies_created": 0,
        }

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def port_for(
        self,
        connection: ConnectionKey,
        controller_endpoint: ControlEndpoint,
        latency_s: float = DEFAULT_CONTROL_LATENCY,
    ) -> ProxyPort:
        """Create (or fetch) the proxy listen port for one connection."""
        connection = tuple(connection)
        if connection not in set(self.attack_model.system.connection_keys()):
            raise KeyError(f"connection {connection} is not in the system model's N_C")
        self._controller_endpoints[connection] = controller_endpoint
        self._latency[connection] = latency_s
        if connection not in self._ports:
            self._ports[connection] = ProxyPort(self, connection)
        return self._ports[connection]

    def install(
        self,
        network: Network,
        controllers: Dict[str, ControlEndpoint],
        latency_s: float = DEFAULT_CONTROL_LATENCY,
    ) -> None:
        """Interpose every N_C connection of ``network``.

        ``controllers`` maps system-model controller names to live
        controller endpoints.  Each switch is re-pointed at its proxy port
        — the paper's "point to the proxy as the SDN controller" step.
        """
        wired = set()
        for connection in self.attack_model.system.connection_keys():
            controller_name, switch_name = connection
            endpoint = controllers.get(controller_name)
            if endpoint is None:
                raise KeyError(f"no live endpoint for controller {controller_name!r}")
            port = self.port_for(connection, endpoint, latency_s)
            if switch_name in wired:
                # N_C is many-to-many: further controllers become
                # additional (redundant) connections on the same switch.
                network.add_controller_target(switch_name, port, latency_s,
                                              target_name=controller_name)
            else:
                network.set_controller_target(switch_name, port, latency_s)
                wired.add(switch_name)

    def add_observer(self, observer) -> None:
        """Register a monitor for executor and message events."""
        self._observers.append(observer)
        hook = getattr(observer, "message_interposed", None)
        if hook is not None:
            self._interposed_hooks.append(hook)
        hook = getattr(observer, "message_passed", None)
        if hook is not None:
            self.passed_hooks.append(hook)
        if self.executor is not None:
            self.executor.add_observer(observer)

    def set_syscmd_router(self, router: Callable[[str, str], None]) -> None:
        if self.executor is not None:
            self.executor.set_syscmd_router(router)

    def set_tracer(self, tracer) -> None:
        """Attach a trace collector to the executor and the proxies
        (each proxy reads ``tracer`` here for every chunk)."""
        self.tracer = tracer
        if self.executor is not None:
            self.executor.set_tracer(tracer)

    # ------------------------------------------------------------------ #
    # Proxy lifecycle (called by ProxyPort / ConnectionProxy)
    # ------------------------------------------------------------------ #

    def create_proxy(self, connection: ConnectionKey) -> ConnectionProxy:
        old = self.active_proxies.get(tuple(connection))
        if old is not None and not old.closed:
            old.close()
        proxy = ConnectionProxy(self, connection)
        self.active_proxies[tuple(connection)] = proxy
        self.stats["proxies_created"] += 1
        return proxy

    def dial_controller(self, proxy: ConnectionProxy) -> None:
        endpoint = self._controller_endpoints[proxy.connection]
        latency = self._latency[proxy.connection]
        chan_proxy, _chan_ctl = connect_endpoints(
            self.engine,
            proxy,
            endpoint,
            latency_s=latency,
            name=f"proxy-{proxy.connection[1]}-to-{proxy.connection[0]}",
        )
        proxy.controller_channel = chan_proxy

    def proxy_closed(self, proxy: ConnectionProxy) -> None:
        if self.active_proxies.get(proxy.connection) is proxy:
            del self.active_proxies[proxy.connection]

    # ------------------------------------------------------------------ #
    # Message path
    # ------------------------------------------------------------------ #

    def passes(self, connection: ConnectionKey, type_name: Optional[str]) -> bool:
        """True when the proxy forwards a message of ``type_name`` on
        ``connection`` as its frame: there is no executor, or it is awake
        and no rule of its current state can fire on the message.  Asked
        for each frame, so a GOTOSTATE or SLEEP that one frame fires
        governs the next."""
        executor = self.executor
        if executor is None:
            return True
        if self.engine.now < executor.sleep_until:
            return False  # submit defers it, in order
        return executor.passes(connection, type_name)

    def submit(self, proxy: ConnectionProxy, message: InterposedMessage) -> None:
        """Run one interposed message through the attack executor.

        SLEEP actions hold up state execution: messages arriving during a
        sleep are deferred (in order) until it elapses.
        """
        executor = self.executor
        if executor is not None and self.engine.now < executor.sleep_until:
            self.stats["messages_deferred"] += 1
            self.engine.schedule_at(executor.sleep_until, self._process, proxy, message)
            return
        self._interpose(proxy, message)

    def _process(self, proxy: ConnectionProxy, message: InterposedMessage) -> None:
        """Run a deferred message once its SLEEP has elapsed."""
        executor = self.executor
        if self.engine.now < executor.sleep_until:
            # A SLEEP landed while this message waited; defer again.
            self.engine.schedule_at(executor.sleep_until, self._process, proxy, message)
            return
        self._interpose(proxy, message)

    def _interpose(self, proxy: ConnectionProxy, message: InterposedMessage) -> None:
        executor = self.executor
        outgoing = ([OutgoingMessage(message)] if executor is None
                    else executor.handle_message(message))
        self.notify_interposed(message, outgoing)
        if outgoing:
            proxy.deliver(outgoing)

    def notify_interposed(self, message: InterposedMessage,
                          outgoing: List[OutgoingMessage]) -> None:
        """Hand every observer the message and its outgoing list."""
        if self._interposed_hooks:
            now = self.engine.now
            for hook in self._interposed_hooks:
                hook(message, outgoing, now)

    def route(self, proxy: ConnectionProxy, entry: OutgoingMessage):
        """Pick the output channel for an outgoing message whose metadata
        a MODIFYMESSAGEMETADATA action rewrote (the proxy routes every
        other message by its direction).

        A new destination that names a device with an active interposed
        connection redirects the message; otherwise its direction decides.
        """
        message = entry.message
        override = message.metadata_overrides.get("destination")
        if override and override != message.natural_destination:
            redirected = self._channel_for_destination(override, message.direction)
            if redirected is not None:
                return redirected
        return proxy.channel_for(message.direction)

    def _channel_for_destination(self, destination: str, direction: Direction):
        for connection, proxy in self.active_proxies.items():
            controller, switch = connection
            if direction is Direction.TO_SWITCH and switch == destination:
                return proxy.channel_for(Direction.TO_SWITCH)
            if direction is Direction.TO_CONTROLLER and controller == destination:
                return proxy.channel_for(Direction.TO_CONTROLLER)
        return None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def current_state(self) -> Optional[str]:
        return self.executor.current_state_name if self.executor else None

    def __repr__(self) -> str:
        attack = self.executor.attack.name if self.executor else "pass-through"
        return f"<RuntimeInjector {attack} proxies={len(self.active_proxies)}>"
