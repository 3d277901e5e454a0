"""Rules φ = (n, γ, λ, α) (Section V-E).

A rule binds one or more control-plane connections ``n``, the capability
set ``γ`` the attacker claims for it, a conditional ``λ``, and an ordered
action list ``α``.  Validation enforces the two containments the attack
model demands: every capability the rule actually *uses* must be inside
its claimed ``γ``, and ``γ`` must be inside the attacker model's
``Γ_NC(n)`` for every bound connection.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.lang.actions import AttackAction, GoToState
from repro.core.lang.conditionals import Condition, EvalContext, condition_message_types
from repro.core.model.capabilities import Capability
from repro.core.model.threat import AttackModel, CapabilityViolation

ConnectionKey = Tuple[str, str]


class RuleValidationError(Exception):
    """Raised when a rule is internally inconsistent."""


class Rule:
    """One attack rule φ_i = (n_i, γ_i, λ_i, α_i)."""

    def __init__(
        self,
        name: str,
        connections: Union[ConnectionKey, Iterable[ConnectionKey]],
        gamma: Iterable[Capability],
        conditional: Condition,
        actions: Sequence[AttackAction],
    ) -> None:
        self.name = name
        self.connections = self._normalize_connections(connections)
        self.gamma: FrozenSet[Capability] = frozenset(gamma)
        self.conditional = conditional
        self.actions: List[AttackAction] = list(actions)
        self._compiled_conditional: Optional[Callable[[EvalContext], bool]] = None
        if not self.connections:
            raise RuleValidationError(f"rule {name!r} binds no connections")
        if not self.actions:
            raise RuleValidationError(f"rule {name!r} has no actions")
        self._check_gamma_covers_usage()

    @staticmethod
    def _normalize_connections(
        connections: Union[ConnectionKey, Iterable[ConnectionKey]]
    ) -> FrozenSet[ConnectionKey]:
        if (
            isinstance(connections, tuple)
            and len(connections) == 2
            and all(isinstance(part, str) for part in connections)
        ):
            return frozenset({connections})
        return frozenset(tuple(connection) for connection in connections)

    # ------------------------------------------------------------------ #
    # Capability accounting
    # ------------------------------------------------------------------ #

    def required_capabilities(self) -> FrozenSet[Capability]:
        """Capabilities the rule uses: conditional reads + action actuations."""
        caps = set(self.conditional.required_capabilities())
        for action in self.actions:
            caps |= action.required_capabilities()
        return frozenset(caps)

    def _check_gamma_covers_usage(self) -> None:
        missing = self.required_capabilities() - self.gamma
        if missing:
            names = ", ".join(sorted(c.value for c in missing))
            raise RuleValidationError(
                f"rule {self.name!r} uses capabilities outside its declared γ: {names}"
            )

    def validate_against(self, attack_model: AttackModel) -> None:
        """Check γ ⊆ Γ_NC(n) for every bound connection (Section IV-C)."""
        for connection in sorted(self.connections):
            granted = attack_model.gamma(connection)
            missing = self.gamma - granted
            if missing:
                raise CapabilityViolation(connection, missing, f"rule {self.name!r}")

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #

    def binds(self, connection: ConnectionKey) -> bool:
        return tuple(connection) in self.connections

    def compiled_conditional(self) -> Callable[[EvalContext], bool]:
        """The λ lowered to a closure, compiled once and cached (the
        executor calls this at attack-load time)."""
        compiled = self._compiled_conditional
        if compiled is None:
            compiled = self._compiled_conditional = self.conditional.compile()
        return compiled

    def message_types(self) -> Optional[FrozenSet[str]]:
        """Message TYPE names this rule can possibly fire on (None = any)."""
        return condition_message_types(self.conditional)

    def goto_targets(self) -> FrozenSet[str]:
        """Names of states this rule's GOTOSTATE actions can reach."""
        return frozenset(
            action.state_name for action in self.actions if isinstance(action, GoToState)
        )

    def __repr__(self) -> str:
        return (
            f"<Rule {self.name!r} connections={sorted(self.connections)} "
            f"actions={len(self.actions)}>"
        )
