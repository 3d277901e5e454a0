"""ATTAIN's core: attack model, attack language, compiler, injector, monitors.

This package is the paper's primary contribution:

* :mod:`repro.core.model` — the system / threat / attacker-capabilities
  models of Section IV;
* :mod:`repro.core.lang` — the attack language of Section V (message
  properties, conditionals, storage deques, actions, rules, attack states,
  and the attack state graph);
* :mod:`repro.core.compiler` — the Section VI-B1 compiler: XML parsers for
  the system model, attack model, and attack states files, plus the
  executable-code generator;
* :mod:`repro.core.injector` — the Section VI-B2 runtime injector: the
  control-plane connection proxy and the attack executor (Algorithm 1),
  whose message-modifier step is each action's ``apply``;
* :mod:`repro.core.monitors` — the Section VI-B3 monitors.
"""

from repro.core.lang import (
    Attack,
    AttackState,
    AttackStateGraph,
    Rule,
)
from repro.core.model import (
    AttackModel,
    Capability,
    CapabilityMap,
    ControlConnection,
    SystemModel,
    gamma_all,
    gamma_no_tls,
    gamma_tls,
)
from repro.core.injector import RuntimeInjector

__all__ = [
    "Attack",
    "AttackModel",
    "AttackState",
    "AttackStateGraph",
    "Capability",
    "CapabilityMap",
    "ControlConnection",
    "Rule",
    "RuntimeInjector",
    "SystemModel",
    "gamma_all",
    "gamma_no_tls",
    "gamma_tls",
]
