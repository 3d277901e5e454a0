"""Mapping from run descriptors to experiment entry points.

Workers call :func:`execute_descriptor` inside a fresh process; each
executor takes the descriptor's axis values as keyword arguments and
returns the flat metrics dict the store records.  The table is
extensible so future harnesses (fingerprinting sweeps, dataset
generation) plug in without touching the runner.
"""

from __future__ import annotations

import inspect
import os
import time
from typing import Callable, Dict, Optional

#: Topologies the stock harnesses know how to build.
KNOWN_TOPOLOGIES = ("enterprise",)

Executor = Callable[..., Dict[str, object]]

_EXECUTORS: Dict[str, Executor] = {}


def register_executor(name: str, executor: Executor,
                      replace: bool = False) -> Executor:
    existing = _EXECUTORS.get(name)
    if existing is not None and existing is not executor and not replace:
        raise ValueError(f"executor {name!r} is already registered")
    _EXECUTORS[name] = executor
    return executor


def _ensure_builtin_executors() -> None:
    if "suppression" in _EXECUTORS:
        return
    from repro.experiments import (
        run_compliance_cell,
        run_fabric_cell,
        run_interruption_cell,
        run_suppression_cell,
        run_workload_cell,
    )

    _EXECUTORS.setdefault("suppression", run_suppression_cell)
    _EXECUTORS.setdefault("interruption", run_interruption_cell)
    _EXECUTORS.setdefault("compliance", run_compliance_cell)
    _EXECUTORS.setdefault("fabric", run_fabric_cell)
    _EXECUTORS.setdefault("workload", run_workload_cell)
    _EXECUTORS.setdefault("selfcheck", _selfcheck_cell)


def _selfcheck_cell(
    controller: str = "none",
    attack: Optional[str] = None,
    fail_mode: str = "secure",
    seed: int = 0,
    attack_params: Optional[Dict[str, object]] = None,
    attempt: int = 1,
    crash_until_attempt: int = 0,
    fail: bool = False,
    hang_s: float = 0.0,
    work_s: float = 0.0,
) -> Dict[str, object]:
    """A pool-diagnostics harness: exercises crash, error, and hang paths.

    ``crash_until_attempt=N`` hard-exits the worker (as a segfaulting
    experiment would) on attempts below N, so retry behaviour can be
    verified end to end; ``fail`` raises; ``hang_s`` sleeps past the
    per-run timeout.
    """
    del attack, attack_params
    if attempt < crash_until_attempt:
        os._exit(13)  # simulate a hard worker crash, not a Python error
    if fail:
        raise RuntimeError("selfcheck: requested failure")
    if hang_s:
        time.sleep(hang_s)
    if work_s:
        time.sleep(work_s)
    return {
        "experiment": "selfcheck",
        "controller": controller,
        "fail_mode": fail_mode,
        "seed": seed,
        "attempt": attempt,
        "pid": os.getpid(),
        "ok": True,
    }


def _accepts_trace(executor: Executor) -> bool:
    try:
        parameters = inspect.signature(executor).parameters
    except (TypeError, ValueError):
        return False
    return "trace" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def execute_descriptor(descriptor: Dict[str, object],
                       attempt: int = 1,
                       tracer=None) -> Dict[str, object]:
    """Run one descriptor dict in-process and return its metrics.

    ``tracer`` is forwarded to executors that accept a ``trace`` keyword
    (the stock suppression/interruption harnesses); executors without
    trace support simply run untraced.
    """
    _ensure_builtin_executors()
    experiment = str(descriptor.get("experiment") or "suppression")
    executor = _EXECUTORS.get(experiment)
    if executor is None:
        raise KeyError(
            f"unknown experiment {experiment!r}; registered: "
            f"{', '.join(sorted(_EXECUTORS))}"
        )
    topology = str(descriptor.get("topology") or "enterprise")
    if experiment in ("suppression", "interruption") \
            and topology not in KNOWN_TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; known: {KNOWN_TOPOLOGIES}"
        )
    kwargs = dict(descriptor.get("params") or {})
    kwargs.update(
        controller=descriptor.get("controller", "floodlight"),
        attack=descriptor.get("attack"),
        fail_mode=descriptor.get("fail_mode", "secure"),
        seed=int(descriptor.get("seed", 0)),
        attack_params=dict(descriptor.get("attack_params") or {}),
    )
    if experiment == "selfcheck":
        kwargs["attempt"] = attempt
    if experiment in ("fabric", "workload"):
        # These cells take the generated-fabric descriptor by name
        # (fat-tree-k8, leaf-spine-8x4, waxman-s64-h128, ...).
        kwargs["topology"] = topology
    if experiment == "compliance":
        # The suite has no controller/attack axes.
        kwargs = {"fail_mode": kwargs["fail_mode"], "seed": kwargs["seed"]}
    if tracer is not None and _accepts_trace(executor):
        kwargs["trace"] = tracer
    return executor(**kwargs)
