"""The ATTAIN runtime injector (Section VI)."""

from repro.core.injector.distributed import CoordinationMode, DistributedInjection
from repro.core.injector.executor import AttackExecutor, ExecutorObserver
from repro.core.injector.proxy import ConnectionProxy, ProxyPort
from repro.core.injector.runtime import RuntimeInjector

__all__ = [
    "AttackExecutor",
    "ConnectionProxy",
    "CoordinationMode",
    "DistributedInjection",
    "ExecutorObserver",
    "ProxyPort",
    "RuntimeInjector",
]
