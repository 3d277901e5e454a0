"""Per-layer spans recorded from outside the program.

:class:`Instrumentation` wraps each layer's public boundary functions
(:data:`BOUNDARIES`) with a timing shim before the run builds its
topology, so bound methods captured at build time are the shims too.
Module-level functions are also rebound in every ``repro`` module that
imported them by name (``from repro.netlib.packet import decode_ethernet``).

A span's *self* time is its duration minus the time of instrumented spans
nested inside it; a layer's self time is the sum over its boundaries, so
layer self times add up to the traced wall time minus whatever ran outside
every span.  Nothing under ``src/`` is changed: the shims only observe,
which the traced run proves by reproducing the untraced record digest.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

@dataclass(frozen=True)
class Boundary:
    layer: str
    module: str
    target: str          # "function" or "Class.method"
    #: What the shim records besides calls: ``time`` (self time),
    #: ``count`` (calls only, for hot constructors), ``hits`` (self time
    #: and calls that returned something), ``sum`` (self time and the sum
    #: of integer results).
    tally: str = "time"


_NETLIB_CODECS = (
    ("repro.netlib.ethernet", "EthernetFrame"),
    ("repro.netlib.ipv4", "Ipv4Packet"),
    ("repro.netlib.tcp", "TcpSegment"),
    ("repro.netlib.udp", "UdpDatagram"),
)

BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("sim.engine", "repro.sim.engine", "SimulationEngine.run", "sum"),
    Boundary("sim.shard", "repro.sim.shard", "ShardRegion.run_until"),
    Boundary("sim.shard", "repro.sim.shard", "ShardRegion.run_epoch"),
    Boundary("sim.shard", "repro.sim.shard", "ShardRegion.deliver"),
    Boundary("dataplane.link", "repro.dataplane.link", "DataLink.send_from_a"),
    Boundary("dataplane.link", "repro.dataplane.link", "DataLink.send_from_b"),
    Boundary("dataplane.switch", "repro.dataplane.switch",
             "OpenFlowSwitch.frame_received"),
    Boundary("dataplane.switch", "repro.dataplane.switch",
             "OpenFlowSwitch.bytes_received"),
    Boundary("dataplane.flowtable", "repro.dataplane.flowtable",
             "FlowTable.lookup", "hits"),
    Boundary("dataplane.flowtable", "repro.dataplane.flowtable",
             "FlowTable.apply_flow_mod"),
    Boundary("dataplane.flowtable", "repro.dataplane.flowtable", "FlowTable.expire"),
    Boundary("dataplane.host", "repro.dataplane.host", "Host.frame_received"),
    Boundary("dataplane.host", "repro.dataplane.host", "Host.send_ip"),
    Boundary("netlib", "repro.netlib.packet", "decode_ethernet"),
    # The switch's per-hop parse: intern the frame, then the memoized
    # flow key, which parses through extract_flow_base on a cache miss.
    Boundary("netlib", "repro.netlib.fastframe", "intern"),
    Boundary("netlib", "repro.netlib.fastframe", "flow_key"),
    Boundary("netlib", "repro.netlib.flowkey", "extract_flow_key"),
    Boundary("netlib", "repro.netlib.flowkey", "extract_flow_base"),
    *(Boundary("netlib", module, f"{cls}.{op}")
      for module, cls in _NETLIB_CODECS for op in ("pack", "unpack")),
    Boundary("netlib", "repro.netlib.addresses", "MacAddress.__init__", "count"),
    Boundary("netlib", "repro.netlib.addresses", "Ipv4Address.__init__", "count"),
    Boundary("openflow", "repro.openflow.messages", "parse_message"),
    Boundary("openflow", "repro.openflow.messages", "OpenFlowMessage.pack"),
    Boundary("core.injector", "repro.core.injector.proxy",
             "ConnectionProxy.bytes_received"),
    Boundary("core.injector", "repro.core.injector.executor",
             "AttackExecutor.handle_message"),
    Boundary("core.injector", "repro.core.injector.runtime", "RuntimeInjector.submit"),
    Boundary("controllers", "repro.controllers.base", "Controller.bytes_received"),
    Boundary("defense", "repro.defense.tap", "SketchTap.on_frame"),
    Boundary("defense", "repro.defense.tap", "SketchTap.on_packet_in"),
    Boundary("workloads", "repro.workloads.frames", "FrameTemplate.emit"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))

#: Per-boundary counters: [calls, self_ns, tally].
Stat = List[int]


def _shim(fn: Callable, stat: Stat, stack: List[int], tally: str) -> Callable:
    if tally == "count":
        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return counted

    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        stack.append(0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            nested = stack.pop()
            stack[-1] += elapsed
            stat[0] += 1
            stat[1] += elapsed - nested
        if tally == "hits":
            if result is not None:
                stat[2] += 1
        elif tally == "sum":
            stat[2] += result
        return result
    return timed


def _repro_modules() -> List[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


class Instrumentation:
    """Install shims on :data:`BOUNDARIES`; undo them exactly."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {b.target: [0, 0, 0] for b in BOUNDARIES}
        self._stack: List[int] = [0]
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            stat = self.stats[boundary.target]
            if "." not in boundary.target:
                self._install_function(module, boundary, stat)
                continue
            cls_name, attr = boundary.target.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                shim = type(raw)(_shim(raw.__func__, stat, self._stack, boundary.tally))
            else:
                shim = _shim(raw, stat, self._stack, boundary.tally)
            self._set(owner, attr, raw, shim)

    def _install_function(self, module: Any, boundary: Boundary, stat: Stat) -> None:
        raw = getattr(module, boundary.target)
        shim = _shim(raw, stat, self._stack, boundary.tally)
        for other in _repro_modules():
            for name, value in list(vars(other).items()):
                if value is raw:
                    self._set(other, name, raw, shim)

    def _set(self, owner: Any, attr: str, raw: Any, shim: Any) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, shim)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attr, original)`` for every attribute currently shimmed."""
        return list(self._undo)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# --------------------------------------------------------------------- #
# Layer metrics
# --------------------------------------------------------------------- #

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_us", "us_per_msg")):
        return "us"
    if metric.endswith((".share", "_ratio", "_per_hop", ".coverage", ".overhead")):
        return "ratio"
    return "count"


def layer_metrics(
    stats: Dict[str, Stat],
    traced_wall_s: float,
    overhead: float,
    record: Dict[str, Any],
) -> Dict[str, float]:
    """Per-layer metric values from the span stats and record of one
    traced run; ``overhead`` is its time over the untraced runs' median,
    and ``sim.shard`` barrier counters come from the record."""
    def calls(*targets: str) -> int:
        return sum(stats[t][0] for t in targets)

    def self_s(*targets: str) -> float:
        return sum(stats[t][1] for t in targets) / 1e9

    layer_self = {layer: self_s(*(b.target for b in BOUNDARIES if b.layer == layer))
                  for layer in LAYERS}
    hops = calls("OpenFlowSwitch.frame_received")
    events = stats["SimulationEngine.run"][2]
    lookups = calls("FlowTable.lookup")
    addr_objs = calls("MacAddress.__init__", "Ipv4Address.__init__")
    injector_msgs = calls("ConnectionProxy.bytes_received")

    metrics = {
        "sim.engine.events": events,
        "sim.engine.events_per_hop": _ratio(events, hops),
        "sim.shard.epochs": record.get("epochs", 0),
        "sim.shard.epochs_widened": record.get("epochs_widened", 0),
        "sim.shard.cross_msgs": record.get("cross_shard_messages", 0),
        "dataplane.link.calls": calls("DataLink.send_from_a", "DataLink.send_from_b"),
        "dataplane.switch.hops": hops,
        "dataplane.flowtable.lookups": lookups,
        "dataplane.flowtable.lookup_self_s": self_s("FlowTable.lookup"),
        "dataplane.flowtable.lookup_us": _ratio(self_s("FlowTable.lookup") * 1e6, lookups),
        "dataplane.flowtable.hit_ratio": _ratio(stats["FlowTable.lookup"][2], lookups),
        "dataplane.flowtable.mods": calls("FlowTable.apply_flow_mod"),
        "dataplane.flowtable.mod_self_s": self_s("FlowTable.apply_flow_mod"),
        "dataplane.flowtable.expire_self_s": self_s("FlowTable.expire"),
        "dataplane.host.calls": calls("Host.frame_received", "Host.send_ip"),
        "netlib.decodes": calls("decode_ethernet", "extract_flow_base"),
        "netlib.addr_objs": addr_objs,
        "netlib.addr_objs_per_hop": _ratio(addr_objs, hops),
        "openflow.parsed": calls("parse_message"),
        "openflow.packed": calls("OpenFlowMessage.pack"),
        "core.injector.msgs": injector_msgs,
        "core.injector.us_per_msg": _ratio(layer_self["core.injector"] * 1e6, injector_msgs),
        "controllers.calls": calls("Controller.bytes_received"),
        "defense.calls": calls("SketchTap.on_frame", "SketchTap.on_packet_in"),
        "workloads.frames": calls("FrameTemplate.emit"),
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.share"] = _ratio(seconds, traced_wall_s)
    metrics["trace.coverage"] = _ratio(sum(layer_self.values()), traced_wall_s)
    metrics["trace.overhead"] = overhead
    return metrics
