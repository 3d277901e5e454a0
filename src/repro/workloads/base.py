"""Traffic-source interface, registry, and the batch-tick driver.

A *traffic source* turns ``(topology, seed, params)`` into a set of
:class:`HostEmitter` streams — one per sending host — as a **pure
function**: building the same source twice (or in two different shard
worker processes) yields per-host streams that are byte-identical.
Per-host randomness comes from ``SeededRng(seed).child("workload/<source>/
<host>")``, so a host's stream never depends on which other hosts exist
in the same region.

Emission is batched: the driver wakes every ``tick_s`` of sim-time, asks
the emitter's :class:`~repro.workloads.schedule.RateSchedule` how many
packets the elapsed window owes (``count_between``), and injects exactly
that many frames through :meth:`Host.inject_frame`.  One engine event
per tick instead of one per packet is what lets a source sustain tens of
thousands of packets per sim-second without the event heap dominating;
tick boundaries are computed as ``start + k * tick`` (never accumulated),
so sharded and inline runs fire them at identical sim-times.

Registry: :func:`register_source` / :func:`build_source` /
:func:`list_sources`, mirroring the attack registry in
``repro.attacks.library``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.workloads.schedule import RateSchedule, parse_schedule

#: Default batch-tick width.  5 ms keeps burst edges sharp at the
#: schedule level while costing only 200 events per sim-second per host.
DEFAULT_TICK_S = 0.005


class HostEmitter:
    """One host's deterministic packet stream.

    ``next_frame`` is a stateful zero-argument callable returning the
    next frame's bytes; calling it ``n`` times yields the same ``n``
    frames for the same build inputs, which is the determinism contract
    the workload tests pin.
    """

    __slots__ = ("host", "schedule", "next_frame", "start_s", "duration_s",
                 "emitted")

    def __init__(
        self,
        host: str,
        schedule: RateSchedule,
        next_frame: Callable[[], bytes],
        start_s: float = 0.0,
        duration_s: float = 1.0,
    ) -> None:
        self.host = host
        self.schedule = schedule
        self.next_frame = next_frame
        self.start_s = float(start_s)
        self.duration_s = float(duration_s)
        self.emitted = 0


class TrafficSource:
    """A built workload: a named set of emitters over one topology."""

    def __init__(self, name: str, emitters: List[HostEmitter]) -> None:
        self.name = name
        self.emitters = list(emitters)

    def __repr__(self) -> str:
        return f"<TrafficSource {self.name} emitters={len(self.emitters)}>"


class EmitterDriver:
    """Drives one emitter on one engine with batched ticks."""

    __slots__ = ("engine", "host", "emitter", "tick_s")

    def __init__(self, engine, host, emitter: HostEmitter,
                 tick_s: float = DEFAULT_TICK_S) -> None:
        if tick_s <= 0:
            raise ValueError(f"tick width must be positive, got {tick_s!r}")
        self.engine = engine
        self.host = host
        self.emitter = emitter
        self.tick_s = float(tick_s)

    def start(self) -> None:
        self.engine.schedule_at(self.emitter.start_s + self._end(0),
                                self._tick, 0)

    def _end(self, k: int) -> float:
        return min((k + 1) * self.tick_s, self.emitter.duration_s)

    def _tick(self, k: int) -> None:
        emitter = self.emitter
        t1 = self._end(k)
        count = emitter.schedule.count_between(k * self.tick_s, t1)
        inject = self.host.inject_frame
        next_frame = emitter.next_frame
        for _ in range(count):
            inject(next_frame())
        emitter.emitted += count
        if t1 < emitter.duration_s:
            self.engine.schedule_at(emitter.start_s + self._end(k + 1),
                                    self._tick, k + 1)


def drive_source(engine, hosts: Dict[str, Any], source: TrafficSource,
                 tick_s: float = DEFAULT_TICK_S) -> List[EmitterDriver]:
    """Attach and start drivers for every emitter whose host is local.

    ``hosts`` maps host name to the live :class:`Host` — a shard region
    passes only the hosts it owns, so each stream runs on exactly one
    engine no matter how the fabric is partitioned.
    """
    drivers = []
    for emitter in source.emitters:
        host = hosts.get(emitter.host)
        if host is None:
            continue
        driver = EmitterDriver(engine, host, emitter, tick_s)
        driver.start()
        drivers.append(driver)
    return drivers


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

class SourceInfo:
    __slots__ = ("name", "builder", "description", "needs_controller",
                 "adversarial")

    def __init__(self, name: str, builder, description: str,
                 needs_controller: bool, adversarial: bool) -> None:
        self.name = name
        self.builder = builder
        self.description = description
        self.needs_controller = needs_controller
        self.adversarial = adversarial


_SOURCES: Dict[str, SourceInfo] = {}


def register_source(name: str, *, description: str = "",
                    needs_controller: bool = False,
                    adversarial: bool = False):
    """Decorator: register ``builder(topology, seed, params) ->
    TrafficSource`` under ``name``.

    ``adversarial`` marks attack traffic: the defense plane uses the
    source's ``start_s``/``duration_s`` as detection ground truth, while
    benign sources label every window inactive.
    """

    def decorate(builder):
        if name in _SOURCES:
            raise ValueError(f"traffic source {name!r} already registered")
        _SOURCES[name] = SourceInfo(name, builder, description,
                                    needs_controller, adversarial)
        return builder

    return decorate


def _ensure_builtin_sources() -> None:
    import repro.workloads.sources  # noqa: F401  (registers on import)


def source_names() -> List[str]:
    _ensure_builtin_sources()
    return sorted(_SOURCES)


def source_info(name: str) -> SourceInfo:
    _ensure_builtin_sources()
    try:
        return _SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown traffic source {name!r}; available: {sorted(_SOURCES)}"
        ) from None


def list_sources() -> List[Dict[str, Any]]:
    _ensure_builtin_sources()
    return [
        {
            "name": info.name,
            "description": info.description,
            "needs_controller": info.needs_controller,
            "adversarial": info.adversarial,
        }
        for _, info in sorted(_SOURCES.items())
    ]


def build_source(name: str, topology, seed: int,
                 params: Optional[Dict[str, Any]] = None) -> TrafficSource:
    """Build a registered source.  Pure: same inputs, same streams."""
    info = source_info(name)
    return info.builder(topology, int(seed), dict(params or {}))


def schedule_param(params: Dict[str, Any], default: str) -> RateSchedule:
    """The conventional ``schedule`` parameter, parsed."""
    return parse_schedule(params.get("schedule", default))
