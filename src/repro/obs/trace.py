"""The trace collector: a ring buffer of sim-time-stamped typed events.

ATTAIN's §VI monitors aggregate counters; what they cannot answer is
*which* message triggered *which* rule in *which* state — the forensic
record the paper's Fig. 12 / Table II analysis walks through by hand.
:class:`TraceCollector` is that record: every instrumented layer (proxy
interception, executor rule evaluation, attack-state transitions, deque
Δ operations, switch flow-table changes, monitor samples) emits one
typed event per occurrence, stamped with the simulation clock, into a
bounded ring buffer.

Zero overhead when disabled: instrumented hot paths hold a ``tracer``
attribute that is ``None`` by default, and every site guards its emit
with a single ``if tracer is not None`` — one attribute load and an
identity check, nothing else.  The fast-lane benchmarks
(``benchmarks/test_fastpath.py``) pin this down.

Determinism: events carry only simulation-derived data (sim time, the
per-run sequence number, message ids, xids), never wall-clock time or
process identity, so the same seed and the same cell produce a
byte-identical JSONL export — the property the campaign resume/debug
workflow depends on (``tests/obs/test_trace_determinism.py``).

Event schema (one JSON object per line, sorted keys)::

    {"seq": 17, "t": 50.00132, "kind": "rule_fired", ...payload}

Kinds emitted by the stock instrumentation:

=================  ====================================================
``message``        proxy interception: connection, direction, type, xid
``message_drop``   the executor removed the original from the out list
``rule_eval``      one conditional evaluated (fired true/false)
``rule_fired``     a rule fired: state, rule, and the message's identity
``action``         a capability actuation (non-GOTOSTATE action applied)
``state``          a GOTOSTATE transition: from, to
``deque``          a Δ operation: deque name, op, size after
``flow_install``   a FLOW_MOD changed a switch's flow table
``flow_evict``     a flow entry left the table (idle/hard/delete)
``monitor``        one monitor sample (ping, iperf or capture record)
=================  ====================================================
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: Default ring capacity — enough for a full paper-scale experiment
#: (~200k events) while bounding memory on runaway workloads.
DEFAULT_CAPACITY = 262_144


def event_to_json(event: Dict[str, Any]) -> str:
    """Canonical JSONL encoding: sorted keys, non-JSON values stringified."""
    return json.dumps(event, sort_keys=True, default=str,
                      separators=(",", ":"))


class TraceCollector:
    """Bounded, sim-time-stamped event sink shared by every layer.

    ``clock`` supplies the timestamp for events whose site has no better
    notion of time (deque ops, proxy interception); sites that know the
    event's own time (monitor samples) pass ``t=`` explicitly.  Bind the
    clock to the run's engine with :meth:`bind_clock` before wiring.
    """

    __slots__ = ("capacity", "clock", "events_total", "counts", "_ring",
                 "_seq")

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self.clock = clock or (lambda: 0.0)
        self.events_total = 0
        self.counts: Dict[str, int] = {}
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._seq = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the collector at a run's simulation clock."""
        self.clock = clock

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #

    def emit(self, kind: str, t: Optional[float] = None, **data: Any) -> None:
        """Record one event (ring-buffered: oldest events fall off)."""
        self._seq += 1
        event: Dict[str, Any] = dict(data)
        event["seq"] = self._seq
        event["t"] = round(self.clock() if t is None else t, 9)
        event["kind"] = kind
        self.events_total += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._ring.append(event)

    def extend(self, events: Iterable[Dict[str, Any]]) -> None:
        """Append events emitted elsewhere (a fabric run's merged
        regions), keeping their ``seq`` and ``t``."""
        counts, ring = self.counts, self._ring
        for event in events:
            self.events_total += 1
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
            ring.append(event)

    # ------------------------------------------------------------------ #
    # Reading / export
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def events_dropped(self) -> int:
        """Events that fell off the ring (buffer overwrote the oldest)."""
        return self.events_total - len(self._ring)

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event["kind"] == kind]

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def jsonl_lines(self) -> Iterator[str]:
        """The retained events as canonical JSONL lines (no newlines)."""
        for event in self._ring:
            yield event_to_json(event)

    def to_jsonl(self) -> str:
        """The full export: one event per line, trailing newline."""
        lines = list(self.jsonl_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    def dump_jsonl(self, path) -> int:
        """Write the export to ``path``; returns the event count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.counts.clear()
        self.events_total = 0
        self._seq = 0

    def __repr__(self) -> str:
        return (f"<TraceCollector events={len(self._ring)}"
                f" total={self.events_total} kinds={len(self.counts)}>")


def load_events(path) -> List[Dict[str, Any]]:
    """Read a trace JSONL file back into event dicts (torn lines skipped)."""
    events: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed writer
            if isinstance(event, dict):
                events.append(event)
    return events


def wire_run(
    tracer: Optional[TraceCollector],
    engine,
    injector=None,
    switches: Iterable = (),
    monitors: Iterable = (),
) -> Optional[TraceCollector]:
    """Attach one collector to every instrumented layer of a run.

    Accepts ``tracer=None`` so callers can wire unconditionally —
    ``wire_run(trace, engine, ...)`` is a no-op when tracing is off.
    """
    if tracer is None:
        return None
    tracer.bind_clock(lambda: engine.now)
    if injector is not None:
        injector.set_tracer(tracer)
    for switch in switches:
        switch.tracer = tracer
    for monitor in monitors:
        monitor.tracer = tracer
    return tracer
