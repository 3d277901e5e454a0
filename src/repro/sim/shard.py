"""Shared-nothing sharded execution of a partitioned simulation.

The monolithic engine runs every device of a fabric on one event heap.
For generated fabrics (hundreds of switches) this module splits the
simulation into *regions* — disjoint device groups produced by
:func:`repro.dataplane.fabrics.partition_topology` — each with its own
:class:`~repro.sim.engine.SimulationEngine` (and with it its own
:class:`~repro.sim.engine.SimContext`) and its own slice of the device
graph.  Regions exchange frames and control-plane bytes as explicit
messages at conservative epoch barriers.

Determinism contract
--------------------

The region partition is a pure function of the topology and the requested
region count; the *shard count* (how many worker processes execute the
regions) only groups regions onto execution units.  Every source of
nondeterminism is region-local:

* each region has a private engine: its event heap, its event sequence
  and every sequence its devices draw from (xids, ICMP identifiers,
  message ids, the FastFrame intern pool) live on that engine, so event
  tie-breaking never depends on what other regions did;
* cross-region messages reach the far region's heap under a canonical
  ``(arrival, MESSAGE_PRIORITY, (channel, seq))`` key that is a pure
  function of the message identity — delivery never draws the region's
  event-sequence counter, so region execution is *windowing invariant*:
  it cannot observe how the barrier grouped deliveries into epochs;
* conservative barriers: every boundary channel has latency >= the
  lookahead ``L``, and every epoch ends at least ``L`` before any message
  generated inside it can arrive — no region ever needs to roll back.

Consequently a run's results (metrics, traces) are byte-identical whether
its regions execute inline in one process or spread over any number of
pool workers.

Delivery
--------

:meth:`ShardRegion.emit` is the one entry for every cross-region message.
A message to a region in the same process that arrives *strictly after*
the current epoch's boundary is pushed straight onto that region's heap
under its canonical key: a frame as the event that calls the far
:class:`BoundaryHalf`'s receiver with the sender's frame object (no copy,
no re-parse), a control op as the far region's ``_dispatch``.  Every
other message — one for another worker's region, or one landing exactly
on the boundary — is flattened to ``bytes``, queued in the outbox and
delivered at the next barrier through :meth:`ShardRegion.deliver` and
:meth:`~repro.sim.engine.SimulationEngine.schedule_message`.

A region fires nothing later than the boundary, so a message with a later
arrival is on the far heap before the far region can pop anything that
sorts after it, whichever of the two regions runs first in the round.  An
arrival *on* the boundary is different: through the barrier it fires in
the next epoch, after everything the far region fired at that instant,
including same-instant messages with larger keys delivered at an earlier
barrier.  Pushed at once it could fire before them, and only when the
far region happens to run later in the round, so it waits.

The regions one process builds learn that they share it
(:meth:`ShardRegion.share_process`): all of them inline, a worker's own
when pooled.  A push can land in a region that already ran this round,
so :func:`run_region_epoch` reads the earliest heap head once every
region has run, and the barrier sees the same ``min(next event, pending
arrival)`` as when every message waited.

Barrier schedule
----------------

:class:`BarrierSchedule` computes epoch boundaries from global barrier
state (the earliest local event any region holds and the earliest
in-flight message arrival).  Each epoch ends at ``wake + promise``, where
*wake* is that earliest instant and the *promise* is the minimum
boundary-channel latency: when every region is quiescent until ``wake``,
no boundary channel can emit anything arriving before ``wake + promise``,
so the barrier is provably safe and sparse phases (liveness timers, ping
intervals, drain tails) collapse into far fewer rounds than a grid of
lookahead-sized epochs would need.  Windowing invariance makes the
widening invisible in results.

Pooled execution
----------------

Pooled execution (:class:`~repro.sim.pool.ShardWorkerPool`) runs the whole
barrier loop **inside** the workers (``shard_run``): every worker computes
the identical schedule from exchanged control words and ships its message
batches peer-to-peer over :class:`~repro.sim.mesh.MeshEndpoint` pipes as
single packed blobs (:mod:`repro.sim.codec`), so the coordinator's only
involvement is one task/reply per run — nothing serial remains on the
critical path.
"""

from __future__ import annotations

import itertools
import math
import struct
import time
from heapq import heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataplane.link import _Direction
from repro.netlib import fastframe
from repro.sim.codec import BatchDecoder, BatchEncoder
from repro.sim.engine import MESSAGE_PRIORITY, SimulationEngine

#: A cross-region message: (arrival_time, channel, seq, op, payload).
#: Tuples sort naturally into the deterministic delivery order.
ShardMessage = Tuple[float, str, int, str, bytes]

#: Channel-op vocabulary.
OP_FRAME = "frame"   # a data-plane frame crossing a boundary link
OP_DATA = "data"     # control-plane stream bytes
OP_OPEN = "open"     # control-plane dial
OP_CLOSE = "close"   # control-plane teardown


# --------------------------------------------------------------------- #
# Boundary plumbing
# --------------------------------------------------------------------- #

class BoundaryTx(_Direction):
    """The local transmit half of a cross-region data link.

    Reuses the stock direction's serialization timeline (busy_until,
    drop-tail queue, the arrival FIFO a transmit retires delivered
    frames from) byte for byte, but the computed arrival becomes a
    cross-region message instead of a local event.  Local and boundary
    directions therefore share one rule for removing delivered frames
    from the queue count, tie included (see :mod:`repro.dataplane.link`).
    A frame that waits for the barrier is flattened to plain ``bytes``
    and re-interned into the receiving region's FastFrame pool at
    dispatch; one pushed straight onto a region in the same process keeps
    its parse caches.  The pool only memoizes parses, so either way the
    receiver sees the same fields.
    """

    __slots__ = ("emit", "chan")

    def __init__(
        self,
        engine: SimulationEngine,
        bandwidth: float,
        latency: float,
        queue_limit: int,
        emit: Callable[[str, float, str, bytes], None],
        chan: str,
    ) -> None:
        super().__init__(engine, bandwidth, latency, queue_limit)
        self.emit = emit
        self.chan = chan
        self.deliver = self._no_local_delivery  # satisfies transmit()'s guard
        self._heap = None  # arrivals happen in the far region

    @staticmethod
    def _no_local_delivery(data: bytes) -> None:  # pragma: no cover
        raise AssertionError("boundary direction delivers remotely")

    def _ship(self, arrival: float, data: bytes) -> None:
        self.emit(self.chan, arrival, OP_FRAME, data)


class BoundaryHalf:
    """What a region's :class:`~repro.dataplane.network.Network` sees for
    a link whose far endpoint lives in another region.

    Inbound frames go straight to the attached receiver, with its port
    when it has one, as a local link's arrival event calls it.  The
    network attaches every half it asks the boundary factory for."""

    __slots__ = ("tx", "_deliver", "_port")

    def __init__(self, tx: BoundaryTx) -> None:
        self.tx = tx
        self._deliver: Optional[Callable[..., None]] = None
        self._port: Optional[int] = None

    def transmit(self, data: bytes) -> bool:
        return self.tx.transmit(data)

    def attach(self, deliver: Callable[..., None], port: Optional[int] = None) -> None:
        self._deliver = deliver
        self._port = port

    def deliver(self, data: bytes) -> None:
        if self._port is None:
            self._deliver(data)
        else:
            self._deliver(self._port, data)


class BoundaryControlChannel:
    """A duck-typed :class:`~repro.dataplane.control.ControlChannel` whose
    peer lives in another region.

    Sends become cross-region messages with arrival ``now + latency`` —
    the same timeline a local channel's ``engine.schedule`` would produce.
    The boundary latency is always >= the sharding lookahead, so these
    arrivals respect the barrier contract.
    """

    __slots__ = ("owner", "latency_s", "name", "peer", "open", "_engine", "_emit",
                 "_out_chan")

    def __init__(
        self,
        engine: SimulationEngine,
        owner,
        latency_s: float,
        name: str,
        emit: Callable[[str, float, str, bytes], None],
        out_chan: str,
    ) -> None:
        self._engine = engine
        self.owner = owner
        self.latency_s = latency_s
        self.name = name
        self.peer = None  # the far half is in another region
        self.open = True
        self._emit = emit
        self._out_chan = out_chan

    def send(self, data: bytes) -> None:
        if not self.open:
            return
        self._emit(self._out_chan, self._engine.now + self.latency_s,
                   OP_DATA, bytes(data))

    def close(self) -> None:
        if not self.open:
            return
        self.open = False
        self._emit(self._out_chan, self._engine.now + self.latency_s,
                   OP_CLOSE, b"")

    # Inbound side, invoked by the region dispatcher at the arrival time.
    def _deliver(self, data: bytes) -> None:
        if not self.open:
            return
        self.owner.bytes_received(self, data)

    def _peer_closed(self) -> None:
        if not self.open:
            return
        self.open = False
        self.owner.channel_closed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"<BoundaryControlChannel {self.name} {state}>"


# --------------------------------------------------------------------- #
# Region protocol
# --------------------------------------------------------------------- #

class ShardRegion:
    """Base for one shard-executable region of a simulation.

    Subclasses (the fabric builder in :mod:`repro.experiments.fabric`)
    populate the engine/devices; this base carries the message plumbing
    every region shares.  ``until`` is the boundary of the epoch the
    region runs (``inf`` before the first, so what a region emits while
    it is built waits for a barrier).
    """

    def __init__(self, rid: int) -> None:
        self.rid = rid
        self.engine = SimulationEngine()
        self.until = math.inf
        self.outbox: List[Tuple[int, ShardMessage]] = []
        self.cross_shard_messages = 0
        self._out_seq = itertools.count()
        #: Region id -> the other regions running in this process.
        self._colocated: Dict[int, ShardRegion] = {}
        #: chan -> BoundaryHalf for inbound boundary-link frames.
        self.link_sinks: Dict[str, BoundaryHalf] = {}
        #: chan -> BoundaryControlChannel for inbound control streams.
        self.ctrl_sinks: Dict[str, BoundaryControlChannel] = {}
        #: chan -> destination region id.
        self.chan_dest: Dict[str, int] = {}

    def share_process(self, regions: Dict[int, "ShardRegion"]) -> None:
        """``regions`` are every region this process runs, this one
        included; messages to the others may skip the barrier."""
        self._colocated = {rid: region for rid, region in regions.items()
                           if region is not self}

    # -- outbound ------------------------------------------------------ #

    def emit(self, chan: str, arrival: float, op: str, payload: bytes) -> None:
        """Send one message on ``chan``, arriving at ``arrival``: pushed
        onto the far heap or queued for the barrier (module docstring,
        "Delivery")."""
        dest = self.chan_dest[chan]
        self.cross_shard_messages += 1
        seq = next(self._out_seq)
        far = self._colocated.get(dest)
        if far is None or arrival <= self.until:
            self.outbox.append((dest, (arrival, chan, seq, op, bytes(payload))))
        elif op == OP_FRAME:
            sink = far.link_sinks[chan]
            port = sink._port
            heappush(far.engine._queue, (
                arrival, MESSAGE_PRIORITY, (chan, seq), sink._deliver,
                (payload,) if port is None else (port, payload)))
        else:
            heappush(far.engine._queue, (
                arrival, MESSAGE_PRIORITY, (chan, seq), far._dispatch,
                (chan, op, payload)))

    # -- inbound ------------------------------------------------------- #

    def deliver(self, messages: Sequence[ShardMessage]) -> None:
        """Schedule a barrier's worth of inbound messages.

        Delivery goes through ``schedule_message``: the heap key is the
        canonical ``(arrival, MESSAGE_PRIORITY, (chan, seq))`` — a pure
        function of the message, drawing nothing from the region's event
        counter.  Neither the batch order nor how the barrier windowed
        the deliveries can influence region execution, so no pre-sort is
        needed.
        """
        engine = self.engine
        dispatch = self._dispatch
        for arrival, chan, seq, op, payload in messages:
            engine.schedule_message(arrival, (chan, seq), dispatch,
                                    chan, op, payload)

    def _dispatch(self, chan: str, op: str, payload: bytes) -> None:
        if op == OP_FRAME:
            # Re-intern into this region's pool: repeated payloads (the
            # steady state of any flow) resolve to the same warm FastFrame
            # and are never parsed twice.
            frame, _ = fastframe.intern(payload, self.engine.ctx.frames)
            self.link_sinks[chan].deliver(frame)
            return
        if op == OP_OPEN:
            self.control_opened(chan)
            return
        sink = self.ctrl_sinks.get(chan)
        if sink is None:
            return  # stream raced a teardown; bytes vanish like closed TCP
        if op == OP_DATA:
            sink._deliver(payload)
        elif op == OP_CLOSE:
            sink._peer_closed()

    def control_opened(self, chan: str) -> None:
        """Hook: a far region dialled a control connection (ctrl region)."""
        raise NotImplementedError(
            f"region {self.rid} received an unexpected control dial on {chan!r}"
        )

    # -- execution ----------------------------------------------------- #

    def run_epoch(
        self,
        until: float,
        messages: Optional[Sequence[ShardMessage]] = None,
    ) -> List[Tuple[int, ShardMessage]]:
        """Deliver ``messages``, advance to ``until``, drain the outbox:
        the messages that wait for the next barrier, by destination."""
        self.until = until
        if messages:
            self.deliver(messages)
        self.engine.run(until=until)
        out = self.outbox
        self.outbox = []
        return out

    def run_until(self, until: float) -> List[Tuple[int, ShardMessage]]:
        """Advance this region's clock to ``until``; drain the outbox."""
        return self.run_epoch(until)

    def collect(self) -> Dict[str, Any]:
        """Region results; ``counts`` are summed across regions."""
        return {"counts": {
            "processed_events": self.engine.processed_events,
            "cross_shard_messages": self.cross_shard_messages,
        }}


# --------------------------------------------------------------------- #
# Barrier schedule
# --------------------------------------------------------------------- #

class BarrierSchedule:
    """Deterministic epoch-boundary calculator.

    A pure function of the global barrier state fed to :meth:`advance`
    (earliest pending local event, earliest in-flight arrival), so the
    inline coordinator and every SPMD worker compute the identical
    boundary sequence independently.

    Each epoch ends at ``wake + promise`` (clamped to the horizon): since
    no region fires an event before ``wake``, no boundary channel can emit
    a message arriving before ``wake + promise``, which keeps the
    no-rollback guarantee while widening epochs well past the grid slot
    of the lookahead ``L`` that covers ``wake`` whenever regions are
    quiescent.  ``epochs_widened`` counts the epochs that end beyond that
    slot; ``epochs_skipped`` the grid slots jumped over.

    A message can arrive *exactly on* an epoch boundary (latency equal to
    the promise).  It is delivered at the next barrier and its dispatch
    event fires at its arrival time with the canonical message key, after
    every local event of that instant — the identical order a grid of
    ``L``-sized epochs produces — so widening never changes results.  The
    one edge case is an arrival landing exactly on the horizon:
    :meth:`advance` answers with a *drain round* (another epoch at the
    horizon) instead of terminating, so the delivery is never dropped.
    """

    __slots__ = ("lookahead", "horizon", "promise",
                 "epochs", "epochs_skipped", "epochs_widened",
                 "_k", "_until")

    def __init__(
        self,
        lookahead: float,
        horizon: float,
        promise: Optional[float] = None,
    ) -> None:
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead!r}")
        self.lookahead = float(lookahead)
        self.horizon = float(horizon)
        # The promise may never undercut the lookahead (boundary channels
        # all have latency >= L); math.inf means "no boundary channels at
        # all" and lets the schedule jump straight to the horizon.
        if promise is None:
            self.promise = self.lookahead
        else:
            self.promise = max(float(promise), self.lookahead)
        self.epochs = 0
        self.epochs_skipped = 0
        self.epochs_widened = 0
        self._k = 0
        self._until = min(self.lookahead, self.horizon)

    @property
    def until(self) -> float:
        """The boundary of the epoch to run next."""
        return self._until

    def advance(
        self,
        next_time: Optional[float],
        pending_arrival: Optional[float],
    ) -> bool:
        """Account the epoch just run; compute the next boundary.

        ``next_time`` is the earliest local event still pending in any
        region; ``pending_arrival`` the earliest arrival among messages
        exchanged this epoch (delivered at the next barrier).  Returns
        False when the simulation is complete.
        """
        self.epochs += 1
        horizon = self.horizon
        if self._until >= horizon:
            # Drain round: an exchange can still land a delivery exactly
            # on the horizon (see class docstring); run one more epoch at
            # the horizon so it fires.  Otherwise we are done.
            return pending_arrival is not None and pending_arrival <= horizon
        wake = next_time
        if pending_arrival is not None and (wake is None or pending_arrival < wake):
            wake = pending_arrival
        lookahead = self.lookahead
        if wake is None:
            # Globally idle with nothing in flight: jump to the end so
            # every clock lands on the horizon.
            k_next = max(self._k + 1, int(horizon / lookahead))
            self.epochs_skipped += max(0, k_next - self._k - 1)
            self._k = k_next
            self._until = min((k_next + 1) * lookahead, horizon)
            return True
        promise = self.promise
        target = horizon if math.isinf(promise) else min(horizon, wake + promise)
        if target <= self._until:  # pragma: no cover - defensive clamp
            target = min(horizon, self._until + lookahead)
        grid_k = max(self._k + 1, -int(-wake / lookahead) - 1)
        grid_until = min((grid_k + 1) * lookahead, horizon)
        if target > grid_until:
            self.epochs_widened += 1
        k_next = max(grid_k, -int(-target / lookahead) - 1)
        self.epochs_skipped += max(0, k_next - self._k - 1)
        self._k = k_next
        self._until = target
        return True

    def counters(self) -> Dict[str, int]:
        return {
            "epochs": self.epochs,
            "epochs_skipped": self.epochs_skipped,
            "epochs_widened": self.epochs_widened,
        }


# --------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------- #

def _build_regions(
    config: Dict[str, Any], rids: Sequence[int], plan: Any = None,
) -> Dict[int, ShardRegion]:
    """The regions one process runs, each told which others share it."""
    # The builder lives with the experiment (it knows about controllers,
    # workloads, fabrics); imported lazily to keep the sim layer free of
    # upward dependencies at import time.
    from repro.experiments.fabric import build_fabric_regions

    regions = {region.rid: region
               for region in build_fabric_regions(config, rids, plan)}
    for region in regions.values():
        region.share_process(regions)
    return regions


#: SPMD control word exchanged alongside each batch blob: the sender's
#: earliest pending local event time and earliest outbound arrival
#: (``inf`` encodes "none").
_CONTROL = struct.Struct("<dd")


def _pack_optional(value: Optional[float]) -> float:
    return math.inf if value is None else value


def _unpack_optional(value: float) -> Optional[float]:
    return None if math.isinf(value) else value


class ShardWorkerSession:
    """Per-process state behind the pool's ``shard_*`` tasks.

    Lives inside a :mod:`repro.sim.pool` worker.  ``shard_init`` builds
    this worker's regions; ``shard_run`` executes the **entire** barrier
    loop SPMD-style (batches travel peer-to-peer over the pipe mesh, every
    worker derives the identical epoch schedule from exchanged control
    words, and the coordinator sees exactly one reply per run);
    ``shard_collect`` returns results.
    """

    def __init__(self, index: int, mesh_matrix=None) -> None:
        self.regions: Dict[int, ShardRegion] = {}
        self.cpu_s = 0.0
        self._index = index
        self._owner: Dict[int, int] = {}
        self._mesh = None
        if mesh_matrix is not None:
            from repro.sim.mesh import MeshEndpoint

            self._mesh = MeshEndpoint(index, mesh_matrix)

    def handle(self, task: Dict[str, Any]) -> Dict[str, Any]:
        op = task["op"]
        started = time.process_time()
        if op == "shard_init":
            self.regions = _build_regions(task["config"], task["rids"])
            self._owner = {
                rid: worker
                for worker, rids in enumerate(task["assignment"])
                for rid in rids
            }
            reply = {"status": "ok", "rids": sorted(self.regions)}
        elif op == "shard_run":
            reply = self._spmd_run(task)
        elif op == "shard_collect":
            results = {rid: region.collect()
                       for rid, region in sorted(self.regions.items())}
            reply = {"status": "ok", "regions": results}
        else:
            raise ValueError(f"unknown shard op {op!r}")
        self.cpu_s += time.process_time() - started
        reply["cpu_s"] = self.cpu_s
        return reply

    # -- SPMD barrier loop --------------------------------------------- #

    def _spmd_run(self, task: Dict[str, Any]) -> Dict[str, Any]:
        """Run every barrier of the simulation without coordinator turns.

        Each round: run this worker's regions to the current boundary,
        group the outbox by owning worker, send one control word plus one
        batch blob to every peer, fold the peers' control words into the
        global barrier state, and advance the shared schedule.  All
        workers see the same control information, so all compute the same
        boundary sequence — lock-step without a conductor.
        """
        schedule = BarrierSchedule(
            task["lookahead"], task["horizon"], promise=task.get("promise"))
        mesh = self._mesh
        peers = mesh.peers if mesh is not None else []
        encoders = {peer: BatchEncoder() for peer in peers}
        decoders = {peer: BatchDecoder() for peer in peers}
        inbox: Dict[int, List[ShardMessage]] = {}
        exchange_bytes = 0
        exchange_blobs = 0
        while True:
            outbox, next_time = run_region_epoch(
                self.regions, schedule.until, inbox)
            inbox = {}
            grouped: Dict[int, Dict[int, List[ShardMessage]]] = {
                peer: {} for peer in peers}
            min_arrival: Optional[float] = None
            for dest, message in outbox:
                owner = self._owner.get(dest, self._index)
                target = inbox if owner == self._index else grouped[owner]
                target.setdefault(dest, []).append(message)
                if min_arrival is None or message[0] < min_arrival:
                    min_arrival = message[0]
            control = _CONTROL.pack(
                _pack_optional(next_time), _pack_optional(min_arrival))
            for peer in peers:
                batch = grouped[peer]
                blob = encoders[peer].encode(batch)
                mesh.send(peer, control + blob)
                exchange_bytes += _CONTROL.size + len(blob)
                if batch:
                    exchange_blobs += 1
            agg_next = next_time
            agg_arrival = min_arrival
            for peer in peers:
                frame = mesh.recv(peer)
                peer_next, peer_arrival = _CONTROL.unpack_from(frame, 0)
                batch = decoders[peer].decode(frame[_CONTROL.size:])
                for rid, messages in batch.items():
                    inbox.setdefault(rid, []).extend(messages)
                peer_next = _unpack_optional(peer_next)
                peer_arrival = _unpack_optional(peer_arrival)
                if peer_next is not None and (
                        agg_next is None or peer_next < agg_next):
                    agg_next = peer_next
                if peer_arrival is not None and (
                        agg_arrival is None or peer_arrival < agg_arrival):
                    agg_arrival = peer_arrival
            if mesh is not None:
                mesh.flush_all()
            if not schedule.advance(agg_next, agg_arrival):
                break
        reply = {"status": "ok", "exchange_bytes": exchange_bytes,
                 "exchange_blobs": exchange_blobs}
        reply.update(schedule.counters())
        return reply


def run_region_epoch(
    regions: Dict[int, ShardRegion],
    until: float,
    inbox: Dict[int, List[ShardMessage]],
) -> Tuple[List[Tuple[int, ShardMessage]], Optional[float]]:
    """Deliver one barrier's messages and run every region to ``until``.

    Returns the messages that wait for the next barrier and the earliest
    event any region then holds, read once all of them have run: a
    region that ran early in the round may since have received a push.
    """
    outbox: List[Tuple[int, ShardMessage]] = []
    for rid in sorted(regions):
        outbox.extend(regions[rid].run_epoch(until, inbox.get(rid)))
    heads = [head for head in (region.engine.next_event_time()
                               for region in regions.values())
             if head is not None]
    return outbox, min(heads, default=None)


def assign_regions(
    region_ids: Sequence[int],
    weights: Dict[int, int],
    shards: int,
) -> List[List[int]]:
    """Pack regions onto ``shards`` workers, heaviest first (LPT).

    Purely an execution-grouping decision: any assignment produces the
    same simulation results.
    """
    shards = max(1, min(shards, len(region_ids)))
    bins: List[List[int]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for rid in sorted(region_ids, key=lambda r: (-weights.get(r, 1), r)):
        target = min(range(shards), key=lambda b: (loads[b], b))
        bins[target].append(rid)
        loads[target] += weights.get(rid, 1)
    return [sorted(b) for b in bins]


class ShardedSimulation:
    """The conservative barrier coordinator.

    ``shards <= 1`` executes every region inline (no IPC); ``shards > 1``
    spreads regions over a :class:`~repro.sim.pool.ShardWorkerPool` of
    forked workers, which run the whole barrier loop SPMD among
    themselves.  ``plan``, when the caller already derived it from
    ``config``, builds the inline run's regions; pooled workers derive
    their own from the config they receive.
    """

    def __init__(
        self,
        config: Dict[str, Any],
        region_ids: Sequence[int],
        weights: Dict[int, int],
        lookahead: float,
        horizon: float,
        shards: int = 1,
        promise: Optional[float] = None,
        plan: Any = None,
    ) -> None:
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead!r}")
        self.config = config
        self.region_ids = list(region_ids)
        self.weights = dict(weights)
        self.lookahead = float(lookahead)
        self.horizon = float(horizon)
        self.shards = max(1, int(shards))
        self.promise = promise
        self.plan = plan

    def run(self) -> Dict[str, Any]:
        wall_started = time.perf_counter()
        cpu_started = time.process_time()
        if self.shards <= 1:
            payload = self._run_inline()
        else:
            payload = self._run_pooled()
        payload["wall_s"] = time.perf_counter() - wall_started
        payload["coordinator_cpu_s"] = time.process_time() - cpu_started
        payload["shards"] = self.shards
        payload["regions_count"] = len(self.region_ids)
        return payload

    # -- inline -------------------------------------------------------- #

    def _run_inline(self) -> Dict[str, Any]:
        """Every region in this process: the workers' barrier loop with
        no peers."""
        session = ShardWorkerSession(0)
        session.regions = _build_regions(self.config, self.region_ids, self.plan)
        counters = _schedule_counters([session._spmd_run({
            "lookahead": self.lookahead, "horizon": self.horizon,
            "promise": self.promise})])
        results = {rid: region.collect()
                   for rid, region in sorted(session.regions.items())}
        return {**counters, "regions": results, "worker_cpu_s": []}

    # -- pooled -------------------------------------------------------- #

    def _run_pooled(self) -> Dict[str, Any]:
        from repro.sim.pool import ShardWorkerPool

        assignment = assign_regions(self.region_ids, self.weights, self.shards)
        pool = ShardWorkerPool(len(assignment))
        try:
            pool.init(self.config, assignment)
            # One task per worker; the barrier loop runs inside the pool.
            counters = _schedule_counters(
                pool.run_barrier(self.lookahead, self.horizon, self.promise))
            collected = pool.collect()
            results: Dict[int, Dict[str, Any]] = {}
            worker_cpu = []
            for reply in collected:
                results.update(reply["regions"])
                worker_cpu.append(reply["cpu_s"])
            return {
                **counters,
                "regions": dict(sorted(results.items())),
                "worker_cpu_s": worker_cpu,
                "assignment": assignment,
            }
        finally:
            pool.shutdown()


def _schedule_counters(replies: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The run's schedule and exchange counts from the barrier loop's
    replies, one per process."""
    epochs = {reply["epochs"] for reply in replies}
    if len(epochs) != 1:  # pragma: no cover - protocol invariant
        raise RuntimeError(
            f"shard workers disagreed on the epoch count: {sorted(epochs)}"
        )
    first = replies[0]
    counters = {name: first[name]
                for name in ("epochs", "epochs_skipped", "epochs_widened")}
    for name in ("exchange_bytes", "exchange_blobs"):
        counters[name] = sum(reply[name] for reply in replies)
    return counters
