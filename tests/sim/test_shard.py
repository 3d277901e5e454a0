"""Sharded-execution machinery: isolation, boundaries, packing, barriers."""

import pytest

from repro.dataplane.link import DataLink
from repro.netlib.fastframe import FastFrame
from repro.sim.engine import SimulationEngine
from repro.sim.shard import (
    OP_FRAME,
    BoundaryHalf,
    BoundaryTx,
    ShardRegion,
    assign_regions,
    run_region_epoch,
)


# --------------------------------------------------------------------- #
# Region isolation
# --------------------------------------------------------------------- #

def test_regions_draw_from_their_own_engine_sequences():
    busy, idle = ShardRegion(0), ShardRegion(1)
    for _ in range(5):
        busy.engine.schedule(1.0, lambda: None)
        busy.engine.ctx.next_xid()
        next(busy.engine.ctx.msg_ids)
    # However far one region has advanced, the other starts at the top.
    assert busy.engine.ctx is not idle.engine.ctx
    idle.engine.schedule(1.0, lambda: None)
    assert idle.engine.step()[2] == 0  # the first seq of its own counter
    assert idle.engine.ctx.next_xid() == 1
    assert next(idle.engine.ctx.msg_ids) == 1
    assert idle.engine.ctx.frames == {}


# --------------------------------------------------------------------- #
# Boundary link direction
# --------------------------------------------------------------------- #

def _region_with_boundary():
    region = ShardRegion(0)
    tx = BoundaryTx(region.engine, 1e9, 0.001, 10, region.emit, "link:000000:a")
    region.chan_dest["link:000000:a"] = 1
    return region, tx


def test_boundary_tx_emits_instead_of_delivering():
    region, tx = _region_with_boundary()
    assert tx.transmit(b"x" * 100)
    region.engine.run(until=0.01)
    assert len(region.outbox) == 1
    dest, (arrival, chan, seq, op, payload) = region.outbox[0]
    assert dest == 1
    assert chan == "link:000000:a"
    assert op == OP_FRAME
    assert payload == b"x" * 100
    # serialization (100 B at 1 Gb/s) + propagation latency
    assert arrival == pytest.approx(100 * 8 / 1e9 + 0.001)
    assert region.cross_shard_messages == 1


def test_boundary_tx_drops_like_a_local_link_when_backlogged():
    """A boundary direction and a local link direction with the same
    bandwidth, latency and queue limit accept and drop the same frames,
    and the boundary emits each accepted frame for the instant the local
    link delivers it: bursts past the limit, sends while earlier frames
    are in flight, and sends after the link has gone idle."""
    bandwidth, latency, limit = 1e6, 0.0005, 4
    # (time, frames): 100-byte frames serialize in 0.8 ms each.
    schedule = [(0.0, 6), (0.0011, 3), (0.0031, 2), (0.0047, 5),
                (0.05, 7), (0.0509, 2), (0.0527, 4)]

    def run(send, direction, engine):
        accepted = []
        for when, frames in schedule:
            engine.schedule_at(when, lambda n=frames: accepted.extend(
                send(b"z" * 100) for _ in range(n)))
        engine.run()
        return accepted, direction.dropped_frames

    region, _ = _region_with_boundary()
    tx = BoundaryTx(region.engine, bandwidth, latency, limit, region.emit,
                    "link:000000:a")
    boundary = run(tx.transmit, tx, region.engine)

    engine = SimulationEngine()
    link = DataLink(engine, bandwidth, latency, queue_limit=limit)
    delivered = []
    link.attach_b(lambda data: delivered.append(engine.now))
    local = run(link.send_from_a, link._a_to_b, engine)

    assert boundary == local
    accepted, dropped = boundary
    assert dropped == accepted.count(False) > 0
    assert [message[0] for _, message in region.outbox] == delivered
    assert len(delivered) == accepted.count(True)


def test_boundary_half_routes_inbound_to_attached_receiver():
    region, tx = _region_with_boundary()
    half = BoundaryHalf(tx)
    received = []
    half.attach(received.append)
    half.deliver(b"frame")
    assert received == [b"frame"]


def test_region_delivers_sorted_messages_to_sinks():
    region, tx = _region_with_boundary()
    half = BoundaryHalf(tx)
    region.link_sinks["link:000001:b"] = half
    received = []
    half.attach(received.append)
    # Deliberately unsorted batch: delivery must re-sort by (t, chan, seq).
    region.deliver([
        (0.004, "link:000001:b", 1, OP_FRAME, b"late"),
        (0.002, "link:000001:b", 0, OP_FRAME, b"early"),
    ])
    region.engine.run(until=0.01)
    assert received == [b"early", b"late"]
    assert region.engine.processed_events == 2


# --------------------------------------------------------------------- #
# Region -> shard packing
# --------------------------------------------------------------------- #

def test_assign_regions_is_lpt_by_weight():
    assignment = assign_regions(
        [0, 1, 2, 3], weights={0: 10, 1: 1, 2: 1, 3: 1}, shards=2
    )
    # The heavy region gets its own shard; the rest pack together.
    assert assignment == [[0], [1, 2, 3]]


def test_assign_regions_never_exceeds_region_count():
    assignment = assign_regions([0, 1], weights={}, shards=8)
    assert len(assignment) == 2
    assert sorted(rid for rids in assignment for rid in rids) == [0, 1]


def test_assign_regions_is_deterministic_under_ties():
    first = assign_regions([3, 1, 2, 0], weights={}, shards=2)
    second = assign_regions([0, 1, 2, 3], weights={}, shards=2)
    assert first == second


# --------------------------------------------------------------------- #
# Regions sharing a process
# --------------------------------------------------------------------- #

def _near_and_far(colocated):
    """Region 0 sends on ``link:a`` to region 1, which also listens on
    ``link:z``; ``received`` logs (far clock, payload) per frame."""
    near, far = ShardRegion(0), ShardRegion(1)
    near.chan_dest["link:a"] = 1
    received = []
    for chan in ("link:a", "link:z"):
        half = BoundaryHalf(None)
        half.attach(lambda data: received.append((far.engine.now, data)))
        far.link_sinks[chan] = half
    regions = {0: near, 1: far}
    if colocated:
        for region in regions.values():
            region.share_process(regions)
    return near, far, regions, received


def _barriers(regions, boundaries, inbox):
    """Run the epochs ending at ``boundaries``, routing each outbox to
    the next barrier; return (outbox, next event) of every round."""
    rounds = []
    for until in boundaries:
        outbox, next_time = run_region_epoch(regions, until, inbox)
        rounds.append((outbox, next_time))
        inbox = {}
        for dest, message in outbox:
            inbox.setdefault(dest, []).append(message)
    return rounds


def _on_boundary_run(colocated):
    near, far, regions, received = _near_and_far(colocated)
    # Emitted at 1.5, in the epoch ending at 2.0: one arrival on that
    # boundary, one after it.
    near.engine.schedule_at(1.5, near.emit, "link:a", 2.0, OP_FRAME, b"on")
    near.engine.schedule_at(1.5, near.emit, "link:a", 2.5, OP_FRAME, b"after")
    # Delivered at the first barrier for 2.0, under a larger (chan, seq).
    earlier = {1: [(2.0, "link:z", 0, OP_FRAME, b"earlier")]}
    rounds = _barriers(regions, (1.0, 2.0, 3.0), earlier)
    return near, rounds, received


def test_on_boundary_arrival_waits_for_the_barrier_in_one_process():
    """The near region runs first in the round.  Pushed at once, its
    on-boundary frame would sort before the far region's same-instant
    frame with the larger key; through the barrier it fires after it,
    in the next epoch, as it does when the regions are apart."""
    _, _, apart = _on_boundary_run(colocated=False)
    near, _, together = _on_boundary_run(colocated=True)
    assert apart == [(2.0, b"earlier"), (2.0, b"on"), (2.5, b"after")]
    assert together == apart
    assert near.cross_shard_messages == 2


def test_later_arrival_is_on_the_far_heap_before_the_barrier():
    """After the epoch ending at 2.0, only the on-boundary frame waits;
    the later one is already the head of the far heap (the near region
    holds nothing), where apart it waits for the barrier too."""
    _, together, _ = _on_boundary_run(colocated=True)
    _, apart, _ = _on_boundary_run(colocated=False)
    outbox, next_time = together[1]
    assert [message[4] for _, message in outbox] == [b"on"]
    assert next_time == 2.5
    outbox, next_time = apart[1]
    assert [message[4] for _, message in outbox] == [b"on", b"after"]
    assert next_time is None


def test_pushed_frame_is_the_sender_frame_and_a_barrier_frame_is_bytes():
    """The pushed frame (arriving at 1.5) is the sender's object; the one
    that waits (on the boundary at 1.0) crosses as plain ``bytes``."""
    near, _, regions, received = _near_and_far(colocated=True)
    frame = FastFrame(b"\x00" * 64)
    near.engine.schedule_at(0.5, near.emit, "link:a", 1.5, OP_FRAME, frame)
    near.engine.schedule_at(0.5, near.emit, "link:a", 1.0, OP_FRAME, frame)
    (outbox, _), _ = _barriers(regions, (1.0, 2.0), {})
    (_, (_, _, _, _, flat)), = outbox
    assert type(flat) is bytes and flat == frame
    assert [data is frame for _, data in received] == [False, True]


def test_barrier_loop_epoch_skip_on_sparse_timeline():
    """A sparse workload (events every ~0.5 s, lookahead 1 ms) must not
    grind through 500 empty barriers per event."""
    from repro.experiments.fabric import run_fabric_experiment

    result = run_fabric_experiment(
        "leaf-spine-2x2", pairs=1, packets=3, interval_s=0.5,
        horizon_s=2.0, shards=1,
    )
    assert result.packets_delivered == 3
    # 2.0 s / 1 ms lookahead = 2000 naive epochs; the skip logic should
    # need only a handful per packet exchange.
    assert result.epochs < 200
