"""Allocation-lean streaming sketches for per-packet defense telemetry.

Every structure here obeys the same three-part contract:

* **Hot-path updates are O(1) and allocation-free** after the first
  sight of a flow key.  The tap layer (:mod:`repro.defense.tap`) hands
  each sketch a *normalized key* — the OpenFlow twelve-tuple with every
  field coerced to a plain int (``None`` becomes ``-1``) — plus a
  precomputed row-index tuple and window bucket, so no sketch ever
  touches packet bytes.
* **Hashing is process-stable.**  Python's ``hash()`` is salted per
  process, which would make pooled shard workers disagree with an
  inline run; row indices instead derive from an FNV-1a fold of the
  integer key (:func:`fold_key`), exactly like the fabric's CRC32 ECMP
  picker avoids ``hash()``.  The fold is sequential, so it resumes from
  a memoized prefix state (the tap folds a new key's ports only).
* **Merges are deterministic.**  Shard regions each hold a private
  sketch; the coordinator merges the per-region payloads in sorted
  region-id order.  Count-min rows are built and added element-wise in
  C (``array("Q", ...)`` over ``map(operator.add, ...)``), the
  heavy-hitter set re-ranks against the merged count-min with
  ``(-count, key)`` tie-breaks, and window series add per-index — so
  the merged contents are byte-identical for any worker grouping
  (``tests/defense/test_sketch_determinism.py`` pins this).
"""

from __future__ import annotations

from array import array
from operator import add
from typing import Any, Dict, List, Optional, Tuple

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def normalize_key(values) -> Tuple[int, ...]:
    """Map ``None`` to ``-1`` in an all-int flow key (``repro.netlib.flowkey``).

    The result sorts and compares deterministically, which the
    heavy-hitter tie-breaks rely on.  A key without absent fields (every
    TCP/UDP frame) is returned as is.
    """
    if None not in values:
        return values
    return tuple(-1 if v is None else v for v in values)


def fold_key(key: Tuple[int, ...], h: int = _FNV_OFFSET) -> int:
    """A 64-bit FNV-1a fold of an integer tuple — process-stable, unlike
    the salted builtin ``hash``.  Elements fold in as their low 64 bits
    (``-1`` as all ones): one mask after the multiply keeps exactly those.
    The fold is sequential, so ``fold_key(key[n:], fold_key(key[:n]))``
    is ``fold_key(key)``: pass ``h`` to resume from a prefix's state."""
    for v in key:
        h = ((h ^ v) * _FNV_PRIME) & _MASK64
    return h


def row_indices(h: int, width: int, depth: int) -> Tuple[int, ...]:
    """``depth`` row indices from one 64-bit digest via double hashing:
    ``(h1 + i * h2) % width`` for each row ``i``."""
    h1 = h & 0xFFFFFFFF
    h2 = ((h >> 32) | 1) & 0xFFFFFFFF
    indices = []
    for _ in range(depth):
        indices.append(h1 % width)
        h1 += h2
    return tuple(indices)


class CountMinSketch:
    """Conservative count-min over flow keys.

    ``update`` takes the precomputed row-index tuple and returns the
    estimate *before* the increment — zero means the key is (up to
    collision probability) new, the signal the sketch-ratio detector
    thresholds on.
    """

    __slots__ = ("width", "depth", "rows", "total")

    def __init__(self, width: int = 2048, depth: int = 4) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError(f"width/depth must be positive, got "
                             f"{width}x{depth}")
        self.width = int(width)
        self.depth = int(depth)
        self.rows: List[array] = [array("Q", bytes(8 * self.width))
                                  for _ in range(self.depth)]
        self.total = 0

    def update(self, indices: Tuple[int, ...]) -> int:
        est = None
        for row, idx in zip(self.rows, indices):
            count = row[idx]
            if est is None or count < est:
                est = count
            row[idx] = count + 1
        self.total += 1
        return est or 0

    def estimate(self, indices: Tuple[int, ...]) -> int:
        return min(row[idx] for row, idx in zip(self.rows, indices))

    def estimate_key(self, key: Tuple[int, ...]) -> int:
        return self.estimate(row_indices(fold_key(key), self.width,
                                         self.depth))

    def merge(self, other: "CountMinSketch") -> None:
        if (other.width, other.depth) != (self.width, self.depth):
            raise ValueError(
                f"cannot merge {other.width}x{other.depth} count-min into "
                f"{self.width}x{self.depth}")
        for mine, theirs in zip(self.rows, other.rows):
            mine[:] = array("Q", map(add, mine, theirs))
        self.total += other.total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "width": self.width,
            "depth": self.depth,
            "total": self.total,
            "rows": [row.tolist() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CountMinSketch":
        sketch = cls(payload["width"], payload["depth"])
        sketch.total = int(payload["total"])
        rows = [array("Q", values) for values in payload["rows"]]
        widths = [len(row) for row in rows]
        if widths != [sketch.width] * sketch.depth:
            raise ValueError(f"count-min rows of widths {widths} do not fit "
                             f"{sketch.width}x{sketch.depth}")
        sketch.rows = rows
        return sketch


class TopKeys:
    """Count-min-backed heavy hitters (space-saving style replacement).

    Tracks up to ``capacity`` keys with their count-min estimates.  A key
    not yet tracked displaces the current minimum only when its estimate
    strictly exceeds it, so an all-distinct flood (every estimate 1)
    costs O(1) per packet; the O(capacity) victim scan only runs when a
    genuine heavy hitter earns its slot.  Ties break on the normalized
    key tuple, keeping contents independent of arrival interleaving
    *given the same per-region stream* — which sharding guarantees.
    """

    __slots__ = ("capacity", "entries", "_min_count")

    def __init__(self, capacity: int = 16) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.entries: Dict[Tuple[int, ...], int] = {}
        self._min_count = 0

    def update(self, key: Tuple[int, ...], estimate: int) -> None:
        entries = self.entries
        if key in entries:
            entries[key] = estimate
            return
        if len(entries) < self.capacity:
            entries[key] = estimate
            if len(entries) == self.capacity:
                self._min_count = min(entries.values())
            return
        if estimate <= self._min_count:
            return
        # The cached minimum may be stale-low (tracked entries only grow),
        # so recompute before deciding; (count, key) makes the victim
        # deterministic.
        victim = min(entries.items(), key=lambda kv: (kv[1], kv[0]))
        self._min_count = victim[1]
        if estimate <= self._min_count:
            return
        del entries[victim[0]]
        entries[key] = estimate

    def ranked(self) -> List[Tuple[Tuple[int, ...], int]]:
        """Entries best-first: highest count, then lowest key."""
        return sorted(self.entries.items(), key=lambda kv: (-kv[1], kv[0]))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "entries": [[list(key), count] for key, count in self.ranked()],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TopKeys":
        topk = cls(payload["capacity"])
        for key, count in payload["entries"]:
            topk.entries[tuple(key)] = int(count)
        if len(topk.entries) >= topk.capacity:
            topk._min_count = min(topk.entries.values())
        return topk

    @classmethod
    def merged(cls, parts: List["TopKeys"],
               cms: CountMinSketch) -> "TopKeys":
        """Re-rank the union of tracked keys against the merged count-min.

        Per-region counts are region-local estimates; the merged sketch
        holds the global ones, so the union is re-scored there and the
        best ``capacity`` kept.  Pure function of the inputs.
        """
        capacity = max((p.capacity for p in parts), default=16)
        union = sorted({key for part in parts for key in part.entries})
        scored = sorted(
            ((key, cms.estimate_key(key)) for key in union),
            key=lambda kv: (-kv[1], kv[0]),
        )
        merged = cls(capacity)
        for key, count in scored[:capacity]:
            merged.entries[key] = count
        if len(merged.entries) >= capacity:
            merged._min_count = min(merged.entries.values())
        return merged


class PortRates:
    """Per-(switch, port) packet counts with a bucketed rate EWMA.

    Packets land in fixed ``window_s`` buckets; closing a bucket folds
    its rate into the EWMA (skipped buckets decay it), so the per-packet
    cost is an int compare + increment and no ``exp()`` calls.  Switches
    belong to exactly one shard region, so merging is a disjoint union.
    """

    __slots__ = ("window_s", "alpha", "_state")

    def __init__(self, window_s: float = 0.05, alpha: float = 0.3) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s!r}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.window_s = float(window_s)
        self.alpha = float(alpha)
        # (switch, port) -> [bucket_index, bucket_count, total, ewma_pps]
        self._state: Dict[Tuple[str, int], List] = {}

    def update(self, switch: str, port: int, now: float) -> None:
        self.update_bucket(switch, port, int(now / self.window_s))

    def update_bucket(self, switch: str, port: int, bucket: int) -> None:
        """:meth:`update` for a packet in window ``bucket``."""
        state = self._state.get((switch, port))
        if state is None:
            self._state[(switch, port)] = [bucket, 1, 1, 0.0]
            return
        if bucket == state[0]:
            state[1] += 1
        else:
            self._fold(state, bucket)
            state[1] = 1
        state[2] += 1

    def _fold(self, state: List, bucket: int) -> None:
        alpha = self.alpha
        rate = state[1] / self.window_s
        ewma = alpha * rate + (1.0 - alpha) * state[3]
        gap = bucket - state[0] - 1
        if gap > 0:
            ewma *= (1.0 - alpha) ** gap
        state[0] = bucket
        state[3] = ewma

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``"switch:port" -> {count, ewma_pps}`` with pending buckets
        folded (non-destructively)."""
        out: Dict[str, Dict[str, float]] = {}
        for (switch, port), state in sorted(self._state.items()):
            pending = list(state)
            self._fold(pending, pending[0] + 1)
            out[f"{switch}:{port}"] = {
                "count": state[2],
                "ewma_pps": pending[3],
            }
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window_s": self.window_s,
            "alpha": self.alpha,
            "ports": {
                f"{switch}:{port}": list(state)
                for (switch, port), state in sorted(self._state.items())
            },
        }

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        for name, state in payload["ports"].items():
            switch, _, port = name.rpartition(":")
            key = (switch, int(port))
            if key in self._state:
                # Regions own disjoint switches; a collision means two
                # payloads for the same region were merged twice.
                raise ValueError(f"duplicate port-rate state for {name}")
            self._state[key] = list(state)


class InterArrival:
    """Streaming inter-arrival stats (count/sum/sum-of-squares/min/max).

    Merging concatenates the per-region streams' moments; the gap
    between two regions' streams is deliberately not synthesized (each
    region's PACKET_IN stream is a complete series on its own switches).
    """

    __slots__ = ("n", "sum_dt", "sum_sq", "min_dt", "max_dt",
                 "first_t", "last_t")

    def __init__(self) -> None:
        self.n = 0
        self.sum_dt = 0.0
        self.sum_sq = 0.0
        self.min_dt: Optional[float] = None
        self.max_dt: Optional[float] = None
        self.first_t: Optional[float] = None
        self.last_t: Optional[float] = None

    def observe(self, now: float) -> None:
        if self.last_t is not None:
            dt = now - self.last_t
            self.n += 1
            self.sum_dt += dt
            self.sum_sq += dt * dt
            if self.min_dt is None or dt < self.min_dt:
                self.min_dt = dt
            if self.max_dt is None or dt > self.max_dt:
                self.max_dt = dt
        else:
            self.first_t = now
        self.last_t = now

    @property
    def mean_dt(self) -> Optional[float]:
        return self.sum_dt / self.n if self.n else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n, "sum_dt": self.sum_dt, "sum_sq": self.sum_sq,
            "min_dt": self.min_dt, "max_dt": self.max_dt,
            "first_t": self.first_t, "last_t": self.last_t,
        }

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        self.n += payload["n"]
        self.sum_dt += payload["sum_dt"]
        self.sum_sq += payload["sum_sq"]
        for attr, pick in (("min_dt", min), ("max_dt", max),
                           ("first_t", min), ("last_t", max)):
            theirs = payload[attr]
            if theirs is None:
                continue
            mine = getattr(self, attr)
            setattr(self, attr, theirs if mine is None else pick(mine, theirs))


class WindowSeries:
    """Per-window counters for one named signal (sparse int buckets)."""

    __slots__ = ("window_s", "buckets")

    def __init__(self, window_s: float = 0.05) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s!r}")
        self.window_s = float(window_s)
        self.buckets: Dict[int, int] = {}

    def add(self, now: float, count: int = 1) -> None:
        self.add_bucket(int(now / self.window_s), count)

    def add_bucket(self, idx: int, count: int = 1) -> None:
        """:meth:`add` ``count`` to window ``idx``."""
        self.buckets[idx] = self.buckets.get(idx, 0) + count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window_s": self.window_s,
            "buckets": sorted(self.buckets.items()),
        }

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        for idx, count in payload["buckets"]:
            self.buckets[idx] = self.buckets.get(idx, 0) + count
