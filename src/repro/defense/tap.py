"""The per-region sketch tap fed from the switch hot path.

A :class:`SketchTap` instance is shared by every switch in one shard
region (mirroring the ``switch.tracer`` wiring): the switch calls
:meth:`on_frame` once per received frame with the frame's all-int flow
key — the tuple the flow table probes with, memoized by the FastFrame
lane, so the tap never parses bytes — and :meth:`on_packet_in` at both
PACKET_IN emission sites (table miss, OUTPUT:CONTROLLER).

Per-key work (int-fold hash, count-min row indices, normalization) is
memoized in a bounded dict keyed by the flow-key tuple itself, so steady
traffic pays one dict hit, one window-bucket division and a handful of
array increments per frame.  A key the memo has not seen resumes the
fold from its first ten fields' state (``in_port`` … ``nw_dst``: the
flow's endpoints on one port), memoized in a second bounded dict, and
folds only ``tp_src, tp_dst``: a port sweep between two hosts, the
shape of a flow-table overflow storm, folds two fields per new key.
Both memos evict wholesale like the FastFrame intern pool: O(1)
bookkeeping, one re-warm round trip after a clear.

``collect()`` produces the picklable per-region payload;
:func:`merge_taps` folds payloads in the caller-sorted region order into
one merged payload whose contents — and therefore whose
:func:`sketch_digest` — are byte-identical for any shard count and for
pooled vs inline execution.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.defense.sketches import (
    CountMinSketch,
    InterArrival,
    PortRates,
    TopKeys,
    WindowSeries,
    fold_key,
    normalize_key,
    row_indices,
)

#: Flow-key (and fold-prefix) memo bound; eviction is wholesale
#: (`clear`), like the FastFrame pool, so bookkeeping stays O(1) per frame.
MEMO_MAX = 65536

#: Key fields ``in_port`` … ``nw_dst`` whose fold state the tap memoizes.
_PREFIX_LEN = 10

#: Default detection window width (sim-seconds).  50 ms is ~10 batch
#: ticks of workload traffic: fine enough for sub-window detection
#: latency, coarse enough that a window's counts are statistically
#: meaningful.
DEFAULT_WINDOW_S = 0.05


class SketchTap:
    """Streaming telemetry for one shard region's switches."""

    __slots__ = ("window_s", "cms", "topk", "ports", "pktin_gaps",
                 "frames", "new_keys", "packet_ins", "_memo", "_prefixes",
                 "counters")

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        cms_width: int = 2048,
        cms_depth: int = 4,
        topk: int = 16,
    ) -> None:
        self.window_s = float(window_s)
        self.cms = CountMinSketch(cms_width, cms_depth)
        self.topk = TopKeys(topk)
        self.ports = PortRates(window_s)
        self.pktin_gaps = InterArrival()
        self.frames = WindowSeries(window_s)
        self.new_keys = WindowSeries(window_s)
        self.packet_ins = WindowSeries(window_s)
        self._memo: Dict[Any, tuple] = {}
        self._prefixes: Dict[Tuple[int, ...], int] = {}  # prefix -> fold state
        self.counters = {"frames": 0, "packet_ins": 0,
                         "memo_hits": 0, "memo_evictions": 0}

    # -- hot path ------------------------------------------------------- #

    def on_frame(self, switch: str, port_no: int,
                 key: Tuple[Optional[int], ...], now: float) -> None:
        cached = self._memo.get(key)
        if cached is None:
            norm = normalize_key(key)
            prefix = norm[:_PREFIX_LEN]
            state = self._prefixes.get(prefix)
            if state is None:
                if len(self._prefixes) >= MEMO_MAX:
                    self._prefixes.clear()
                state = self._prefixes[prefix] = fold_key(prefix)
            indices = row_indices(fold_key(norm[_PREFIX_LEN:], state),
                                  self.cms.width, self.cms.depth)
            if len(self._memo) >= MEMO_MAX:
                self._memo.clear()
                self.counters["memo_evictions"] += 1
            cached = self._memo[key] = (norm, indices)
        else:
            self.counters["memo_hits"] += 1
        norm, indices = cached
        # One window bucket serves every per-window series.
        bucket = int(now / self.window_s)
        before = self.cms.update(indices)
        if before == 0:
            self.new_keys.add_bucket(bucket)
        self.topk.update(norm, before + 1)
        self.ports.update_bucket(switch, port_no, bucket)
        self.frames.add_bucket(bucket)
        self.counters["frames"] += 1

    def on_packet_in(self, now: float) -> None:
        self.pktin_gaps.observe(now)
        self.packet_ins.add(now)
        self.counters["packet_ins"] += 1

    # -- collection / merge --------------------------------------------- #

    def collect(self) -> Dict[str, Any]:
        """The picklable per-region payload (also the merged shape)."""
        return {
            "window_s": self.window_s,
            "cms": self.cms.to_dict(),
            "topk": self.topk.to_dict(),
            "ports": self.ports.to_dict(),
            "pktin_gaps": self.pktin_gaps.to_dict(),
            "frames": self.frames.to_dict(),
            "new_keys": self.new_keys.to_dict(),
            "packet_ins": self.packet_ins.to_dict(),
            "counters": dict(self.counters),
        }


def merge_taps(payloads: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Fold per-region tap payloads (pass them in sorted region order)
    into one payload of the same shape.  Deterministic: count-min adds
    element-wise, heavy hitters re-rank against the merged count-min,
    window series add per-index, port states union disjointly."""
    payloads = [p for p in payloads if p]
    if not payloads:
        return None
    first = payloads[0]
    tap = SketchTap(
        window_s=first["window_s"],
        cms_width=first["cms"]["width"],
        cms_depth=first["cms"]["depth"],
        topk=first["topk"]["capacity"],
    )
    parts = []
    for payload in payloads:
        tap.cms.merge(CountMinSketch.from_dict(payload["cms"]))
        parts.append(TopKeys.from_dict(payload["topk"]))
        tap.ports.merge_dict(payload["ports"])
        tap.pktin_gaps.merge_dict(payload["pktin_gaps"])
        tap.frames.merge_dict(payload["frames"])
        tap.new_keys.merge_dict(payload["new_keys"])
        tap.packet_ins.merge_dict(payload["packet_ins"])
        for name, value in payload["counters"].items():
            tap.counters[name] = tap.counters.get(name, 0) + value
    tap.topk = TopKeys.merged(parts, tap.cms)
    return tap.collect()


def sketch_digest(payload: Optional[Dict[str, Any]]) -> Optional[str]:
    """A stable content hash of a (merged) tap payload — the determinism
    tests' one-line byte-identity check."""
    if payload is None:
        return None
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def sketch_summary(payload: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Small human-facing numbers for run records and CLI output."""
    if payload is None:
        return {}
    gaps = payload["pktin_gaps"]
    mean_gap = gaps["sum_dt"] / gaps["n"] if gaps["n"] else None
    busiest = max(
        payload["ports"]["ports"].items(),
        key=lambda kv: (kv[1][2], kv[0]),
        default=None,
    )
    return {
        "frames": payload["counters"]["frames"],
        "packet_ins": payload["counters"]["packet_ins"],
        "distinct_keys_tracked": len(payload["topk"]["entries"]),
        "top_key_count": (payload["topk"]["entries"][0][1]
                          if payload["topk"]["entries"] else 0),
        "pktin_mean_gap_s": mean_gap,
        "busiest_port": busiest[0] if busiest else None,
        "busiest_port_frames": busiest[1][2] if busiest else 0,
    }
