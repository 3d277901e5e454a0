"""The linear-scan OF 1.0 flow table: the semantics oracle for FlowTable.

Every operation scans one list kept in install order: lookup tests each
entry with ``Match.subsumes`` of the packet's exact match, ADD replaces entries that are
``Match.is_strict_equal`` at the same priority, a full ``lru``/``fifo``
table evicts the ``min`` by ``(last_used, order)``/``order``, and expiry
returns entries in install order.  It has no index, so its answers follow
from the OF 1.0 rules alone; the tuple-space :class:`FlowTable` must give
the same ones.
"""

import itertools
from typing import Any, List, Optional, Tuple

from repro.dataplane.flowtable import FlowEntry
from repro.netlib.flowkey import MATCH_FIELD_NAMES
from repro.openflow import FlowMod, FlowModCommand, Match, Port

_NW_SRC = MATCH_FIELD_NAMES.index("nw_src")
_NW_DST = MATCH_FIELD_NAMES.index("nw_dst")


def mask_and_values(match: Match) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Any, ...]]:
    """``FlowTable``'s mask and masked values of ``match``, one field at a
    time: every constrained position with its netmask (-1 exact, the
    prefix netmask for a CIDR ``nw_src``/``nw_dst``, a /0 prefix
    constraining nothing) and each value under its netmask."""
    key = match.key
    prefixes = {_NW_SRC: match.nw_src_prefix, _NW_DST: match.nw_dst_prefix}
    mask = []
    values: List[Any] = [None] * len(key)
    for pos, value in enumerate(key):
        prefix = prefixes.get(pos, 32)
        if value is None or prefix == 0:
            continue
        netmask = -1 if prefix == 32 else ((1 << prefix) - 1) << (32 - prefix)
        mask.append((pos, netmask))
        values[pos] = value & netmask
    return tuple(mask), tuple(values)


def record_use(entry: FlowEntry, now: float, byte_count: int) -> None:
    """What a switch's table hit writes into its entry."""
    entry.last_used = now
    entry.packet_count += 1
    entry.byte_count += byte_count


class ReferenceFlowTable:
    """The O(n) table: same constructor and public API as FlowTable."""

    def __init__(self, max_entries: int = 65536, eviction: str = "refuse") -> None:
        self.max_entries = max_entries
        self.eviction = eviction
        self.entries: List[FlowEntry] = []
        self._installs = itertools.count()
        self.lookups = 0
        self.matched = 0
        self.capacity_evictions = 0
        self.occupancy_peak = 0

    def __len__(self) -> int:
        return len(self.entries)

    def apply_flow_mod(self, flow_mod: FlowMod, now: float) -> Tuple[List[FlowEntry], bool]:
        command = flow_mod.command
        if command == FlowModCommand.ADD:
            return self._add(flow_mod, now)
        if command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            return self._modify(flow_mod, now, command == FlowModCommand.MODIFY_STRICT)
        if command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            return self._delete(flow_mod, command == FlowModCommand.DELETE_STRICT)
        raise ValueError(f"unsupported flow-mod command {command!r}")

    def _add(self, flow_mod: FlowMod, now: float) -> Tuple[List[FlowEntry], bool]:
        for entry in [e for e in self.entries
                      if e.priority == flow_mod.priority
                      and e.match.is_strict_equal(flow_mod.match)]:
            self.entries.remove(entry)
        evicted: List[FlowEntry] = []
        while len(self.entries) >= self.max_entries:
            victim = self._eviction_victim()
            if victim is None:
                return [], True
            self.entries.remove(victim)
            self.capacity_evictions += 1
            evicted.append(victim)
        self.entries.append(FlowEntry(
            flow_mod.match, flow_mod.priority, flow_mod.actions,
            cookie=flow_mod.cookie, idle_timeout=flow_mod.idle_timeout,
            hard_timeout=flow_mod.hard_timeout, flags=flow_mod.flags,
            install_time=now, order=next(self._installs),
        ))
        self.occupancy_peak = max(self.occupancy_peak, len(self.entries))
        return evicted, False

    def _eviction_victim(self) -> Optional[FlowEntry]:
        if self.eviction == "refuse" or not self.entries:
            return None
        if self.eviction == "lru":
            return min(self.entries, key=lambda e: (e.last_used, e.order))
        return min(self.entries, key=lambda e: e.order)

    @staticmethod
    def _applies(match: Match, priority: int, entry: FlowEntry, strict: bool) -> bool:
        if strict:
            return entry.priority == priority and entry.match.is_strict_equal(match)
        return match.subsumes(entry.match)

    def _modify(self, flow_mod: FlowMod, now: float, strict: bool) -> Tuple[List[FlowEntry], bool]:
        changed = False
        for entry in self.entries:
            if self._applies(flow_mod.match, flow_mod.priority, entry, strict):
                entry.actions = list(flow_mod.actions)
                entry.cookie = flow_mod.cookie
                changed = True
        if not changed:
            return self._add(flow_mod, now)
        return [], False

    def _delete(self, flow_mod: FlowMod, strict: bool) -> Tuple[List[FlowEntry], bool]:
        removed: List[FlowEntry] = []
        kept: List[FlowEntry] = []
        for entry in self.entries:
            hit = self._applies(flow_mod.match, flow_mod.priority, entry, strict)
            if hit and flow_mod.out_port != Port.NONE:
                hit = entry.outputs_to(flow_mod.out_port)
            (removed if hit else kept).append(entry)
        self.entries = kept
        return removed, False

    def lookup(self, key: Tuple[Optional[int], ...]) -> Optional[FlowEntry]:
        self.lookups += 1
        best = self.winner(key)
        if best is not None:
            self.matched += 1
        return best

    def winner(self, key: Tuple[Optional[int], ...]) -> Optional[FlowEntry]:
        """The entry :meth:`lookup` returns for flow key ``key``, uncounted."""
        packet = Match.from_key(key)
        best: Optional[FlowEntry] = None
        for entry in self.entries:
            if entry.match.subsumes(packet) and (
                    best is None or entry.rank > best.rank):
                best = entry
        return best

    def expire(self, now: float) -> List[Tuple[FlowEntry, str]]:
        expired: List[Tuple[FlowEntry, str]] = []
        kept: List[FlowEntry] = []
        for entry in self.entries:
            reason = entry.expired_reason(now)
            if reason is None:
                kept.append(entry)
            else:
                expired.append((entry, reason))
        self.entries = kept
        return expired

    def clear(self) -> List[FlowEntry]:
        removed, self.entries = self.entries, []
        return removed
