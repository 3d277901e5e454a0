"""OpenFlow 1.0 flow table with priorities, timeouts, and statistics.

Semantics follow the OF 1.0 specification as implemented by OVS v1.9:
highest-priority matching entry wins; exact ties resolve to the
earliest-installed entry; idle and hard timeouts expire entries and can emit
FLOW_REMOVED notifications.

The table is an OVS-style tuple-space classifier (Srinivasan, Suri and
Varghese, SIGCOMM 1999): one hash table per wildcard mask, keyed by the
masked integer field values and probed with a packet's all-int flow key
(``repro.netlib.flowkey``) in descending order of each
mask's highest priority, until no remaining mask can win.  A match that
constrains all twelve fields exactly (every reactive install of a TCP or
UDP flow) skips the per-field mask loop: its mask is the all-exact one and
its bucket key is its own flow key.  A strict-identity dict keyed on
``(match.wire_fields(), priority)`` serves ADD-replace, MODIFY_STRICT and
DELETE_STRICT: the wire fields are the values ``pack()`` packs, so two
keys are equal exactly when the packed matches are (OF 1.0 strict
equality) and no struct is packed per ADD; they keep host bits under a
CIDR prefix that the masked key drops.  The live entries stay in install
order in one ``OrderedDict``, whose head FIFO eviction reads in O(1).  An
``lru`` table finds its victim in a ``(last_used, order)`` heap that is
checked lazily at eviction time, so the switch's hit path writes
``last_used`` with no hook.

In front of the classifier sits an exact-match cache, as OVS's kernel
flow table sits in front of its userspace classifier (Pfaff et al., NSDI
2015): a dict from a packet's twelve-field tuple to the entry that won
its last lookup.  Only winners are cached.  A winner is a function of the
set of live entries alone, so adding or removing an entry (``_link``,
``_unlink``, ``_empty``) empties the cache, and nothing else does: MODIFY
rewrites an entry's actions in place, and a hit or an LRU decision only
writes ``last_used``.  A cache holding :data:`CACHE_MAX` keys is emptied
before the next one is added, the FastFrame pool's policy.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import OrderedDict
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.netlib.flowkey import MATCH_FIELD_NAMES
from repro.openflow.actions import Action, OutputAction
from repro.openflow.constants import FlowModCommand, FlowModFlags, Port
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod


def compiled_port(actions: List[Action]) -> Optional[int]:
    """The port number when ``actions`` is exactly one OUTPUT to a physical
    port, else ``None``: the switch transmits there without the list."""
    if len(actions) == 1:
        action = actions[0]
        if isinstance(action, OutputAction) and action.port < Port.MAX:
            return action.port
    return None


class FlowEntry:
    """One installed flow rule.

    ``order`` is the entry's place in its table's install sequence; it
    breaks priority ties and orders LRU/FIFO eviction.  ``out`` is the
    action list compiled for the switch's hit path
    (:func:`compiled_port`).  Assigning ``actions`` recompiles it.
    """

    __slots__ = ("match", "priority", "_actions", "out", "cookie",
                 "idle_timeout", "hard_timeout", "flags", "install_time",
                 "last_used", "packet_count", "byte_count", "order")

    def __init__(
        self,
        match: Match,
        priority: int,
        actions: List[Action],
        cookie: int = 0,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        flags: int = 0,
        install_time: float = 0.0,
        *,
        order: int,
    ) -> None:
        self.match = match
        self.priority = priority
        self.actions = actions
        self.cookie = cookie
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.flags = flags
        self.install_time = install_time
        self.last_used = install_time
        self.packet_count = 0
        self.byte_count = 0
        self.order = order

    @property
    def actions(self) -> List[Action]:
        return self._actions

    @actions.setter
    def actions(self, actions: List[Action]) -> None:
        self._actions = list(actions)
        self.out = compiled_port(self._actions)

    @property
    def sends_flow_removed(self) -> bool:
        return bool(self.flags & FlowModFlags.SEND_FLOW_REM)

    @property
    def rank(self) -> Tuple[int, int]:
        """Win ordering: higher priority first, then earliest install."""
        return (self.priority, -self.order)

    def outputs_to(self, port: int) -> bool:
        """True if any action outputs to ``port`` (for out_port filtering)."""
        return any(isinstance(a, OutputAction) and a.port == port for a in self.actions)

    def expired_reason(self, now: float) -> Optional[str]:
        """Return ``"idle"``/``"hard"`` when the entry has timed out."""
        if self.hard_timeout and now >= self.install_time + self.hard_timeout:
            return "hard"
        if self.idle_timeout and now >= self.last_used + self.idle_timeout:
            return "idle"
        return None

    def __repr__(self) -> str:
        return (
            f"<FlowEntry prio={self.priority} {self.match!r} "
            f"actions={self.actions} idle={self.idle_timeout} hard={self.hard_timeout}>"
        )


_NW_SRC = MATCH_FIELD_NAMES.index("nw_src")
_NW_DST = MATCH_FIELD_NAMES.index("nw_dst")

#: The mask of a match that constrains all twelve fields exactly.
_EXACT_MASK = tuple((pos, -1) for pos in range(len(MATCH_FIELD_NAMES)))

_RANK = attrgetter("rank")


def _mask_and_values(match: Match) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Any, ...]]:
    """A match's wildcard mask and its masked integer field values.

    The mask pairs each constrained tuple position with a netmask: -1 for
    an exact field, the prefix netmask for a CIDR ``nw_src``/``nw_dst``.
    A /0 prefix constrains nothing, as in :meth:`Match.subsumes`.  An
    exact match on all twelve fields (every reactive install of a TCP or
    UDP flow) is its own key under :data:`_EXACT_MASK`.
    """
    key = match.key
    if match.nw_src_prefix == 32 and match.nw_dst_prefix == 32 and None not in key:
        return _EXACT_MASK, key
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


def _masked_key(mask: Tuple[Tuple[int, int], ...], values: Tuple[Any, ...]) -> Any:
    try:
        return tuple(values[pos] & netmask for pos, netmask in mask)
    except TypeError:  # the packet lacks a field the mask constrains
        return None


class _Subtable:
    """The entries of one wildcard mask.  ``key`` maps a twelve-tuple to
    the hash key (``None``: the tuple is the key); a bucket is kept in
    ascending :attr:`FlowEntry.rank`, so its winner is its last entry."""

    __slots__ = ("mask", "key", "buckets", "priorities", "max_priority")

    def __init__(self, mask: Tuple[Tuple[int, int], ...]) -> None:
        self.mask = mask
        positions = [pos for pos, _ in mask]
        if any(netmask != -1 for _, netmask in mask):
            self.key: Any = partial(_masked_key, mask)
        elif len(positions) == len(MATCH_FIELD_NAMES):
            self.key = None
        else:
            self.key = itemgetter(*positions) if positions else (lambda values: ())
        self.buckets: Dict[Any, List[FlowEntry]] = {}
        self.priorities: Dict[int, int] = {}  # priority -> entry count
        self.max_priority = -1


#: Exact-match cache size bound.  Eviction is wholesale (``clear``), as
#: in the FastFrame intern pool.
CACHE_MAX = 1024

#: How a full table treats a new ADD.  ``refuse`` mirrors stock OVS v1.9
#: (OFPFMFC_ALL_TABLES_FULL error); ``lru``/``fifo`` model the eviction
#: behaviour overflow attacks probe for ("An Inference Attack Model for
#: Flow Table Capacity and Usage").
EVICTION_POLICIES = ("refuse", "lru", "fifo")


class FlowTable:
    """A single OF 1.0 flow table (OVS v1.9 exposed one to OpenFlow 1.0)."""

    def __init__(self, max_entries: int = 65536, eviction: str = "refuse") -> None:
        if eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction!r}; choose from {EVICTION_POLICIES}"
            )
        self.max_entries = max_entries
        self.eviction = eviction
        self._installs = itertools.count()
        #: Packet twelve-tuple -> the entry its lookup returned.
        self._cache: Dict[Tuple[Any, ...], FlowEntry] = {}
        self.reset_stats()
        self._empty()

    def _empty(self) -> None:
        self._cache.clear()
        # Live entry -> (strict key, subtable, bucket key), in install order.
        self._live: "OrderedDict[FlowEntry, Tuple[Any, _Subtable, Any]]" = OrderedDict()
        self._strict: Dict[Tuple[Tuple[int, ...], int], FlowEntry] = {}
        self._subtables: Dict[Tuple[Tuple[int, int], ...], _Subtable] = {}
        self._probe_order: List[_Subtable] = []  # max priority, descending
        self._lru: List[Tuple[float, int, FlowEntry]] = []

    def __len__(self) -> int:
        return len(self._live)

    @property
    def entries(self) -> List[FlowEntry]:
        """The live entries in install order (a fresh list)."""
        return list(self._live)

    def reset_stats(self) -> None:
        """Zero the cumulative counters (``occupancy_peak``,
        ``capacity_evictions``, lookup stats) without touching entries.

        Every run builds fresh tables, so run records never inherit a
        previous run's peaks; a harness that reuses one table across
        measurements calls this between them.
        """
        self.lookups = 0
        self.matched = 0
        self.capacity_evictions = 0
        self.occupancy_peak = 0

    def _link(self, entry: FlowEntry, strict: Tuple[Tuple[int, ...], int]) -> None:
        if self._cache:
            self._cache.clear()
        mask, values = _mask_and_values(entry.match)
        sub = self._subtables.get(mask)
        if sub is None:
            sub = self._subtables[mask] = _Subtable(mask)
        key = values if sub.key is None else sub.key(values)
        self._live[entry] = (strict, sub, key)
        self._strict[strict] = entry
        bucket = sub.buckets.get(key)
        if bucket is None:
            sub.buckets[key] = [entry]
        else:
            insort(bucket, entry, key=_RANK)
        priority = entry.priority
        sub.priorities[priority] = sub.priorities.get(priority, 0) + 1
        if priority > sub.max_priority:
            sub.max_priority = priority
            self._sort_subtables()
        if self.eviction == "lru":
            heappush(self._lru, (entry.last_used, entry.order, entry))

    def _unlink(self, entry: FlowEntry) -> None:
        if self._cache:
            self._cache.clear()
        strict, sub, key = self._live.pop(entry)
        del self._strict[strict]
        bucket = sub.buckets[key]
        bucket.remove(entry)
        if not bucket:
            del sub.buckets[key]
        priority = entry.priority
        left = sub.priorities.pop(priority) - 1
        if left:
            sub.priorities[priority] = left
        elif priority == sub.max_priority:
            if sub.priorities:
                sub.max_priority = max(sub.priorities)
            else:
                del self._subtables[sub.mask]
            self._sort_subtables()
        if len(self._lru) > 2 * len(self._live):
            # Bound the stale items of entries removed by delete/expiry.
            self._lru = [(e.last_used, e.order, e) for e in self._live]
            heapify(self._lru)

    def _sort_subtables(self) -> None:
        self._probe_order = sorted(self._subtables.values(),
                                   key=attrgetter("max_priority"), reverse=True)

    def apply_flow_mod(self, flow_mod: FlowMod, now: float) -> Tuple[List[FlowEntry], bool]:
        """Apply a FLOW_MOD; return (removed_entries, table_full).

        Removed entries are returned so the switch can emit FLOW_REMOVED
        messages when entries requested it.  For DELETE commands they are
        the deleted entries; for ADD against a full table under an
        ``lru``/``fifo`` policy they are the capacity-eviction victims.
        ``table_full`` is only ever True under the ``refuse`` policy.
        """
        command = flow_mod.command
        if command == FlowModCommand.ADD:
            return self._add(flow_mod, now)
        if command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            return self._modify(flow_mod, now, strict=command == FlowModCommand.MODIFY_STRICT)
        if command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            return self._delete(flow_mod, strict=command == FlowModCommand.DELETE_STRICT)
        raise ValueError(f"unsupported flow-mod command {command!r}")

    def _add(self, flow_mod: FlowMod, now: float) -> Tuple[List[FlowEntry], bool]:
        # OF 1.0: ADD with an identical match+priority replaces the entry.
        strict = (flow_mod.match.wire_fields(), flow_mod.priority)
        replaced = self._strict.get(strict)
        if replaced is not None:
            self._unlink(replaced)
        evicted: List[FlowEntry] = []
        while len(self._live) >= self.max_entries:
            victim = self._eviction_victim()
            if victim is None:
                return [], True
            self._unlink(victim)
            self.capacity_evictions += 1
            evicted.append(victim)
        entry = FlowEntry(
            flow_mod.match, flow_mod.priority, flow_mod.actions,
            cookie=flow_mod.cookie, idle_timeout=flow_mod.idle_timeout,
            hard_timeout=flow_mod.hard_timeout, flags=flow_mod.flags,
            install_time=now, order=next(self._installs),
        )
        self._link(entry, strict)
        if len(self._live) > self.occupancy_peak:
            self.occupancy_peak = len(self._live)
        return evicted, False

    def _eviction_victim(self) -> Optional[FlowEntry]:
        """The entry a full table sacrifices for a new ADD, or None (refuse).

        LRU picks the least-recently-used entry (install time counts as a
        use); FIFO the earliest-installed.  Ties break on install order,
        so the choice is deterministic for a deterministic workload.  The
        LRU heap relies on use times never decreasing (the simulation clock).
        """
        if self.eviction == "refuse" or not self._live:
            return None
        if self.eviction == "fifo":
            return next(iter(self._live))
        heap = self._lru
        while True:
            used, order, entry = heap[0]
            if entry not in self._live:
                heappop(heap)
            elif entry.last_used != used:
                heapreplace(heap, (entry.last_used, order, entry))
            else:
                return heappop(heap)[2]

    def _selected(self, flow_mod: FlowMod, strict: bool) -> List[FlowEntry]:
        """The entries a MODIFY/DELETE applies to, in install order."""
        if strict:
            entry = self._strict.get((flow_mod.match.wire_fields(), flow_mod.priority))
            return [] if entry is None else [entry]
        match = flow_mod.match
        return [entry for entry in self._live if match.subsumes(entry.match)]

    def _modify(self, flow_mod: FlowMod, now: float, strict: bool) -> Tuple[List[FlowEntry], bool]:
        # Only actions/cookie change — match and priority stay, so the
        # index needs no maintenance here.
        selected = self._selected(flow_mod, strict)
        if not selected:
            return self._add(flow_mod, now)
        for entry in selected:
            entry.actions = flow_mod.actions
            entry.cookie = flow_mod.cookie
        return [], False

    def _delete(self, flow_mod: FlowMod, strict: bool) -> Tuple[List[FlowEntry], bool]:
        removed = self._selected(flow_mod, strict)
        if flow_mod.out_port != Port.NONE:
            removed = [entry for entry in removed if entry.outputs_to(flow_mod.out_port)]
        for entry in removed:
            self._unlink(entry)
        return removed, False

    def lookup(self, key: Tuple[Optional[int], ...]) -> Optional[FlowEntry]:
        """Highest-priority entry matching a packet's twelve-field flow key."""
        self.lookups += 1
        best = self._cache.get(key)
        if best is None:
            for sub in self._probe_order:
                if best is not None and sub.max_priority < best.priority:
                    break
                masked = sub.key
                bucket = sub.buckets.get(key if masked is None else masked(key))
                if bucket is not None:
                    entry = bucket[-1]
                    if best is None or entry.rank > best.rank:
                        best = entry
            if best is None:
                return None
            cache = self._cache
            if len(cache) >= CACHE_MAX:
                cache.clear()
            cache[key] = best
        self.matched += 1
        return best

    def expire(self, now: float) -> List[Tuple[FlowEntry, str]]:
        """Remove and return timed-out entries with their expiry reason."""
        expired = [(entry, reason) for entry in self._live
                   if (reason := entry.expired_reason(now)) is not None]
        for entry, _ in expired:
            self._unlink(entry)
        return expired

    def clear(self) -> List[FlowEntry]:
        """Remove all entries (connection reset semantics)."""
        removed = self.entries
        self._empty()
        return removed

    def __repr__(self) -> str:
        return f"<FlowTable entries={len(self._live)} lookups={self.lookups}>"
