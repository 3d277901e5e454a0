"""Frame interning and flow-key memoization (the packet fast lane).

A frame in this simulator is an immutable ``bytes`` object that travels
unchanged from the sending host through every switch hop to the
receiver.  Historically each hop re-ran the full twelve-field extraction
on those same bytes; iperf streams additionally retransmit *identical*
byte windows, so the same content was parsed dozens of times.

:class:`FastFrame` is a ``bytes`` subclass that carries its flow key,
the all-int tuple of ``repro.netlib.flowkey``, alongside the payload:

* ``_base`` — the eleven port-independent fields, computed once per
  distinct frame content (``extract_flow_base``).
* ``_by_port`` — per-ingress-port twelve-field keys, ``(in_port,) +
  _base``, which :meth:`FlowTable.lookup` probes with.

A bounded intern pool maps frame content to its ``FastFrame`` so a
retransmitted window resolves to the *same object* — its key caches are
already warm, and CPython's ``bytes`` hash caching makes re-hashing it
for buffering O(1).  The pool belongs to the run: callers pass their
engine's ``ctx.frames`` to :func:`intern`.

Frames of one flow may share ``_base`` and ``_by_port``
(:func:`share_key`): a host sends a flow's packets with
the same addresses, protocol and L4 pair (ports, or ICMP type and code),
so they differ only in lengths, payloads, TCP sequence numbers and
flags, and ICMP identifiers and sequence numbers, none of which is a key
field.  A key one switch computes for one packet at a port serves every
later packet of the flow at that port number.  Such frames bypass the
pool.

Set-field actions do not invalidate the whole key: ``derive_frame``
builds the rewritten frame's key from the parent's by replacing only the
touched field (see ``OpenFlowSwitch._rewrite_dl``/``_rewrite_nw``).

Plain ``bytes`` still work everywhere: the key functions extract on
demand for anything that is not a FastFrame.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.netlib.flowkey import BASE_FIELD_NAMES, extract_flow_base, extract_flow_key

#: Intern pool size bound.  Eviction is wholesale (``clear``): the pool
#: re-warms in one round-trip and the bookkeeping stays O(1) per frame.
POOL_MAX = 4096


class FastFrame(bytes):
    """Raw Ethernet bytes plus lazily-attached flow-key caches.

    ``bytes`` subclasses cannot declare nonempty ``__slots__``, so the
    caches live in the instance ``__dict__`` with class-level ``None``
    defaults; an untouched FastFrame costs one empty dict.
    """

    _base: Optional[Tuple[Optional[int], ...]] = None
    _by_port: Optional[Dict[int, Tuple[Optional[int], ...]]] = None


def intern(data: bytes, pool: Dict[bytes, bytes]) -> Tuple[bytes, bool]:
    """Resolve ``data`` to its :class:`FastFrame` in ``pool``.

    Returns ``(frame, pooled)`` where ``pooled`` is True when the content
    was already in the pool (a dedup win: the returned frame's caches are
    warm).  A pool holding :data:`POOL_MAX` frames is emptied before the
    next one is added.
    """
    if type(data) is FastFrame:
        return data, False
    cached = pool.get(data)
    if cached is not None:
        return cached, True
    frame = FastFrame(data)
    if len(pool) >= POOL_MAX:
        pool.clear()
    pool[frame] = frame
    return frame, False


def flow_key(data: bytes, in_port: int) -> Tuple[Optional[int], ...]:
    """The twelve-field flow key of ``data`` on ``in_port``, memoized.

    A parse is an ``extract_flow_*`` call.  Raises exactly what
    ``extract_flow_key`` raises (nothing is cached on failure).
    """
    if type(data) is FastFrame:
        by_port = data._by_port
        if by_port is not None:
            key = by_port.get(in_port)
            if key is not None:
                return key
        else:
            by_port = data._by_port = {}
        key = by_port[in_port] = (in_port,) + base_key(data)
        return key
    return extract_flow_key(data, in_port)


def base_key(data: bytes) -> Tuple[Optional[int], ...]:
    """The eleven port-independent key fields of ``data``: the flow key
    without ``in_port``.  Memoized on a FastFrame; raises exactly what
    ``extract_flow_base`` raises."""
    if type(data) is FastFrame:
        base = data._base
        if base is None:
            base = data._base = extract_flow_base(data)
        return base
    return extract_flow_base(data)


def share_key(data: bytes, memo: Optional[bytes]) -> bytes:
    """``data`` as a FastFrame that shares ``memo``'s flow-key caches.

    ``memo`` is ``None`` or an earlier result of this function for a frame
    with the same eleven port-independent key fields, such as an earlier
    packet of the same flow.  The caches are shared, not copied:
    what a switch memoizes for one frame at a port serves them all.
    Without a usable ``memo`` the key is extracted from ``data`` once, and
    the returned frame can serve as the memo for the next.
    """
    frame = FastFrame(data)
    if type(memo) is FastFrame:
        frame._base = memo._base
        frame._by_port = memo._by_port
    else:
        frame._base = extract_flow_base(frame)
        frame._by_port = {}
    return frame


def derive_frame(new_data: bytes, parent: bytes, field: str, value: int) -> bytes:
    """Attach a key to a rewritten frame without re-parsing it.

    ``new_data`` is the set-field action's output, which differs from
    ``parent`` only in ``field`` (plus recomputed checksums); its flow
    key is therefore the parent's key with that one field replaced by
    the int ``value``.  Only fires when the parent's key was already
    computed — otherwise the rewritten bytes go out plain and parse on
    demand downstream.
    """
    if type(parent) is not FastFrame or parent._base is None:
        return new_data
    frame = FastFrame(new_data)
    pos = BASE_FIELD_NAMES.index(field)
    base = parent._base
    frame._base = base[:pos] + (value,) + base[pos + 1:]
    return frame
