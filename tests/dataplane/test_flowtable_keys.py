"""The flow table's keys against their one-field-at-a-time definitions.

``FlowTable`` files an entry under its match's wildcard mask and masked
values, with a shortcut for an exact match on all twelve fields; the
per-field loop in ``tests/dataplane/flowtable_reference.py`` is the
oracle for every match shape, CIDR prefixes 0..32 with and without an
address included.  ADD-replace, MODIFY_STRICT and DELETE_STRICT find an
entry by ``(match.wire_fields(), priority)``, which must identify
exactly the entries whose ``(match.pack(), priority)`` is equal.
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.flowtable import FlowTable, _mask_and_values
from repro.netlib.flowkey import MATCH_FIELD_NAMES as FIELD_NAMES
from repro.openflow import FlowMod, FlowModCommand, Match, OutputAction
from tests.dataplane.flowtable_reference import mask_and_values

# Widths of the twelve fields in FIELD_NAMES order.
FIELD_BITS = (16, 48, 48, 16, 8, 16, 8, 8, 32, 32, 16, 16)


@st.composite
def any_matches(draw):
    """A field is ``None`` or any value of its width; each prefix any of
    0..32, whether or not its address is set."""
    fields = {name: draw(st.none() | st.integers(0, (1 << bits) - 1))
              for name, bits in zip(FIELD_NAMES, FIELD_BITS)}
    return Match(**fields,
                 nw_src_prefix=draw(st.integers(0, 32)),
                 nw_dst_prefix=draw(st.integers(0, 32)))


@st.composite
def exact_matches(draw):
    """Every field set, both prefixes drawn around the shortcut's /32."""
    fields = {name: draw(st.integers(0, (1 << bits) - 1))
              for name, bits in zip(FIELD_NAMES, FIELD_BITS)}
    return Match(**fields,
                 nw_src_prefix=draw(st.sampled_from((0, 1, 24, 31, 32))),
                 nw_dst_prefix=draw(st.sampled_from((0, 1, 24, 31, 32))))


@settings(max_examples=500, deadline=None)
@given(st.one_of(any_matches(), exact_matches()))
def test_mask_and_values_equal_the_per_field_loop(match):
    assert _mask_and_values(match) == mask_and_values(match)


# Pairs drawn from a few values per field, so equal and near-equal
# matches are common: same key under another prefix, an address under /0
# against an absent one.
_FEW = {name: st.sampled_from((None, 0, 1)) for name in FIELD_NAMES}
_FEW["nw_src"] = _FEW["nw_dst"] = st.sampled_from(
    (None, 0, 0x0A000001, 0x0A000005))
few_matches = st.builds(
    Match, **_FEW,
    nw_src_prefix=st.sampled_from((0, 24, 30, 32)),
    nw_dst_prefix=st.sampled_from((0, 24, 30, 32)),
)
priorities = st.sampled_from((0, 1))


def _strict_pair_cases():
    """Edge cases the strategy may miss, as (match, match) pairs."""
    addr = 0x0A000001
    return [
        # An address under /0 is wildcarded but still packed; None packs 0.
        (Match(nw_src=addr, nw_src_prefix=0), Match()),
        (Match(nw_dst=addr, nw_dst_prefix=0), Match(nw_dst_prefix=0)),
        # A wildcarded field's prefix is not part of its identity.
        (Match(nw_src_prefix=0), Match(nw_src_prefix=32)),
        (Match(nw_dst_prefix=0), Match()),
        # One flow key under two prefixes.
        (Match(nw_src=addr, nw_src_prefix=24), Match(nw_src=addr)),
        (Match(in_port=1, nw_dst=addr, nw_dst_prefix=31),
         Match(in_port=1, nw_dst=addr, nw_dst_prefix=31)),
    ]


def _table_with(match, priority):
    table = FlowTable()
    table.apply_flow_mod(FlowMod(match, priority=priority,
                                 actions=[OutputAction(1)]), 0.0)
    return table


def _check_strict_pair(a, pa, b, pb):
    same = (a.pack(), pa) == (b.pack(), pb)
    assert ((a.wire_fields(), pa) == (b.wire_fields(), pb)) == same
    # ADD of an identical match and priority replaces the entry.
    table = _table_with(a, pa)
    table.apply_flow_mod(FlowMod(b, priority=pb, actions=[OutputAction(2)]), 0.0)
    assert len(table) == (1 if same else 2)
    # DELETE_STRICT and MODIFY_STRICT select it exactly then.
    table = _table_with(a, pa)
    removed, _ = table.apply_flow_mod(
        FlowMod(b, FlowModCommand.DELETE_STRICT, priority=pb), 0.0)
    assert len(removed) == (1 if same else 0)
    table = _table_with(a, pa)
    table.apply_flow_mod(FlowMod(b, FlowModCommand.MODIFY_STRICT, priority=pb,
                                 actions=[OutputAction(3)]), 0.0)
    assert len(table) == (1 if same else 2)
    assert (table.entries[0].actions == [OutputAction(3)]) == same


def test_strict_key_edge_cases():
    for a, b in _strict_pair_cases():
        for pa, pb in ((0, 0), (0, 1)):
            _check_strict_pair(a, pa, b, pb)
            _check_strict_pair(b, pb, a, pa)


@settings(max_examples=400, deadline=None)
@given(few_matches, priorities, few_matches, priorities)
def test_strict_key_equality_is_packed_match_equality(a, pa, b, pb):
    _check_strict_pair(a, pa, b, pb)
