"""Unit tests for attack actions: the MESSAGEMODIFIER semantics of
Algorithm 1, line 14, and the storage and framework actions."""

import itertools

import pytest

from repro.core.lang import (
    AppendAction,
    Const,
    DelayMessage,
    DropMessage,
    DuplicateMessage,
    EvalContext,
    ExamineFront,
    FuzzMessage,
    GoToState,
    InjectNewMessage,
    MessageRef,
    ModifyMessage,
    ModifyMessageMetadata,
    PassMessage,
    PopAction,
    PrependAction,
    ReadMessage,
    ReadMessageMetadata,
    ShiftAction,
    ShiftExpr,
    Sleep,
    StorageSet,
    Sum,
    SysCmd,
)
from repro.core.lang.actions import ActionContext, OutgoingMessage
from repro.core.lang.properties import Direction, InterposedMessage
from repro.core.model import Capability
from repro.openflow import EchoRequest, FlowMod, Hello, Match, parse_message
from repro.sim import SeededRng

CONN = ("c1", "s2")


def interposed(message, direction=Direction.TO_SWITCH):
    return InterposedMessage(CONN, direction, 0.0, message.pack(), message)


class Harness:
    """Minimal ActionContext factory with recording hooks."""

    def __init__(self, message):
        self.message = message
        self.storage = StorageSet()
        self.out = [OutgoingMessage(message)]
        self.gotos = []
        self.sleeps = []
        self.syscmds = []
        self.records = []
        self.ctx = ActionContext(
            EvalContext(message, self.storage, 1.0),
            self.out,
            goto=self.gotos.append,
            sleep=self.sleeps.append,
            syscmd=lambda host, cmd: self.syscmds.append((host, cmd)),
            record=lambda kind, data: self.records.append((kind, data)),
            rng=SeededRng(1),
        )


class TestCapabilityActions:
    def test_pass_keeps_message(self):
        h = Harness(interposed(Hello()))
        PassMessage().apply(h.ctx)
        assert len(h.out) == 1

    def test_drop_removes_from_out(self):
        h = Harness(interposed(Hello()))
        DropMessage().apply(h.ctx)
        assert h.out == []
        assert h.records[0][0] == "drop_message"

    def test_drop_twice_is_idempotent(self):
        h = Harness(interposed(Hello()))
        DropMessage().apply(h.ctx)
        DropMessage().apply(h.ctx)
        assert h.out == []

    def test_delay_accumulates(self):
        h = Harness(interposed(Hello()))
        DelayMessage(0.5).apply(h.ctx)
        DelayMessage(0.25).apply(h.ctx)
        assert h.out[0].delay == pytest.approx(0.75)

    def test_delay_expression(self):
        h = Harness(interposed(Hello()))
        h.storage.declare("d", [2])
        DelayMessage(ExamineFront("d")).apply(h.ctx)
        assert h.out[0].delay == 2.0

    def test_duplicate_appends_copies(self):
        h = Harness(interposed(Hello()))
        DuplicateMessage(copies=2).apply(h.ctx)
        assert len(h.out) == 3
        assert all(e.injected for e in h.out[1:])
        assert h.out[1].message.raw == h.out[0].message.raw
        assert h.out[1].message.msg_id != h.out[0].message.msg_id

    def test_new_messages_draw_ids_from_the_incoming_sequence(self):
        ids = itertools.count(1)
        h = Harness(InterposedMessage(CONN, Direction.TO_SWITCH, 0.0,
                                      Hello().pack(), ids=ids))
        DuplicateMessage().apply(h.ctx)
        InjectNewMessage(EchoRequest(payload=b"new", xid=5)).apply(h.ctx)
        assert [entry.message.msg_id for entry in h.out] == [1, 2, 3]
        assert next(ids) == 4

    def test_duplicate_requires_positive_copies(self):
        with pytest.raises(ValueError):
            DuplicateMessage(copies=0)

    def test_read_metadata_records_and_stores(self):
        h = Harness(interposed(Hello()))
        ReadMessageMetadata(store_to="log").apply(h.ctx)
        assert h.records[0][0] == "read_message_metadata"
        stored = h.storage.deque("log").examine_front()
        assert stored["source"] == "c1"

    def test_modify_metadata_overrides_destination(self):
        h = Harness(interposed(Hello()))
        ModifyMessageMetadata("destination", "s9").apply(h.ctx)
        assert h.message.destination == "s9"

    def test_modify_metadata_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            ModifyMessageMetadata("color", "red")

    def test_fuzz_changes_bytes_deterministically(self):
        h1 = Harness(interposed(EchoRequest(payload=b"\x00" * 32, xid=1)))
        before = h1.message.raw
        FuzzMessage(bit_flips=8).apply(h1.ctx)
        assert h1.message.raw != before
        assert len(h1.message.raw) == len(before)

    def test_fuzz_preserve_header(self):
        h = Harness(interposed(EchoRequest(payload=b"\x00" * 32, xid=1)))
        before = h.message.raw
        FuzzMessage(bit_flips=4, preserve_header=True).apply(h.ctx)
        assert h.message.raw[:8] == before[:8]

    def test_read_message_stores_replayable_copy(self):
        h = Harness(interposed(Hello()))
        ReadMessage(store_to="q").apply(h.ctx)
        stored = h.storage.deque("q").examine_front()
        assert isinstance(stored, InterposedMessage)
        assert stored.raw == h.message.raw

    def test_modify_message_field(self):
        h = Harness(interposed(FlowMod(Match(in_port=1), idle_timeout=5)))
        ModifyMessage("idle_timeout", 0).apply(h.ctx)
        assert h.message.get_type_option("idle_timeout") == 0
        # Re-encoded bytes parse back with the new value.
        assert parse_message(h.message.raw).idle_timeout == 0

    def test_modify_message_match_field(self):
        h = Harness(interposed(FlowMod(Match(in_port=1))))
        ModifyMessage("match.nw_src", "10.0.0.9").apply(h.ctx)
        assert h.message.get_type_option("match.nw_src") == "10.0.0.9"

    def test_modify_unknown_field_is_noop(self):
        h = Harness(interposed(Hello()))
        ModifyMessage("idle_timeout", 0).apply(h.ctx)
        assert h.records == []

    def test_modify_value_that_does_not_pack_leaves_the_message(self):
        h = Harness(interposed(FlowMod(Match(in_port=1), idle_timeout=5)))
        raw = h.message.raw
        ModifyMessage("idle_timeout", 70000).apply(h.ctx)
        assert h.message.raw == raw
        assert h.message.get_type_option("idle_timeout") == 5  # no half edit
        assert not h.message.payload_replaced
        assert h.records == []

    def test_inject_from_stored_message(self):
        h = Harness(interposed(Hello()))
        h.storage.declare("q", [interposed(EchoRequest(payload=b"z", xid=9))])
        InjectNewMessage(ShiftExpr("q")).apply(h.ctx)
        assert len(h.out) == 2
        assert h.out[1].injected
        assert h.out[1].message.message_type_name == "ECHO_REQUEST"

    def test_inject_literal_openflow_message(self):
        h = Harness(interposed(Hello()))
        InjectNewMessage(EchoRequest(payload=b"new", xid=5)).apply(h.ctx)
        assert h.out[1].message.message_type_name == "ECHO_REQUEST"
        assert h.out[1].message.connection == CONN

    def test_inject_from_factory(self):
        h = Harness(interposed(Hello()))
        InjectNewMessage(lambda ctx: EchoRequest(payload=b"f", xid=1)).apply(h.ctx)
        assert len(h.out) == 2

    def test_inject_none_is_noop(self):
        h = Harness(interposed(Hello()))
        InjectNewMessage(ExamineFront("empty")).apply(h.ctx)
        assert len(h.out) == 1


class TestStorageActions:
    def test_prepend_append_shift_pop(self):
        h = Harness(interposed(Hello()))
        AppendAction("d", Const(1)).apply(h.ctx)
        AppendAction("d", Const(2)).apply(h.ctx)
        PrependAction("d", Const(0)).apply(h.ctx)
        assert h.storage.deque("d").snapshot() == [0, 1, 2]
        ShiftAction("d").apply(h.ctx)
        PopAction("d").apply(h.ctx)
        assert h.storage.deque("d").snapshot() == [1]

    def test_shift_pop_on_empty_are_safe(self):
        h = Harness(interposed(Hello()))
        ShiftAction("empty").apply(h.ctx)
        PopAction("empty").apply(h.ctx)

    def test_store_current_message(self):
        h = Harness(interposed(Hello()))
        AppendAction("msgs", MessageRef()).apply(h.ctx)
        assert h.storage.deque("msgs").examine_front() is h.message

    def test_counter_increment(self):
        h = Harness(interposed(Hello()))
        h.storage.declare("count", [0])
        increment = PrependAction("count", Sum(ShiftExpr("count"), [("+", Const(1))]))
        increment.apply(h.ctx)
        increment.apply(h.ctx)
        assert h.storage.deque("count").examine_front() == 2
        assert len(h.storage.deque("count")) == 1


class TestFrameworkActions:
    def test_goto(self):
        h = Harness(interposed(Hello()))
        GoToState("sigma2").apply(h.ctx)
        assert h.gotos == ["sigma2"]

    def test_sleep(self):
        h = Harness(interposed(Hello()))
        Sleep(2.5).apply(h.ctx)
        assert h.sleeps == [2.5]
        with pytest.raises(ValueError):
            Sleep(-1)

    def test_syscmd(self):
        h = Harness(interposed(Hello()))
        SysCmd("h6", "iperf -s").apply(h.ctx)
        assert h.syscmds == [("h6", "iperf -s")]
        assert h.records[0][0] == "syscmd"


class TestCapabilityRequirements:
    @pytest.mark.parametrize("action,capability", [
        (PassMessage(), Capability.PASS_MESSAGE),
        (DropMessage(), Capability.DROP_MESSAGE),
        (DelayMessage(1.0), Capability.DELAY_MESSAGE),
        (DuplicateMessage(), Capability.DUPLICATE_MESSAGE),
        (ReadMessageMetadata(), Capability.READ_MESSAGE_METADATA),
        (ModifyMessageMetadata("destination", "x"), Capability.MODIFY_MESSAGE_METADATA),
        (FuzzMessage(), Capability.FUZZ_MESSAGE),
        (ReadMessage(), Capability.READ_MESSAGE),
        (ModifyMessage("idle_timeout", 0), Capability.MODIFY_MESSAGE),
        (InjectNewMessage(ExamineFront("q")), Capability.INJECT_NEW_MESSAGE),
    ])
    def test_table1_mapping(self, action, capability):
        assert capability in action.required_capabilities()

    def test_framework_actions_require_nothing(self):
        for action in (GoToState("x"), Sleep(1), SysCmd("h", "c"),
                       ShiftAction("d"), PopAction("d"),
                       PrependAction("d", Const(1))):
            assert action.required_capabilities() == frozenset()

    def test_argument_expressions_add_requirements(self):
        from repro.core.lang import Property
        from repro.core.lang.properties import MessageProperty

        action = AppendAction("d", Property(MessageProperty.TYPE))
        assert Capability.READ_MESSAGE in action.required_capabilities()
