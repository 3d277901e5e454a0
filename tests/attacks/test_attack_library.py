"""Unit tests for the reusable attack library (structure + executor runs)."""

import pytest

from repro.attacks import (
    connection_interruption_attack,
    counting_attack_deque,
    counting_attack_naive,
    delay_attack,
    flow_mod_suppression_attack,
    fuzzing_attack,
    passthrough_attack,
    reordering_attack,
    replay_attack,
)
from repro.core.injector import AttackExecutor
from repro.core.lang.properties import Direction, InterposedMessage
from repro.experiments.suppression import run_cell
from repro.netlib import Ipv4Address
from repro.openflow import EchoRequest, FlowMod, Hello, Match
from repro.sim import SimulationEngine

CONN = ("c1", "s2")
CONNS = [("c1", "s1"), ("c1", "s2")]


def interposed(message, connection=CONN, direction=Direction.TO_SWITCH):
    return InterposedMessage(connection, direction, 0.0, message.pack(), message)


def executor_for(attack):
    return AttackExecutor(attack, SimulationEngine())


class TestSuppressionAttack:
    def test_structure_matches_fig10(self):
        attack = flow_mod_suppression_attack(CONNS)
        assert set(attack.states) == {"sigma1"}
        assert attack.start == "sigma1"
        # σ1 is both start and absorbing; no end states.
        assert attack.graph.absorbing_states() == {"sigma1"}
        assert attack.graph.end_states() == frozenset()
        rule = attack.states["sigma1"].rules[0]
        assert rule.name == "phi1"
        assert rule.connections == frozenset(CONNS)

    def test_drops_flow_mods_passes_rest(self):
        executor = executor_for(flow_mod_suppression_attack(CONNS))
        assert executor.handle_message(interposed(FlowMod(Match()))) == []
        assert len(executor.handle_message(interposed(Hello()))) == 1
        assert len(executor.handle_message(interposed(EchoRequest()))) == 1

    def test_single_connection_form(self):
        attack = flow_mod_suppression_attack(CONN)
        assert attack.states["sigma1"].rules[0].connections == frozenset({CONN})


class TestInterruptionAttack:
    def build(self):
        return connection_interruption_attack(
            CONN, "10.0.0.2", ["10.0.0.3", "10.0.0.4", "10.0.0.5", "10.0.0.6"]
        )

    def test_structure_matches_fig12(self):
        attack = self.build()
        assert set(attack.states) == {"sigma1", "sigma2", "sigma3"}
        assert attack.graph.successors("sigma1") == {"sigma2"}
        assert attack.graph.successors("sigma2") == {"sigma3"}
        assert attack.graph.absorbing_states() == {"sigma3"}
        # σ3 is absorbing but not an end state (it has the drop-all rule).
        assert attack.graph.end_states() == frozenset()

    def test_progression_on_trigger(self):
        executor = executor_for(self.build())
        # Connection setup (switch HELLO) advances to sigma2; the message
        # itself passes.
        hello = interposed(Hello(), direction=Direction.TO_CONTROLLER)
        assert len(executor.handle_message(hello)) == 1
        assert executor.current_state_name == "sigma2"
        # An unrelated flow mod does not trigger phi2.
        unrelated = interposed(FlowMod(Match(nw_src=Ipv4Address("10.0.0.6"),
                                             nw_dst=Ipv4Address("10.0.0.1"))))
        assert len(executor.handle_message(unrelated)) == 1
        assert executor.current_state_name == "sigma2"
        # The firewall drop rule for h2 -> internal triggers and is dropped.
        trigger = interposed(FlowMod(Match(nw_src=Ipv4Address("10.0.0.2"),
                                           nw_dst=Ipv4Address("10.0.0.3"))))
        assert executor.handle_message(trigger) == []
        assert executor.current_state_name == "sigma3"
        # Everything on the connection is now black-holed.
        assert executor.handle_message(interposed(Hello())) == []
        assert executor.handle_message(interposed(EchoRequest())) == []

    def test_ryu_style_flow_mod_never_triggers(self):
        """The Table II anomaly at language level."""
        executor = executor_for(self.build())
        executor.handle_message(interposed(Hello(), direction=Direction.TO_CONTROLLER))
        l2_only = interposed(FlowMod(Match(in_port=1)))  # no nw fields
        for _ in range(10):
            assert len(executor.handle_message(l2_only.copy())) == 1
        assert executor.current_state_name == "sigma2"

    def test_other_connections_unaffected(self):
        executor = executor_for(self.build())
        other = interposed(FlowMod(Match()), connection=("c1", "s1"))
        assert len(executor.handle_message(other)) == 1


class TestReordering:
    def test_batch_released_in_reverse(self):
        attack = reordering_attack(CONN, batch_size=3)
        executor = executor_for(attack)
        emitted = []
        for index in range(6):
            message = EchoRequest(payload=f"m{index}".encode(), xid=index + 1)
            for out in executor.handle_message(interposed(message)):
                emitted.append(out.message.parsed.payload.decode())
        assert emitted == ["m2", "m1", "m0", "m5", "m4", "m3"]

    def test_counter_stays_single_cell(self):
        attack = reordering_attack(CONN, batch_size=2)
        executor = executor_for(attack)
        for index in range(8):
            executor.handle_message(
                interposed(EchoRequest(payload=b"x", xid=index + 1))
            )
        assert len(executor.storage.deque("count")) == 1
        assert len(executor.storage.deque("stack")) == 0

    def test_batch_too_small_rejected(self):
        with pytest.raises(ValueError):
            reordering_attack(CONN, batch_size=1)


class TestReplayAndFlood:
    def feed(self, executor, count):
        emitted = []
        for index in range(count):
            message = EchoRequest(payload=f"m{index}".encode(), xid=index + 1)
            for out in executor.handle_message(interposed(message)):
                emitted.append(out.message.parsed.payload.decode())
        return emitted

    def test_replay_fifo(self):
        attack = replay_attack(CONN, condition_text="type = ECHO_REQUEST",
                               batch_size=2, replay_copies=1)
        emitted = self.feed(executor_for(attack), 3)
        assert emitted == ["m0", "m1", "m0", "m1", "m2"]

    def test_flood_multiplies(self):
        attack = replay_attack(CONN, condition_text="type = ECHO_REQUEST",
                               batch_size=2, replay_copies=3)
        emitted = self.feed(executor_for(attack), 3)
        assert emitted == ["m0", "m1"] + ["m0"] * 3 + ["m1"] * 3 + ["m2"]

    def test_injected_messages_flagged(self):
        attack = replay_attack(CONN, condition_text="type = ECHO_REQUEST",
                               batch_size=1)
        executor = executor_for(attack)
        executor.handle_message(interposed(EchoRequest(payload=b"a", xid=1)))
        out = executor.handle_message(interposed(EchoRequest(payload=b"b", xid=2)))
        assert [o.injected for o in out] == [False, True]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            replay_attack(CONN, batch_size=0)
        with pytest.raises(ValueError):
            replay_attack(CONN, replay_copies=0)


class TestDelayAndFuzzBuilders:
    def test_delay_marks_outgoing(self):
        executor = executor_for(delay_attack(CONN, "type = HELLO", delay_s=0.7))
        out = executor.handle_message(interposed(Hello()))
        assert out[0].delay == pytest.approx(0.7)
        out2 = executor.handle_message(interposed(EchoRequest()))
        assert out2[0].delay == 0.0

    def test_delay_requires_positive(self):
        with pytest.raises(ValueError):
            delay_attack(CONN, delay_s=0)

    def test_fuzz_mutates_matching(self):
        executor = executor_for(
            fuzzing_attack(CONN, "type = ECHO_REQUEST", bit_flips=4)
        )
        message = EchoRequest(payload=b"\x00" * 16, xid=1)
        original = message.pack()
        out = executor.handle_message(interposed(message))
        assert out[0].message.raw != original

    def test_fuzz_limit_reaches_end_state(self):
        executor = executor_for(
            fuzzing_attack(CONN, "type = ECHO_REQUEST", max_messages=2)
        )
        for index in range(2):
            executor.handle_message(interposed(EchoRequest(payload=b"x")))
        assert executor.current_state_name == "sigma_end"
        # End state: messages flow untouched.
        message = EchoRequest(payload=b"untouched")
        out = executor.handle_message(interposed(message))
        assert out[0].message.raw == message.pack()

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzzed_flow_mods_do_not_crash_the_run(self, seed):
        """A switch drops the connection on a FLOW_MOD whose fuzzed
        action list does not decode, instead of ending the run."""
        record = run_cell(
            "floodlight", attack="fuzzing", seed=seed,
            attack_params={"condition_text": "type = FLOW_MOD", "bit_flips": 16},
            ping_trials=3, iperf_trials=1, iperf_duration_s=0.5,
            iperf_gap_s=0.5, warmup_s=2.0,
        )
        assert record["attacked"]


class TestPassthrough:
    def test_passes_everything(self):
        executor = executor_for(passthrough_attack(CONNS))
        for message in (Hello(), FlowMod(Match()), EchoRequest()):
            out = executor.handle_message(interposed(message))
            assert len(out) == 1
            assert out[0].message.raw == message.pack()


class TestCountingBuilders:
    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            counting_attack_naive(CONN, 0)
        with pytest.raises(ValueError):
            counting_attack_deque(CONN, 0)

    def test_memory_footprint_claim(self):
        """Section VIII-B: O(n) naive states vs O(1) deque states."""
        for n in (10, 100):
            assert len(counting_attack_naive(CONN, n).states) == n + 1
            assert len(counting_attack_deque(CONN, n).states) == 2


class TestAttackRegistry:
    """The named registry campaigns and the CLI resolve attacks through."""

    def test_all_stock_attacks_registered(self):
        from repro.attacks import list_attacks

        names = list_attacks()
        for expected in (
            "passthrough", "flow-mod-suppression", "connection-interruption",
            "blackhole", "delay", "replay", "reordering", "fuzzing",
            "stats-evasion", "link-fabrication", "stochastic-drop",
            "counting-naive", "counting-deque",
        ):
            assert expected in names

    def test_build_attack_binds_connections_when_wanted(self):
        from repro.attacks import build_attack

        attack = build_attack("flow-mod-suppression", connections=CONNS)
        assert attack.name == "flow-mod-suppression"
        built = build_attack("delay", connections=CONNS, delay_s=0.25)
        assert built.name == "message-delay"
        # Factories without a connections parameter still build.
        deque = build_attack("counting-deque", connections=CONNS, n=3)
        assert len(deque.states) == 2

    def test_registry_rejects_conflicts_and_unknowns(self):
        from repro.attacks import get_attack_factory, register_attack

        with pytest.raises(KeyError, match="unknown attack"):
            get_attack_factory("warp-core")
        factory = get_attack_factory("delay")
        # Re-registering the same factory is idempotent...
        register_attack("delay", factory)
        # ...but a different callable needs replace=True.
        with pytest.raises(ValueError, match="already registered"):
            register_attack("delay", lambda: None)

    def test_custom_registration_roundtrip(self):
        from repro.attacks import build_attack, register_attack

        def tiny(connections):
            return passthrough_attack(connections)

        register_attack("test-tiny", tiny, replace=True)
        try:
            attack = build_attack("test-tiny", connections=CONNS)
            assert attack.name == "passthrough"
        finally:
            from repro.attacks.library import _REGISTRY

            _REGISTRY.pop("test-tiny", None)
