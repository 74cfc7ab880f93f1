"""Acceptance tests: Decay broadcast on the topology suite.

The ISSUE's bar: Decay delivers the source message to all nodes on line,
grid, G(n,p), and dumbbell topologies (n up to 256) within
``ProtocolParams.fast()`` budgets, deterministically reproducible from a
seed, with collision events observable through the engine's feedback API.
"""

import pytest

from oracles import DecayProtocol, FeedbackKind, oracle_engine
from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim import run_broadcast
from repro.sim.decay import DecayArrayProtocol
from repro.sim.topology import dumbbell, gnp, grid2d, line, ring, star, unit_disk

FAST = ProtocolParams.fast()


class TestDelivery:
    @pytest.mark.parametrize(
        "net",
        [
            line(256),
            grid2d(16, 16),
            gnp(256, 0.05, seed=2),
            dumbbell(126, 4),
        ],
        ids=["line-256", "grid-16x16", "gnp-256", "dumbbell-256"],
    )
    def test_delivers_on_acceptance_topologies_n256(self, net):
        result = run_broadcast("decay", net, FAST, seed=0)
        assert result.n == 256
        assert result.rounds_to_delivery <= result.budget
        assert max(result.informed_rounds) < result.rounds_to_delivery + 1
        assert result.informed_rounds[net.source] == 0

    @pytest.mark.parametrize(
        "net",
        [
            line(2),
            ring(17, source=5),
            star(64),
            star(64, source=9),
            unit_disk(48, 0.35, seed=4),
            grid2d(n=50),
        ],
        ids=["line-2", "ring-17", "star-hub-src", "star-leaf-src", "udg-48", "grid-50"],
    )
    def test_delivers_on_small_topologies(self, net):
        result = run_broadcast("decay", net, FAST, seed=1)
        assert result.rounds_to_delivery <= result.budget

    def test_single_node_is_trivially_delivered(self):
        result = run_broadcast("decay", line(1), FAST, seed=0)
        assert result.rounds_to_delivery == 0
        assert result.informed_rounds == (0,)

    def test_line_advances_one_layer_per_phase(self):
        # On a path the frontier node has exactly one informed neighbour,
        # which transmits deterministically in the first round of each
        # phase, so delivery takes exactly (n-1) phases.
        net = line(32)
        result = run_broadcast("decay", net, FAST, seed=0)
        assert result.phases_to_delivery == 31


class TestReproducibility:
    def test_same_seed_same_outcome(self):
        net = dumbbell(20, 3)
        a = run_broadcast("decay", net, FAST, seed=7)
        b = run_broadcast("decay", net, FAST, seed=7)
        assert a.rounds_to_delivery == b.rounds_to_delivery
        assert a.informed_rounds == b.informed_rounds

    def test_different_seeds_usually_differ(self):
        net = gnp(64, 0.1, seed=0)
        outcomes = {run_broadcast("decay", net, FAST, seed=s).informed_rounds for s in range(5)}
        assert len(outcomes) > 1


class TestFailureAndObservability:
    def test_budget_expiry_raises_with_undelivered_set(self):
        net = line(64)
        with pytest.raises(BroadcastFailure) as excinfo:
            run_broadcast("decay", net, FAST, seed=0, budget=10)
        undelivered = excinfo.value.undelivered
        assert len(undelivered) > 0
        assert set(undelivered) <= set(range(64))
        assert 0 not in undelivered  # the source itself is always informed

    def test_zero_budget_reports_everyone_but_source(self):
        net = line(8)
        with pytest.raises(BroadcastFailure) as excinfo:
            run_broadcast("decay", net, FAST, seed=0, budget=0)
        assert excinfo.value.undelivered == tuple(range(1, 8))

    def test_collisions_are_observable_in_decay_run(self):
        # On a grid from a corner source, the diagonal frontier node (1,1)
        # has two informed neighbours — (0,1) and (1,0) — by the second
        # phase start, and both transmit deterministically in that round, so
        # a collision is guaranteed and recorded in the engine ground truth.
        net = grid2d(8, 8)
        result = run_broadcast("decay", net, FAST, seed=0, trace=True)
        assert result.sim.total_collisions > 0
        rounds_with_collisions = [s for s in result.sim.history if s.collisions]
        assert rounds_with_collisions, "expected at least one collision event"

    def test_collision_feedback_reaches_listening_protocol(self):
        # Two informed neighbours of an uninformed listener transmit in the
        # first round of a phase -> with collision detection enabled, the
        # listener's on_feedback sees a COLLISION it can in principle use.
        from repro.sim.topology import RadioNetwork

        # triangle source plus a listener attached to both non-source nodes
        net = RadioNetwork(
            [[1, 2], [0, 2, 3], [0, 1, 3], [1, 2]], source=0, name="kite"
        )
        heard: list[FeedbackKind] = []

        class Eavesdropping(DecayProtocol):
            def on_feedback(self, round_index, feedback):
                if self.ctx.node == 3:
                    heard.append(feedback.kind)
                super().on_feedback(round_index, feedback)

        protocols = [Eavesdropping() for _ in range(net.n)]
        engine = oracle_engine(net, protocols, seed=3, collision_detection=True, params=FAST)
        engine.run(
            FAST.decay_broadcast_rounds(net.eccentricity(), net.n),
            stop_when=lambda eng: all(p.informed for p in protocols),
        )
        assert all(p.informed for p in protocols)
        assert FeedbackKind.COLLISION in heard


class TestProtocolDetails:
    def test_decay_is_registered(self):
        from repro.sim.core import array_protocol_class, available_array_protocols

        assert "decay" in available_array_protocols()
        assert array_protocol_class("decay") is DecayArrayProtocol

    def test_custom_payload_propagates(self):
        net = grid2d(4, 4)
        result = run_broadcast("decay", net, FAST, seed=0, message={"k": "v"})
        assert result.rounds_to_delivery <= result.budget

    def test_custom_message_arrives_verbatim_at_every_node(self):
        # Regression for the injection-ordering bug: the driver used to
        # patch protocols[source].message *after* setup() had already stored
        # the default, so a custom payload relied on call ordering.  It is
        # now injected at construction; the object must reach every node by
        # identity.
        payload = ("custom", {"nested": [1, 2, 3]})
        net = dumbbell(6, 2)
        protocols = [DecayProtocol(message=payload) for _ in range(net.n)]
        engine = oracle_engine(net, protocols, seed=4, params=FAST)
        engine.run(
            FAST.decay_broadcast_rounds(net.eccentricity(), net.n),
            stop_when=lambda eng: all(p.informed for p in protocols),
        )
        assert all(p.informed for p in protocols)
        assert all(p.message is payload for p in protocols)

    def test_run_decay_injects_before_setup(self):
        # End-to-end: the driver itself must deliver the custom payload
        # verbatim without any post-setup patching.
        net = line(6)
        sentinel = object()

        received = []

        class Recording(DecayProtocol):
            def on_feedback(self, round_index, feedback):
                was_informed = self.informed
                super().on_feedback(round_index, feedback)
                if not was_informed and self.informed:
                    received.append(self.message)

        protocols = [Recording(message=sentinel) for _ in range(net.n)]
        engine = oracle_engine(net, protocols, seed=0, params=FAST)
        engine.run(
            FAST.decay_broadcast_rounds(net.eccentricity(), net.n),
            stop_when=lambda eng: all(p.informed for p in protocols),
        )
        assert len(received) == net.n - 1
        assert all(msg is sentinel for msg in received)

    def test_protocol_constructor_rejects_none_message(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="non-None"):
            DecayArrayProtocol(message=None)

    def test_none_message_rejected_at_api_boundary(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="non-None"):
            run_broadcast("decay", grid2d(4, 4), FAST, message=None)

    def test_collision_detection_flag_does_not_change_decay(self):
        # Decay ignores the channel feedback beyond clean receipts, so runs
        # with and without collision detection are identical coin-for-coin.
        net = gnp(48, 0.12, seed=5)
        a = run_broadcast("decay", net, FAST, seed=2, collision_detection=False)
        b = run_broadcast("decay", net, FAST, seed=2, collision_detection=True)
        assert a.informed_rounds == b.informed_rounds
