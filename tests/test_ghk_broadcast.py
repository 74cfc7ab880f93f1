"""Tests for the GHK collision-detection broadcast protocol."""

import pytest

from oracles import GHKBroadcastProtocol, oracle_engine
from repro.errors import BroadcastFailure, ConfigurationError
from repro.params import ProtocolParams
from repro.sim import run_broadcast
from repro.sim.ghk_broadcast import GHKArrayProtocol
from repro.sim.topology import dumbbell, from_spec, gnp, grid2d, line, ring, star

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
        result = run_broadcast("ghk", net, FAST, seed=0)
        assert result.n == 256
        assert result.rounds_to_delivery <= result.budget
        assert result.informed_rounds[net.source] == 0
        assert max(result.informed_rounds) < result.rounds_to_delivery + 1

    @pytest.mark.parametrize(
        "net",
        [
            line(2),
            ring(17, source=5),
            star(64),
            star(64, source=9),
            from_spec("unit_disk", 48, seed=4),
            grid2d(n=50),
        ],
        ids=["line-2", "ring-17", "star-hub-src", "star-leaf-src", "udg-48", "grid-50"],
    )
    def test_delivers_on_small_topologies(self, net):
        result = run_broadcast("ghk", net, FAST, seed=1)
        assert result.rounds_to_delivery <= result.budget

    def test_single_node_is_trivially_delivered(self):
        result = run_broadcast("ghk", line(1), FAST, seed=0)
        assert result.rounds_to_delivery == 0
        assert result.informed_rounds == (0,)

    def test_path_is_informed_by_the_wave_itself(self):
        # On a path every pulse is uncontended and carries the message, so
        # delivery completes with the sync wave: exactly ecc rounds — the
        # O(D) regime, against Decay's one-phase-per-hop Θ(D log n).
        for n in (8, 33, 64):
            net = line(n)
            result = run_broadcast("ghk", net, FAST, seed=0)
            assert result.rounds_to_delivery == net.eccentricity()
            # Each node is informed the round the wavefront passes it.
            assert result.informed_rounds == tuple(max(0, d - 1) for d in range(n))

    def test_wave_distances_match_bfs_layers(self):
        net = grid2d(9, 6)
        result = run_broadcast("ghk", net, FAST, seed=2)
        truth = [None] * net.n
        for d, layer in enumerate(net.bfs_layers()):
            for v in layer:
                truth[v] = d
        assert list(result.wave_distances) == truth


class TestMessageInjection:
    def test_custom_message_arrives_verbatim_at_every_node(self):
        # Regression: the payload is injected at construction, so a custom
        # message must reach every node by identity, not by setup() ordering.
        payload = {"k": ("nested", 7)}
        net = grid2d(5, 5)
        protocols = [GHKBroadcastProtocol(message=payload) for _ in range(net.n)]
        engine = oracle_engine(net, protocols, seed=0, collision_detection=True, params=FAST)
        engine.run(
            FAST.ghk_broadcast_rounds(net.eccentricity(), net.n),
            stop_when=lambda eng: all(p.informed for p in protocols),
        )
        assert all(p.informed for p in protocols)
        assert all(p.message is payload for p in protocols)

    def test_none_message_rejected_at_both_boundaries(self):
        with pytest.raises(ConfigurationError, match="non-None"):
            run_broadcast("ghk", grid2d(3, 3), FAST, message=None)
        with pytest.raises(ConfigurationError, match="non-None"):
            GHKArrayProtocol(message=None)

    def test_wave_pulse_sentinel_rejected_as_message(self):
        # The sentinel payload means "content-free pulse": a broadcast of
        # the sentinel itself could never be recognised as delivered, so it
        # must be rejected up front, not burn the budget into a misleading
        # BroadcastFailure.
        from repro.sim.beepwave import WAVE_PULSE

        with pytest.raises(ConfigurationError, match="reserved"):
            run_broadcast("ghk", grid2d(3, 3), FAST, message=WAVE_PULSE)
        with pytest.raises(ConfigurationError, match="reserved"):
            GHKArrayProtocol(message=WAVE_PULSE)


class TestCollisionDetectionRequirement:
    def test_driver_rejects_collision_blind_channel(self):
        with pytest.raises(ConfigurationError, match="requires collision detection"):
            run_broadcast("ghk", line(4), FAST, collision_detection=False)

    def test_protocol_rejects_collision_blind_engine(self):
        from repro.sim import ArrayEngine

        with pytest.raises(ConfigurationError, match="requires collision detection"):
            ArrayEngine(line(3), GHKArrayProtocol(), collision_detection=False, params=FAST)


class TestFailureAndReproducibility:
    def test_budget_expiry_raises_with_undelivered_set(self):
        net = line(64)
        with pytest.raises(BroadcastFailure) as excinfo:
            run_broadcast("ghk", net, FAST, seed=0, budget=10)
        undelivered = excinfo.value.undelivered
        assert len(undelivered) > 0
        assert set(undelivered) <= set(range(1, 64))

    def test_same_seed_same_trace(self):
        net = gnp(40, 0.15, seed=6)
        a = run_broadcast("ghk", net, FAST, seed=11, trace=True)
        b = run_broadcast("ghk", net, FAST, seed=11, trace=True)
        assert a.rounds_to_delivery == b.rounds_to_delivery
        assert a.informed_rounds == b.informed_rounds
        assert a.sim.history == b.sim.history

    def test_ghk_is_registered(self):
        from repro.sim.core import array_protocol_class, available_array_protocols

        assert "ghk" in available_array_protocols()
        assert array_protocol_class("ghk") is GHKArrayProtocol

    def test_uses_collision_feedback_on_contended_topologies(self):
        # On a grid from the corner, every interior diagonal node hears two
        # simultaneous pulse relays — a guaranteed collision that the wave
        # *uses* as a beep (the same configuration stalls the wave entirely
        # when detection is off, see test_beepwave).  The ground truth must
        # show the collisions GHK turned into synchronization.
        net = grid2d(8, 8)
        result = run_broadcast("ghk", net, FAST, seed=0, trace=True)
        assert result.sim.total_collisions > 0
        first_wave_collisions = [
            s for s in result.sim.history if s.collisions and s.round_index < 14
        ]
        assert first_wave_collisions, "the sync wave itself must collide on a grid"
