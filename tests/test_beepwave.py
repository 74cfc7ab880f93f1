"""Tests for the beep-wave synchronization layer."""

import pytest

from oracles import Feedback, FeedbackKind, in_layer_slot, is_beep
from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim.beepwave import WAVE_PULSE, BeepWaveArrayProtocol, run_beep_wave
from repro.sim.topology import dumbbell, from_spec, grid2d, line, star

FAST = ProtocolParams.fast()


def true_layers(net) -> list[int]:
    dist = [None] * net.n
    for d, layer in enumerate(net.bfs_layers()):
        for v in layer:
            dist[v] = d
    return dist


class TestWaveDistances:
    @pytest.mark.parametrize(
        "family", ["line", "ring", "star", "grid", "gnp", "dumbbell", "unit_disk"]
    )
    def test_wave_learns_exact_bfs_layers(self, family):
        net = from_spec(family, 48, seed=3)
        result = run_beep_wave(net, FAST, seed=3)
        assert list(result.wave_distances) == true_layers(net)

    def test_wave_advances_one_hop_per_round(self):
        # The last layer relays in round ecc, so the run is exactly ecc + 1
        # rounds — the defining property of the wave.
        net = line(20)
        result = run_beep_wave(net, FAST)
        assert result.rounds_run == net.eccentricity() + 1
        assert result.budget == net.eccentricity() + 1

    def test_wave_is_deterministic_and_coin_free(self):
        # The wave uses no randomness: any two seeds give identical traces.
        net = grid2d(7, 7)
        a = run_beep_wave(net, FAST, seed=0, trace=True)
        b = run_beep_wave(net, FAST, seed=99, trace=True)
        assert a.wave_distances == b.wave_distances
        assert a.sim.history == b.sim.history

    def test_single_node_wave(self):
        result = run_beep_wave(line(1), FAST)
        assert result.wave_distances == (0,)


class TestCollisionDetectionIsEssential:
    def test_wave_survives_collisions_with_detection(self):
        # Star from a leaf: the hub's relay reaches all leaves at once; the
        # dumbbell's clique relays collide massively.  With detection the
        # wave still sweeps cleanly.
        for net in (star(32, source=5), dumbbell(12, 2)):
            result = run_beep_wave(net, FAST, collision_detection=True)
            assert list(result.wave_distances) == true_layers(net)

    def test_wave_stalls_without_detection(self):
        # On a grid from the corner, layer 1's two relays collide at the
        # diagonal node, which then never hears a clean first beep in time:
        # collision-as-silence kills the wave.
        net = grid2d(8, 8)
        with pytest.raises(BroadcastFailure, match="unsynchronized"):
            run_beep_wave(net, FAST, collision_detection=False)

    def test_uncontended_wave_works_even_without_detection(self):
        # A path never has two simultaneous relays in range of a listener.
        net = line(12)
        result = run_beep_wave(net, FAST, collision_detection=False)
        assert list(result.wave_distances) == true_layers(net)


class TestFailureModes:
    def test_budget_expiry_reports_unsynchronized_nodes(self):
        net = line(16)
        with pytest.raises(BroadcastFailure) as excinfo:
            run_beep_wave(net, FAST, budget=4)
        # Nodes beyond the wavefront at round 4 are exactly 5..15.
        assert excinfo.value.undelivered == tuple(range(5, 16))


class TestPrimitives:
    def test_is_beep_predicate(self):
        assert is_beep(Feedback(FeedbackKind.MESSAGE, round_index=0, message="x"))
        assert is_beep(Feedback(FeedbackKind.COLLISION, round_index=0))
        assert not is_beep(Feedback(FeedbackKind.SILENCE, round_index=0))

    def test_in_layer_slot_spacing_arithmetic(self):
        # Layer 2, spacing 3: owns rounds 2, 5, 8, ...; the first (the sync
        # relay itself) is not a repeat slot.
        assert not in_layer_slot(2, 2, 3)
        assert in_layer_slot(5, 2, 3)
        assert in_layer_slot(8, 2, 3)
        assert not in_layer_slot(6, 2, 3)
        assert not in_layer_slot(1, 2, 3)

    def test_adjacent_layers_never_share_a_slot(self):
        spacing = 3
        for d in range(6):
            for r in range(40):
                owners = [
                    layer
                    for layer in (d - 1, d, d + 1)
                    if layer >= 0 and in_layer_slot(r, layer, spacing)
                ]
                assert len(owners) <= 1

    def test_wave_pulse_is_a_singleton_sentinel(self):
        assert repr(WAVE_PULSE) == "WAVE_PULSE"
        from repro.sim import beepwave

        assert beepwave.WAVE_PULSE is WAVE_PULSE

    def test_beepwave_is_registered(self):
        from repro.sim.core import array_protocol_class, available_array_protocols

        assert "beepwave" in available_array_protocols()
        assert array_protocol_class("beepwave") is BeepWaveArrayProtocol
