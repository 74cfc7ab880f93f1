"""Tests for the k-message pipelined broadcast (array protocol + oracle)."""

import numpy as np
import pytest

from oracles import WAVE_PULSE, MultiMessageProtocol
from repro.errors import BroadcastFailure, ConfigurationError
from repro.params import WAVE_SPACING, ProtocolParams
from repro.sim import (
    BroadcastResult,
    MultiMessageArrayProtocol,
    run_broadcast,
    run_broadcast_batch,
)
from repro.sim.core.batch import ArrayEngine
from repro.sim.topology import from_spec, line, star

FAST = ProtocolParams.fast()


class TestDelivery:
    @pytest.mark.parametrize("family", ["line", "ring", "grid", "dumbbell"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_delivers_all_k_messages_on_every_family(self, family, k):
        net = from_spec(family, 24, seed=2)
        result = run_broadcast("multimessage", net, FAST, seed=2, options={"k_messages": k})
        assert isinstance(result, BroadcastResult)
        assert result.rounds_to_delivery <= result.budget
        assert len(result.informed_rounds) == net.n
        if k == 1:
            # One message: its arrival rounds are the informed rounds.
            assert result.message_rounds == ()
        else:
            assert len(result.message_rounds) == net.n
            assert all(len(per_node) == k for per_node in result.message_rounds)

    def test_source_starts_with_everything(self):
        net = line(8)
        result = run_broadcast("multimessage", net, FAST, seed=0, options={"k_messages": 3})
        src = net.source
        assert result.informed_rounds[src] == 0
        assert result.message_rounds[src] == (0, 0, 0)

    def test_informed_round_is_the_last_message_round(self):
        net = from_spec("grid", 25, seed=1)
        result = run_broadcast("multimessage", net, FAST, seed=1, options={"k_messages": 4})
        for node in range(net.n):
            assert result.informed_rounds[node] == max(result.message_rounds[node])

    def test_wave_distances_are_the_bfs_layers(self):
        net = from_spec("grid", 25, seed=3)
        result = run_broadcast("multimessage", net, FAST, seed=3, options={"k_messages": 4})
        layers = net.bfs_layers()
        for depth, layer in enumerate(layers):
            for node in layer:
                assert result.wave_distances[node] == depth

    def test_star_hub_source_is_near_instant(self):
        # Every leaf neighbours the hub: the source pumps one message per
        # owned slot, so k messages land in O(k) slots.
        result = run_broadcast("multimessage", star(12), FAST, seed=0, options={"k_messages": 4})
        assert result.rounds_to_delivery <= 4 * WAVE_SPACING + 1

    def test_deterministic_in_seed(self):
        net = from_spec("gnp", 20, seed=5)
        a = run_broadcast("multimessage", net, FAST, seed=5, options={"k_messages": 4})
        b = run_broadcast("multimessage", net, FAST, seed=5, options={"k_messages": 4})
        assert a == b

    def test_starved_budget_raises_with_undelivered(self):
        with pytest.raises(BroadcastFailure) as exc:
            run_broadcast(
                "multimessage", line(16), FAST, seed=0, options={"k_messages": 4}, budget=3
            )
        assert exc.value.undelivered
        assert exc.value.budget == 3
        assert exc.value.sim is not None

    def test_batch_returns_failures_as_values(self):
        results = run_broadcast_batch(
            "multimessage",
            [line(16)],
            seeds=[0],
            params=FAST,
            budget=3,
            options={"k_messages": 4},
        )
        assert isinstance(results[0], BroadcastFailure)
        assert results[0].budget == 3


class TestValidation:
    @pytest.mark.parametrize("proto_cls", [MultiMessageProtocol, MultiMessageArrayProtocol])
    @pytest.mark.parametrize("bad_k", [0, -1, 1.5, "4", True])
    def test_rejects_bad_k(self, proto_cls, bad_k):
        with pytest.raises(ConfigurationError, match="k_messages"):
            proto_cls(k_messages=bad_k)

    # Only the oracle transmits payload objects, so only it reserves the
    # pulse sentinel.
    @pytest.mark.parametrize("proto_cls", [MultiMessageProtocol])
    def test_rejects_wave_pulse_payload(self, proto_cls):
        with pytest.raises(ConfigurationError, match="WAVE_PULSE"):
            proto_cls(message=WAVE_PULSE)

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="does not accept option"):
            run_broadcast("multimessage", line(4), FAST, options={"k_mesages": 2})

    def test_single_message_protocols_reject_k_option(self):
        with pytest.raises(ConfigurationError, match="does not accept option"):
            run_broadcast("decay", line(4), FAST, options={"k_messages": 2})
        with pytest.raises(ConfigurationError, match="does not accept option"):
            run_broadcast_batch("ghk", [line(4)], options={"k_messages": 2})


class TestPipelining:
    def test_budget_grows_linearly_in_k(self):
        net = line(16)
        budgets = [
            run_broadcast("multimessage", net, FAST, seed=0, options={"k_messages": k}).budget
            for k in (1, 2, 4)
        ]
        assert budgets[0] < budgets[1] < budgets[2]

    @pytest.mark.statistical
    def test_k4_beats_four_sequential_broadcasts_on_line(self):
        # The acceptance property at test scale: pipelining k messages is
        # cheaper than k sequential runs on the diameter-dominated family.
        nets = [line(48) for _ in range(10)]
        singles = run_broadcast_batch(
            "multimessage", nets, seeds=range(10), params=FAST,
            options={"k_messages": 1},
        )
        pipelined = run_broadcast_batch(
            "multimessage", nets, seeds=range(10), params=FAST,
            options={"k_messages": 4},
        )
        mean_1 = np.mean([r.rounds_to_delivery for r in singles])
        mean_4 = np.mean([r.rounds_to_delivery for r in pipelined])
        assert mean_4 < 4 * mean_1

    @pytest.mark.statistical
    @pytest.mark.parametrize("family", ["line", "ring", "grid", "dumbbell"])
    def test_no_failures_across_seeds(self, family):
        nets = [from_spec(family, 32, seed=s) for s in range(10)]
        for k in (1, 4, 8):
            results = run_broadcast_batch(
                "multimessage", nets, seeds=range(10), params=FAST,
                options={"k_messages": k},
            )
            failures = [r for r in results if isinstance(r, BroadcastFailure)]
            assert not failures, (family, k, failures)


class TestArrayState:
    def test_message_delivery_rounds_match_result(self):
        net = from_spec("grid", 16, seed=0)
        proto = MultiMessageArrayProtocol(k_messages=3)
        engine = ArrayEngine(net, proto, seed=0, params=FAST)
        engine.run(10_000, stop_when=lambda e: proto.done())
        result = run_broadcast(
            "multimessage", net, FAST, seed=0, options={"k_messages": 3}
        )
        assert proto.result_fields() == {
            "wave_distances": result.wave_distances,
            "message_rounds": result.message_rounds,
        }

    def test_undelivered_lists_nodes_missing_any_message(self):
        net = line(12)
        proto = MultiMessageArrayProtocol(k_messages=2)
        engine = ArrayEngine(net, proto, seed=0, params=FAST)
        engine.run(2)
        undelivered = proto.undelivered()
        assert undelivered  # two rounds cannot possibly deliver everything
        held_all = np.nonzero(proto.known.all(axis=1))[0].tolist()
        assert sorted(set(range(net.n)) - set(undelivered)) == held_all

    def test_single_message_allocates_no_per_message_state(self):
        # At k = 1 nothing reads arrival rounds, send counts, requests or
        # wants, so they carry zero columns (the node axis stays for fusion).
        net = from_spec("grid", 16, seed=0)
        proto = MultiMessageArrayProtocol(k_messages=1)
        engine = ArrayEngine(net, proto, seed=0, params=FAST)
        engine.run(10_000, stop_when=lambda e: proto.done())
        assert proto.done()
        for name in ("message_round", "_send_count", "_requested", "_tx_want"):
            assert getattr(proto, name).shape == (net.n, 0), name
