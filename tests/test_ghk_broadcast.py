"""Tests for the GHK collision-detection broadcast: the k-message protocol at k = 1."""

import numpy as np
import pytest
from scipy.stats import chi2

from oracles import MultiMessageProtocol, oracle_engine
from repro.errors import BroadcastFailure
from repro.params import WAVE_SPACING, ProtocolParams
from repro.sim import (
    BroadcastResult,
    MultiMessageArrayProtocol,
    broadcast_spec,
    run_broadcast,
    run_broadcast_batch,
)
from repro.sim.topology import dumbbell, from_spec, gnp, grid2d, line, ring, star
from test_decay import TestDiamondLemma as DecayDiamond

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
        protocols = [MultiMessageProtocol(message=payload) for _ in range(net.n)]
        engine = oracle_engine(net, protocols, seed=0, collision_detection=True, params=FAST)
        engine.run(
            FAST.ghk_broadcast_rounds(net.eccentricity(), net.n),
            stop_when=lambda eng: all(p.informed for p in protocols),
        )
        assert all(p.informed for p in protocols)
        assert all(p.payloads[0] is payload for p in protocols)


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
        spec = broadcast_spec("ghk")
        assert spec.array_factory is MultiMessageArrayProtocol
        assert spec.option_names == frozenset()

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


class TestDiamondLemma:
    """GHK's layer slots on the diamond K(1, d, 1) against their exact distribution.

    The source's wave pulse informs the d relays (layer 1) in round 0; their
    relay pulses collide at the sink in round 1 (d >= 2), which syncs it as
    layer 2 without informing it.  From then on the relays own the rounds
    ``r > 1`` with ``r ≡ 1 (mod 3)``, i.e. ``r = 4 + 3j`` for their j-th
    owned slot, and the sink listens in every round from 3 on, hearing
    nothing but the relays.  In slot j each relay fires independently with
    probability ``q = 2^-(j mod B)``, so the slot is clean for the sink
    with probability ``d·q·(1 - q)^(d-1)``, independently across slots.
    The sink's informed round is therefore ``4 + 3j`` at the first clean
    j, with an exact geometric-like law; rounds past the budget are a
    failure.  2000 fixed seeds per d must fit that law with a chi-square
    p-value of at least 1e-4 (threshold fixed before measuring).
    """

    SEEDS = 2000
    #: The smallest chi-square p-value the measured slots may have.
    P_MIN = 1e-4

    @staticmethod
    def slot_law(d: int, backoff: int, budget: int) -> np.ndarray:
        """P(the sink is informed in owned slot j), for every j within
        ``budget``, followed by P(not within the budget)."""
        slots = (budget - 5) // WAVE_SPACING + 1  # 4 + 3j <= budget - 1
        q = 2.0 ** -(np.arange(slots) % backoff)
        clean = d * q * (1 - q) ** (d - 1)
        missed = np.concatenate([[1.0], np.cumprod(1 - clean)])
        return np.append(missed[:-1] * clean, missed[-1])

    @staticmethod
    def chi_square(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
        """Pearson's statistic and degrees of freedom, pooling every bin
        expected below 5 into one."""
        rare = expected < 5
        obs = np.append(observed[~rare], observed[rare].sum())
        exp = np.append(expected[~rare], expected[rare].sum())
        keep = exp > 0
        assert obs[~keep].sum() == 0  # nothing lands where it cannot
        obs, exp = obs[keep], exp[keep]
        return float(((obs - exp) ** 2 / exp).sum()), obs.size - 1

    @pytest.mark.parametrize(
        "d",
        [
            pytest.param(2, marks=pytest.mark.statistical),
            8,
            pytest.param(64, marks=pytest.mark.statistical),
            pytest.param(512, marks=pytest.mark.statistical),
        ],
    )
    def test_sink_slot_follows_the_exact_law(self, d):
        net = DecayDiamond.diamond(d)
        sink = d + 1
        results = run_broadcast_batch(
            "ghk", [net] * self.SEEDS, seeds=range(self.SEEDS), params=FAST
        )
        budget = results[0].budget
        law = self.slot_law(d, FAST.ghk_backoff_slots(net.n), budget)
        observed = np.zeros(law.size)
        for result in results:
            if isinstance(result, BroadcastResult):
                r = result.informed_rounds[sink]
                assert r >= 4 and (r - 4) % WAVE_SPACING == 0, r
                observed[(r - 4) // WAVE_SPACING] += 1
            else:
                assert result.undelivered == (sink,)
                observed[-1] += 1
        stat, dof = self.chi_square(observed, law * self.SEEDS)
        p_value = chi2.sf(stat, dof)
        assert p_value >= self.P_MIN, (d, stat, dof, p_value)

    def test_slot_law_matches_the_hand_values(self):
        # d = 2: slot 0 always collides (both fire w.p. 1), slot 1 is clean
        # w.p. 2·(1/2)·(1/2) = 1/2, slot 2 w.p. 2·(1/4)·(3/4) = 3/8.
        law = self.slot_law(2, 3, 4 + 3 * 2 + 1)
        assert law == pytest.approx([0.0, 0.5, 0.5 * 3 / 8, 0.5 * 5 / 8])
        assert self.slot_law(8, 4, 186).sum() == pytest.approx(1.0)
