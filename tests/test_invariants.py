"""Property-based engine invariants under seeded randomized action sequences.

Each case drives the engine with per-node ``RandomActor`` protocols
(written against the oracle API in ``tests/oracles``) that pick
TRANSMIT / LISTEN / SLEEP at random from their private node streams, then
replays the traced ground truth against the recorded per-node feedback and
checks the channel-model invariants:

* half-duplex — a transmitting node never receives feedback;
* sleeping nodes never receive feedback;
* ``counts == 1  ⇔  delivery``: a listener with exactly one transmitting
  neighbour receives exactly that neighbour's message, and every recorded
  delivery corresponds to such a listener;
* ``counts >= 2`` is reported as COLLISION with detection and SILENCE
  without, and is always recorded in the omniscient ground truth;
* trace history totals equal the aggregate counters of the result.

The "generator" is a seeded grid of configurations rather than an external
property-testing dependency, so every failure is reproducible from the
printed (graph seed, run seed, collision_detection) triple.
"""

import numpy as np
import pytest

from oracles import Action, FeedbackKind, Protocol, oracle_engine
from repro.sim.rng import Purpose
from repro.sim.topology import gnp

N_ROUNDS = 25


class RandomActor(Protocol):
    """Transmits/listens/sleeps at random; records everything it hears."""

    def setup(self, ctx):
        super().setup(ctx)
        self.sent: dict[int, object] = {}
        self.chose: dict[int, str] = {}
        self.heard: dict[int, object] = {}

    def act(self, round_index):
        roll = self.ctx.coin(Purpose.DECAY_STAY, round_index)
        if roll < 0.35:
            message = (self.ctx.node, round_index)
            self.sent[round_index] = message
            self.chose[round_index] = "transmit"
            return Action.transmit(message)
        if roll < 0.85:
            self.chose[round_index] = "listen"
            return Action.listen()
        self.chose[round_index] = "sleep"
        return Action.sleep()

    def on_feedback(self, round_index, feedback):
        assert round_index not in self.heard, "at most one feedback per round"
        self.heard[round_index] = feedback


CONFIGS = [
    (graph_seed, run_seed, cd)
    for graph_seed in (0, 1, 2)
    for run_seed in (10, 11)
    for cd in (True, False)
]


@pytest.mark.parametrize("graph_seed,run_seed,cd", CONFIGS)
def test_channel_invariants_hold_on_random_runs(graph_seed, run_seed, cd):
    n = 12 + 5 * graph_seed
    net = gnp(n, 0.25, seed=graph_seed)
    adj = net.adjacency_matrix()
    protocols = [RandomActor() for _ in range(n)]
    engine = oracle_engine(net, protocols, seed=run_seed, collision_detection=cd, trace=True)
    result = engine.run(N_ROUNDS)

    assert len(result.history) == N_ROUNDS
    for stats in result.history:
        r = stats.round_index
        transmit = np.zeros(n, dtype=bool)
        transmit[list(stats.transmitters)] = True
        counts = adj @ transmit
        deliveries = dict(stats.deliveries)

        for node, proto in enumerate(protocols):
            choice = proto.chose[r]
            # Ground truth must agree with what each node chose to do.
            assert (node in stats.transmitters) == (choice == "transmit")
            if choice != "listen":
                # Half-duplex transmitters and sleepers hear nothing.
                assert r not in proto.heard
                continue
            feedback = proto.heard[r]
            if counts[node] == 0:
                assert feedback.kind is FeedbackKind.SILENCE
                assert node not in deliveries
            elif counts[node] == 1:
                # counts == 1  ⇔  delivery of the unique neighbour's message.
                sender = deliveries[node]
                assert feedback.kind is FeedbackKind.MESSAGE
                assert feedback.sender == sender
                assert adj[node, sender] == 1
                assert feedback.message == protocols[sender].sent[r]
            else:
                assert node in stats.collisions
                assert node not in deliveries
                expected = FeedbackKind.COLLISION if cd else FeedbackKind.SILENCE
                assert feedback.kind is expected
                assert feedback.message is None

        # Every recorded delivery is a listener with exactly one
        # transmitting neighbour (the ⇐ direction of counts == 1 ⇔ delivery).
        for recv, send in stats.deliveries:
            assert protocols[recv].chose[r] == "listen"
            assert counts[recv] == 1
            assert send in stats.transmitters
        # Recorded collisions are exactly the listeners with counts >= 2.
        expected_collisions = sorted(
            node
            for node in range(n)
            if protocols[node].chose[r] == "listen" and counts[node] >= 2
        )
        assert sorted(stats.collisions) == expected_collisions


@pytest.mark.parametrize("graph_seed,run_seed,cd", CONFIGS[:4])
def test_history_totals_equal_aggregate_counters(graph_seed, run_seed, cd):
    net = gnp(15, 0.3, seed=graph_seed)
    protocols = [RandomActor() for _ in range(net.n)]
    engine = oracle_engine(net, protocols, seed=run_seed, collision_detection=cd, trace=True)
    result = engine.run(N_ROUNDS)
    assert result.total_transmissions == sum(
        len(s.transmitters) for s in result.history
    )
    assert result.total_deliveries == sum(len(s.deliveries) for s in result.history)
    assert result.total_collisions == sum(len(s.collisions) for s in result.history)
    # ... and the per-node feedback volume matches the ground truth too.
    heard_messages = sum(
        1
        for p in protocols
        for fb in p.heard.values()
        if fb.kind is FeedbackKind.MESSAGE
    )
    assert heard_messages == result.total_deliveries


def test_node_context_reports_collision_detection_setting():
    net = gnp(8, 0.4, seed=0)
    for cd in (True, False):
        protocols = [RandomActor() for _ in range(net.n)]
        oracle_engine(net, protocols, collision_detection=cd)
        assert all(p.ctx.collision_detection is cd for p in protocols)
