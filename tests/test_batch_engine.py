"""Tests for the array engines: ArrayEngine semantics and BatchEngine batching."""

import numpy as np
import pytest

from repro.errors import BroadcastFailure, ConfigurationError, SimulationError
from repro.params import ProtocolParams
from repro.sim import (
    ArrayEngine,
    BatchEngine,
    BatchItem,
    DecayArrayProtocol,
    RoundPlan,
    array_protocol_class,
    available_array_protocols,
    register_array_protocol,
    run_broadcast,
    run_broadcast_batch,
)
from repro.sim.core.array_protocol import ArrayProtocol, CoinDeck
from repro.sim.rng import SeededStreams
from repro.sim.topology import from_spec, line, star

FAST = ProtocolParams.fast()


class SourceBeacon(ArrayProtocol):
    """The source transmits every round; everyone else listens forever."""

    def setup(self, ctx):
        super().setup(ctx)
        self.n = ctx.n_nodes
        self.source = ctx.source
        self.heard = np.zeros(ctx.n_nodes, dtype=bool)

    def act(self, round_index):
        transmit = np.zeros(self.n, dtype=bool)
        transmit[self.source] = True
        listen = ~transmit
        return RoundPlan(transmit=transmit, listen=listen)

    def on_feedback(self, round_index, channel):
        self.heard |= channel.clean

    def done(self):
        return False


class TestArrayEngine:
    def test_rejects_n_bound_below_network_size(self):
        with pytest.raises(SimulationError, match="n_bound"):
            ArrayEngine(line(4), SourceBeacon(), n_bound=2)

    def test_round_zero_plan_validation(self):
        class Overlapping(SourceBeacon):
            def act(self, round_index):
                both = np.ones(self.n, dtype=bool)
                return RoundPlan(transmit=both, listen=both)

        engine = ArrayEngine(line(3), Overlapping())
        with pytest.raises(SimulationError, match="half-duplex"):
            engine.step()

    def test_fused_batch_overlap_error_names_the_items(self):
        # In a fused batch the kernel only sees stacked rows of the live
        # subset; the batch engine must append the row->item mapping so the
        # culprit is identifiable as the caller's item.
        class Overlapping(SourceBeacon):
            def act(self, round_index):
                both = np.ones(self.n, dtype=bool)
                return RoundPlan(transmit=both, listen=both)

        net = line(3)
        items = [
            BatchItem(network=net, protocol=proto, budget=5, seed=s, params=FAST)
            for s, proto in enumerate([SourceBeacon(), Overlapping()])
        ]
        with pytest.raises(
            SimulationError, match=r"batch row 1.*batch rows are items \[0, 1\]"
        ):
            BatchEngine(items).run()

    def test_rejects_non_plan_return(self):
        class Broken(SourceBeacon):
            def act(self, round_index):
                return "transmit"

        engine = ArrayEngine(line(3), Broken())
        with pytest.raises(SimulationError, match="expected a RoundPlan"):
            engine.step()

    def test_rejects_wrong_shape(self):
        class WrongShape(SourceBeacon):
            def act(self, round_index):
                return RoundPlan(
                    transmit=np.zeros(2, dtype=bool), listen=np.zeros(2, dtype=bool)
                )

        engine = ArrayEngine(line(3), WrongShape())
        with pytest.raises(SimulationError, match="shape"):
            engine.step()

    def test_run_semantics_match_object_engine(self):
        proto = SourceBeacon()
        engine = ArrayEngine(line(3), proto, trace=True)
        result = engine.run(5, stop_when=lambda eng: bool(proto.heard[1]))
        assert result.stopped_early
        assert result.rounds_run == 1
        assert result.total_deliveries == 1  # node 1 hears the source
        assert result.history[0].transmitters == (0,)

    def test_negative_max_rounds_rejected(self):
        with pytest.raises(SimulationError, match="non-negative"):
            ArrayEngine(line(3), SourceBeacon()).run(-1)

    def test_complete_round_requires_begin_round(self):
        engine = ArrayEngine(line(3), SourceBeacon())
        with pytest.raises(SimulationError, match="begin_round"):
            engine.complete_round(None)

    def test_totals_accumulate_without_trace(self):
        engine = ArrayEngine(star(4, source=0), SourceBeacon())
        assert engine.step() is None  # no per-round record unless tracing
        sim = engine.snapshot()
        assert sim.rounds_run == 1
        assert sim.total_transmissions == 1
        assert sim.total_deliveries == 3
        assert sim.history == ()


class TestBatchEngine:
    def test_early_exit_is_per_instance(self):
        # Same protocol, very different budgets: each instance retires on
        # its own schedule and the cheap one's totals stay untouched.
        nets = [line(8), line(8)]
        items = [
            BatchItem(
                network=nets[0],
                protocol=DecayArrayProtocol(),
                budget=1,
                seed=0,
                collision_detection=False,
                params=FAST,
            ),
            BatchItem(
                network=nets[1],
                protocol=DecayArrayProtocol(),
                budget=500,
                seed=0,
                collision_detection=False,
                params=FAST,
            ),
        ]
        outcomes = BatchEngine(items).run()
        assert not outcomes[0].completed
        assert outcomes[0].sim.rounds_run == 1
        assert outcomes[1].completed
        assert outcomes[1].sim.rounds_run > 1
        assert outcomes[1].sim.stopped_early

    def test_zero_budget_item_retires_without_stepping(self):
        item = BatchItem(
            network=line(4),
            protocol=DecayArrayProtocol(),
            budget=0,
            collision_detection=False,
            params=FAST,
        )
        (outcome,) = BatchEngine([item]).run()
        assert not outcome.completed
        assert outcome.sim.rounds_run == 0

    def test_already_done_item_costs_zero_rounds(self):
        item = BatchItem(
            network=line(1),
            protocol=DecayArrayProtocol(),
            budget=10,
            collision_detection=False,
            params=FAST,
        )
        (outcome,) = BatchEngine([item]).run()
        assert outcome.completed
        assert outcome.sim.rounds_run == 0
        assert outcome.sim.stopped_early

    def test_negative_budget_rejected(self):
        item = BatchItem(
            network=line(2), protocol=DecayArrayProtocol(), budget=-1, params=FAST
        )
        with pytest.raises(SimulationError, match="non-negative"):
            BatchEngine([item])

    def test_same_topology_instances_share_the_kernel_operand(self):
        nets = [from_spec("grid", 9, seed=s) for s in range(3)]  # identical graphs
        items = [
            BatchItem(
                network=net,
                protocol=DecayArrayProtocol(),
                budget=50,
                seed=s,
                collision_detection=False,
                params=FAST,
            )
            for s, net in enumerate(nets)
        ]
        engine = BatchEngine(items)
        operands = {id(e.kernel_operand) for e in engine.engines}
        assert len(operands) == 1

    def test_grouping_uses_the_cached_adjacency_key(self):
        # BatchEngine must group by the network-cached key instead of
        # re-serializing the O(n^2) matrix (twice) for every item: with the
        # key warm, the matrix is touched exactly once — to build the one
        # shared kernel operand — no matter how many items share the graph.
        net = from_spec("grid", 9, seed=0)
        net.adjacency_key()  # warm the cache
        calls = {"matrix": 0}
        original = net.adjacency_matrix

        def counting_matrix():
            calls["matrix"] += 1
            return original()

        net.adjacency_matrix = counting_matrix
        items = [
            BatchItem(
                network=net,
                protocol=DecayArrayProtocol(),
                budget=10,
                seed=s,
                collision_detection=False,
                params=FAST,
            )
            for s in range(5)
        ]
        BatchEngine(items)
        assert calls["matrix"] == 1

    def test_adjacency_mutation_raises_instead_of_corrupting_the_batch(self):
        # Regression: the cached adjacency used to be writable, so a caller
        # mutating it silently corrupted every later run and the grouping.
        net = line(4)
        with pytest.raises(ValueError, match="read-only"):
            net.adjacency_matrix()[0, 1] = 0  # simlint: disable=SL004

    def test_batching_does_not_change_results(self):
        # Mixed topologies and seeds in one batch vs the same runs alone.
        nets = [from_spec("grid", 16, seed=0), from_spec("line", 12, seed=1),
                from_spec("grid", 16, seed=2)]
        seeds = [0, 1, 2]
        batched = run_broadcast_batch("decay", nets, seeds=seeds, params=FAST)
        for net, seed, got in zip(nets, seeds, batched):
            alone = run_broadcast("decay", net, FAST, seed=seed)
            assert got == alone


class TestRunBroadcastAPI:
    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="one seed per network"):
            run_broadcast_batch("decay", [line(4)], seeds=[0, 1])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown broadcast protocol"):
            run_broadcast_batch("gossip", [line(4)])

    def test_collision_blind_ghk_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="requires collision detection"):
            run_broadcast_batch("ghk", [line(4)], collision_detection=False)

    def test_failures_are_returned_not_raised(self):
        results = run_broadcast_batch(
            "decay", [line(16)], seeds=[0], params=FAST, budget=2, trace=True
        )
        assert isinstance(results[0], BroadcastFailure)
        assert results[0].undelivered  # carries the undelivered set
        # ... and the executed rounds, for post-mortem inspection
        assert results[0].sim.rounds_run == 2
        assert len(results[0].sim.history) == 2

    def test_single_run_raises_on_failure(self):
        with pytest.raises(BroadcastFailure, match="uninformed"):
            run_broadcast("decay", line(16), FAST, budget=2)

    def test_defaults_resolve_from_the_spec(self):
        # Budgets come from each spec's rule; GHK runs without an explicit
        # collision_detection because its spec defaults it on.
        decay = run_broadcast("decay", line(4), FAST, seed=1)
        assert decay.budget == FAST.decay_broadcast_rounds(3, 4)
        assert decay.n == 4
        ghk = run_broadcast("ghk", line(4), FAST, seed=1)
        assert ghk.budget == FAST.ghk_broadcast_rounds(3, 4)


class TestCoinDeck:
    def test_draws_match_per_node_streams(self):
        a = SeededStreams(9, 5)
        children = np.random.SeedSequence(9).spawn(6)[1:]
        b = [np.random.Generator(np.random.PCG64(c)) for c in children]
        deck = CoinDeck(a, chunk=3)  # tiny chunk to force refills
        seen = {i: [] for i in range(5)}
        rng = np.random.default_rng(0)
        for _ in range(40):
            nodes = np.nonzero(rng.random(5) < 0.6)[0]
            coins = deck.draw(nodes)
            for node, coin in zip(nodes.tolist(), coins.tolist()):
                seen[node].append(coin)
        for node in range(5):
            expected = [b[node].random() for _ in range(len(seen[node]))]
            assert seen[node] == expected

    def test_rejects_non_positive_chunk(self):
        with pytest.raises(ConfigurationError, match="chunk"):
            CoinDeck(SeededStreams(0, 2), chunk=0)


class TestArrayRegistry:
    def test_builtin_protocols_are_registered(self):
        assert {"decay", "beepwave", "ghk"} <= set(available_array_protocols())
        assert array_protocol_class("decay") is DecayArrayProtocol

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError, match="unknown array protocol"):
            array_protocol_class("no-such-protocol")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_array_protocol("decay")(SourceBeacon)

    def test_non_protocol_registration_rejected(self):
        with pytest.raises(SimulationError, match="not an ArrayProtocol"):
            register_array_protocol("bogus")(dict)
