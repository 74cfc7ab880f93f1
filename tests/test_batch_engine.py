"""Tests for the array engines: ArrayEngine semantics and BatchEngine batching."""

from collections import Counter

import numpy as np
import pytest

from oracles.coins import node_coin
from repro.errors import BroadcastFailure, ConfigurationError, SimulationError
from repro.params import ProtocolParams
from repro.sim import (
    ArrayEngine,
    BatchEngine,
    BatchItem,
    BroadcastResult,
    DecayArrayProtocol,
    FaultSchedule,
    NodeCrash,
    RoundPlan,
    run_broadcast,
    run_broadcast_batch,
    runners,
)
from repro.sim.core.array_protocol import ArrayProtocol, CoinDeck
from repro.sim.rng import Purpose, SeededStreams
from repro.sim.topology import RadioNetwork, from_spec, line, star

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
        # The batch budget's check: True is not one round, and a float or a
        # string fails here rather than as a raw TypeError in the loop.
        engine = ArrayEngine(line(8), DecayArrayProtocol(), params=FAST)
        for bad in (True, 2.5, "3"):
            with pytest.raises(SimulationError, match="non-negative integer"):
                engine.run(bad)
        assert engine.round_index == 0

    def test_complete_round_requires_begin_round(self):
        engine = ArrayEngine(line(3), SourceBeacon())
        with pytest.raises(SimulationError, match="begin_round"):
            engine.complete_round(None)

    def test_step_calls_instance_level_fault_hooks(self):
        # Tooling (the benchmark's traced pass) times the fault layer by
        # replacing these two methods on the engine's own FaultState, so
        # a standalone engine must step that very object.
        schedule = FaultSchedule(crashes=(NodeCrash(5, 0, 2),), loss_rate=0.2)
        engine = ArrayEngine(
            from_spec("grid", 16, seed=0),
            DecayArrayProtocol(),
            params=FAST,
            faults=schedule,
        )
        state = engine.fault_state
        calls = Counter()
        for name in ("begin_round", "perceive"):

            def counted(*args, _name=name, _original=getattr(state, name)):
                calls[_name] += 1
                return _original(*args)

            setattr(state, name, counted)
        for _ in range(3):
            engine.step()
        assert calls == {"begin_round": 3, "perceive": 3}
        assert engine.fault_totals().crashed_node_rounds == 2

    def test_totals_accumulate_without_trace(self):
        engine = ArrayEngine(star(4, source=0), SourceBeacon())
        assert engine.step() is None  # no per-round record unless tracing
        sim = engine.snapshot()
        assert sim.rounds_run == 1
        assert sim.total_transmissions == 1
        assert sim.total_deliveries == 3
        assert sim.history == ()
        # Per-node totals are tuples of Python ints, not numpy scalars.
        for field in ("transmissions", "receptions", "collisions_heard", "awake_slots"):
            values = getattr(sim.traffic, field)
            assert type(values) is tuple
            assert all(type(v) is int for v in values)
        assert sim.traffic.receptions == (0, 1, 1, 1)


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
                params=FAST,
            ),
            BatchItem(
                network=nets[1],
                protocol=DecayArrayProtocol(),
                budget=500,
                seed=0,
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
        # Fractional, boolean and string budgets are not round counts.
        for budget in (2.5, True, "5"):
            item.budget = budget
            with pytest.raises(SimulationError, match="non-negative integer"):
                BatchEngine([item])
        item.budget = np.int64(3)
        (outcome,) = BatchEngine([item]).run()
        assert outcome.sim.rounds_run <= 3

    def test_same_topology_instances_share_the_kernel_operand(self):
        nets = [from_spec("grid", 9, seed=s) for s in range(3)]  # identical graphs
        items = [
            BatchItem(
                network=net,
                protocol=DecayArrayProtocol(),
                budget=50,
                seed=s,
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
                params=FAST,
            )
            for s in range(5)
        ]
        BatchEngine(items)
        assert calls["matrix"] == 1

    @pytest.fixture
    def key_calls(self, monkeypatch):
        """Counts ``RadioNetwork.adjacency_key`` calls."""
        calls = {"key": 0}
        original = RadioNetwork.adjacency_key

        def counting_key(net):
            calls["key"] += 1
            return original(net)

        monkeypatch.setattr(RadioNetwork, "adjacency_key", counting_key)
        return calls

    def test_sparse_fault_free_items_fuse_across_graphs_without_topology_keys(
        self, key_calls
    ):
        # Equal-size sparse items on different graphs are one group, and
        # the batch never serializes their topology to find that out.
        nets = [from_spec("unit_disk", 32, seed=s) for s in range(3)]
        nets += [nets[0], line(32), from_spec("gnp", 16, seed=0)]
        sparse = FAST.with_overrides(channel_backend="sparse")
        engine = BatchEngine(
            [
                BatchItem(network=net, protocol=DecayArrayProtocol(), budget=50,
                          seed=s, params=sparse)
                for s, net in enumerate(nets)
            ]
        )
        assert engine.group_sizes() == [5, 1]
        assert key_calls["key"] == 0
        # A repeated network object shares one operand.
        assert engine.engines[0].kernel_operand is engine.engines[3].kernel_operand
        operands = {id(e.kernel_operand) for e in engine.engines}
        assert len(operands) == 5

    @pytest.mark.parametrize(
        ("backend", "faulted"),
        [("dense", False), ("bitpacked", False), ("sparse", True)],
    )
    def test_other_items_still_split_by_topology(self, key_calls, backend, faulted):
        nets = [from_spec("unit_disk", 32, seed=s) for s in range(3)] + [line(32)]
        nets.append(nets[1])
        params = FAST.with_overrides(channel_backend=backend)
        schedule = FaultSchedule(loss_rate=0.2) if faulted else None
        engine = BatchEngine(
            [
                BatchItem(network=net, protocol=DecayArrayProtocol(), budget=50,
                          seed=s, params=params,
                          faults=schedule)
                for s, net in enumerate(nets)
            ]
        )
        assert engine.group_sizes() == [1, 2, 1, 1]
        assert key_calls["key"] == len(nets)

    def test_adjacency_mutation_raises_instead_of_corrupting_the_batch(self):
        # Regression: the cached adjacency used to be writable, so a caller
        # mutating it silently corrupted every later run and the grouping.
        net = line(4)
        with pytest.raises(ValueError, match="read-only"):
            net.adjacency_matrix()[0, 1] = 0

    def test_batching_does_not_change_results(self):
        # Mixed topologies and seeds in one batch vs the same runs alone.
        nets = [from_spec("grid", 16, seed=0), from_spec("line", 12, seed=1),
                from_spec("grid", 16, seed=2)]
        seeds = [0, 1, 2]
        batched = run_broadcast_batch("decay", nets, seeds=seeds, params=FAST)
        for net, seed, got in zip(nets, seeds, batched):
            alone = run_broadcast("decay", net, FAST, seed=seed)
            assert got == alone


    @staticmethod
    def _decay_items(cases, budget=400):
        return [
            BatchItem(
                network=net,
                protocol=DecayArrayProtocol(),
                budget=budget,
                seed=seed,
                params=FAST,
            )
            for net, seed in cases
        ]

    @staticmethod
    def _alone(item, **kwargs):
        protocol = DecayArrayProtocol()
        engine = ArrayEngine(
            item.network,
            protocol,
            seed=item.seed,
            params=FAST,
            **kwargs,
        )
        return engine.run(item.budget, stop_when=lambda e: e.protocol.done()), protocol

    def test_items_of_two_sizes_equal_standalone_engines(self):
        # Two sizes take two seeding passes; a five-word seed and repeated
        # seeds share them with one-word seeds.
        grid, path = from_spec("grid", 16, seed=0), from_spec("line", 12, seed=1)
        big = 2**128 + 7
        cases = [(grid, 0), (path, big), (grid, big), (path, 0), (grid, 3), (path, big)]
        items = self._decay_items(cases)
        outcomes = BatchEngine(items, trace=True).run()
        for item, outcome in zip(items, outcomes, strict=True):
            alone, protocol = self._alone(item, trace=True)
            assert outcome.completed == protocol.done()
            assert outcome.sim == alone
            assert item.protocol.informed_rounds() == protocol.informed_rounds()

    def test_items_stepped_before_run_equal_standalone_engines(self):
        # Engines stepped directly before run() sit at different rounds, so
        # the batch fuses each start round apart (its lockstep key); every
        # item must still end exactly as if it had run alone, fault state
        # included.
        net = from_spec("grid", 16, seed=0)
        schedule = FaultSchedule(crashes=(NodeCrash(5, 1, 6),), loss_rate=0.2)
        items = self._decay_items([(net, seed) for seed in range(5)])
        for item in items:
            item.faults = schedule
        batch = BatchEngine(items, trace=True)
        for engine, rounds in zip(batch.engines, (0, 2, 2, 4, 0)):
            for _ in range(rounds):
                engine.step()
        assert not any(item.protocol.done() for item in items)
        outcomes = batch.run()
        for item, outcome in zip(items, outcomes, strict=True):
            alone, protocol = self._alone(item, trace=True, faults=schedule)
            assert outcome.completed == protocol.done()
            assert outcome.sim == alone
            assert item.protocol.informed_rounds() == protocol.informed_rounds()

    def test_streams_must_fit_the_engine(self):
        streams = SeededStreams(4, 16)
        with pytest.raises(SimulationError, match="do not fit"):
            ArrayEngine(line(16), DecayArrayProtocol(), seed=5, streams=streams)
        with pytest.raises(SimulationError, match="do not fit"):
            ArrayEngine(line(12), DecayArrayProtocol(), seed=4, streams=streams)

    def test_rows_retiring_together_keep_their_own_coin_keys(self, monkeypatch):
        # Rows 0, 2 and 3 of one fused group exhaust their budget in the
        # same round; rows 1 and 4 finish later, after the group compacts.
        # Every item must run exactly as it would alone, and each item's
        # own deck must still hold its own key (the fused deck's rows are
        # never written back).
        net = from_spec("grid", 16, seed=0)
        seeds = [4, 5, 2**128 + 7, 6, 7]
        items = self._decay_items([(net, seed) for seed in seeds])
        for b in (0, 2, 3):
            items[b].budget = 3
        exports = []
        export = ArrayProtocol.export

        def recording_export(protocol, nodes, into):
            exports.append(len(into))
            export(protocol, nodes, into)

        monkeypatch.setattr(ArrayProtocol, "export", recording_export)
        batch = BatchEngine(items)
        outcomes = batch.run()
        assert batch.group_sizes() == [5]
        assert exports[0] == 3 and sum(exports) == 5
        for item, outcome in zip(items, outcomes, strict=True):
            alone, _ = self._alone(item)
            assert outcome.sim == alone
            assert outcome.sim.rounds_run == (3 if item.budget == 3 else alone.rounds_run)
            own = CoinDeck(SeededStreams(item.seed, net.n), Purpose.DECAY_STAY)
            assert item.protocol._coins.keys.tolist() == own.keys.tolist()

    def test_running_group_is_the_only_holder_of_row_state(self):
        # While a fused group runs, no item's protocol keeps a state array
        # and no item's engine has traffic counters of its own; retirement
        # hands each its rows, and the results are those of solo runs.
        net = from_spec("grid", 16, seed=0)
        items = self._decay_items([(net, seed) for seed in range(4)])
        holders = []

        def watch(i, stats):
            if stats.round_index == 1:
                protocol = items[i].protocol
                arrays = [
                    name for name in type(protocol).node_state
                    if isinstance(vars(protocol).get(name), np.ndarray)
                ]
                holders.append((i, arrays, batch.engines[i]._traffic is not None))

        batch = BatchEngine(items, observers=[watch])
        outcomes = batch.run()
        assert batch.group_sizes() == [4]
        assert holders == [(i, [], False) for i in range(4)]
        for item, outcome in zip(items, outcomes, strict=True):
            alone, protocol = self._alone(item)
            assert outcome.sim == alone
            assert item.protocol.informed_rounds() == protocol.informed_rounds()

    def test_standalone_step_after_run_counts_into_the_engine(self):
        # Engines stepped before run() keep their own one-row group, whose
        # counters are the engine's: retirement must fill those in place,
        # so a standalone step after the batch still counts every round.
        net = from_spec("grid", 16, seed=0)
        schedule = FaultSchedule(crashes=(NodeCrash(5, 1, 6),), loss_rate=0.2)
        items = self._decay_items([(net, seed) for seed in range(4)], budget=6)
        for item in items:
            item.faults = schedule
        batch = BatchEngine(items)
        for engine in batch.engines[:2]:
            engine.step()
            engine.step()
        batch.run()
        engine = batch.engines[0]
        assert engine.round_index == 6
        engine.step()
        alone = ArrayEngine(net, DecayArrayProtocol(), seed=0, params=FAST, faults=schedule)
        for _ in range(7):
            alone.step()
        got, want = engine.snapshot(), alone.snapshot()
        assert got.rounds_run == want.rounds_run == 7
        assert got == want


class TestRunBroadcastAPI:
    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="one seed per network"):
            run_broadcast_batch("decay", [line(4)], seeds=[0, 1])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown broadcast protocol"):
            run_broadcast_batch("gossip", [line(4)])

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
        # Budgets come from each spec's rule.
        decay = run_broadcast("decay", line(4), FAST, seed=1)
        assert decay.budget == FAST.decay_broadcast_rounds(3, 4)
        assert decay.n == 4
        ghk = run_broadcast("ghk", line(4), FAST, seed=1)
        assert ghk.budget == FAST.ghk_broadcast_rounds(3, 4)

    @pytest.mark.parametrize("protocol", runners.BROADCAST_PROTOCOL_NAMES)
    def test_every_protocol_returns_one_result_type(self, protocol):
        net = from_spec("grid", 25, seed=0)
        k = 3
        options = {"k_messages": k} if protocol == "multimessage" else None
        result = run_broadcast(protocol, net, FAST, seed=0, options=options)
        assert type(result) is BroadcastResult
        assert result.protocol == protocol
        layers = [0] * net.n
        for depth, layer in enumerate(net.bfs_layers()):
            for v in layer:
                layers[v] = depth
        assert result.wave_distances == (() if protocol == "decay" else tuple(layers))
        if protocol == "multimessage":
            assert len(result.message_rounds) == net.n
            assert all(len(per_node) == k for per_node in result.message_rounds)
        else:
            assert result.message_rounds == ()


class TestCoinDeck:
    def test_draws_match_per_node_streams(self):
        # Each node's coins are the per-node reference function of (seed,
        # purpose, node, round), whichever nodes draw alongside it.
        deck = CoinDeck(SeededStreams(9, 5), Purpose.BACKOFF)
        rng = np.random.default_rng(0)
        for round_index in range(40):
            nodes = np.nonzero(rng.random(5) < 0.6)[0]
            deck.round = round_index
            coins = deck.draw(nodes)
            expected = [node_coin(9, Purpose.BACKOFF, v, round_index) for v in nodes.tolist()]
            assert coins.tolist() == expected
