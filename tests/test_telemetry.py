"""Traffic accounting, round observers, and wall-clock telemetry.

The contract under test: per-node traffic counters are streamed in O(n)
inside the round loop, sum exactly to the ``SimResult`` scalar totals, are
bitwise-identical between the per-node oracles and the array protocols and
across the dense/sparse backends, and observers see exactly the rounds the trace records — the
trace *is* the first observer.
"""

import numpy as np
import pytest

from oracles import Action, Protocol, oracle_engine, run_oracle
from repro.params import ProtocolParams
from repro.sim import (
    ArrayEngine,
    BatchEngine,
    BatchItem,
    DecayArrayProtocol,
    run_broadcast,
    run_broadcast_batch,
)
from repro.sim.core.batch import TraceObserver
from repro.sim.core.stats import RoundStats, RunTelemetry, TrafficTotals
from repro.sim.topology import from_spec

FAST = ProtocolParams.fast()
FAMILIES = ("line", "grid", "gnp", "dumbbell")


def _array_result(family, seed, protocol="ghk", **kwargs):
    net = from_spec(family, 24, seed=seed)
    return run_broadcast(protocol, net, FAST, seed=seed, **kwargs)


class TestTrafficTotals:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("protocol", ["decay", "ghk"])
    def test_per_node_totals_sum_to_scalar_totals(self, family, protocol):
        sim = _array_result(family, 7, protocol).sim
        traffic = sim.traffic
        assert traffic is not None
        n = len(traffic.transmissions)
        assert (
            len(traffic.receptions)
            == len(traffic.collisions_heard)
            == len(traffic.awake_slots)
            == n
        )
        assert sum(traffic.transmissions) == sim.total_transmissions
        assert sum(traffic.receptions) == sim.total_deliveries
        assert sum(traffic.collisions_heard) == sim.total_collisions
        assert traffic.energy == sum(traffic.awake_slots)

    def test_awake_slots_bound_energy(self):
        # No node can be awake more slots than rounds were run, and a
        # transmission or reception implies an awake slot.
        sim = _array_result("grid", 3).sim
        t = sim.traffic
        for node in range(len(t.awake_slots)):
            assert t.awake_slots[node] <= sim.rounds_run
            assert t.awake_slots[node] >= max(
                t.transmissions[node], t.receptions[node] + t.collisions_heard[node]
            )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("protocol", ["decay", "ghk"])
    def test_object_and_array_traffic_identical(self, family, protocol):
        net = from_spec(family, 24, seed=5)
        obj = run_oracle(protocol, net, FAST, seed=5)
        arr = run_broadcast(protocol, net, FAST, seed=5)
        assert obj.sim.traffic == arr.sim.traffic
        assert isinstance(obj.sim.traffic, TrafficTotals)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dense_and_sparse_traffic_identical(self, family):
        net = from_spec(family, 24, seed=11)
        dense = run_broadcast(
            "ghk", net, FAST.with_overrides(channel_backend="dense"), seed=11
        )
        sparse = run_broadcast(
            "ghk", net, FAST.with_overrides(channel_backend="sparse"), seed=11
        )
        assert dense.sim.traffic == sparse.sim.traffic

    def test_as_dict_shape(self):
        sim = _array_result("line", 0).sim
        payload = sim.traffic.as_dict()
        assert set(payload) == {
            "transmissions",
            "receptions",
            "collisions_heard",
            "awake_slots",
            "energy",
        }
        assert payload["energy"] == sim.traffic.energy
        assert payload["transmissions"] == list(sim.traffic.transmissions)

    def test_run_traffic_covers_only_that_run(self):
        # Two consecutive run() calls on one engine: each SimResult's
        # traffic covers its own rounds; snapshot() covers everything.
        net = from_spec("line", 12, seed=0)
        engine = ArrayEngine(net, DecayArrayProtocol(), seed=0, params=FAST)
        first = engine.run(3)
        second = engine.run(3)
        total = engine.snapshot()
        assert first.rounds_run == second.rounds_run == 3
        for i in range(net.n):
            assert (
                first.traffic.awake_slots[i] + second.traffic.awake_slots[i]
                == total.traffic.awake_slots[i]
            )


class TestObservers:
    def test_observer_fires_once_per_round_and_matches_trace(self):
        seen: list[RoundStats] = []
        net = from_spec("grid", 25, seed=2)
        result = run_broadcast(
            "ghk", net, FAST, seed=2, trace=True, observers=[
                lambda i, stats: seen.append(stats)
            ],
        )
        assert len(seen) == result.sim.rounds_run
        # Identity, not equality: observers receive the very objects the
        # trace stores, because the trace is itself the first observer.
        assert all(a is b for a, b in zip(seen, result.sim.history))

    def test_observer_without_trace_streams_in_o1_memory(self):
        counts = {"rounds": 0}

        def observer(stats: RoundStats) -> None:
            counts["rounds"] += 1

        net = from_spec("line", 16, seed=1)
        engine = ArrayEngine(
            net, DecayArrayProtocol(), seed=1, params=FAST, observers=[observer]
        )
        result = engine.run(10)
        assert counts["rounds"] == result.rounds_run == 10
        assert result.history == ()  # no trace retained

    def test_engine_object_shell_accepts_observers(self):
        class Chatter(Protocol):
            def act(self, round_index):
                return Action.transmit("x")

            def on_feedback(self, round_index, feedback):
                pass

        seen = []
        net = from_spec("line", 4, seed=0)
        engine = oracle_engine(net, [Chatter() for _ in range(4)], observers=[seen.append])
        engine.step()
        engine.step()
        assert [s.round_index for s in seen] == [0, 1]

    def test_batch_observers_receive_item_index(self):
        nets = [from_spec("line", 10, seed=s) for s in range(3)]
        per_item: dict[int, int] = {}

        def observer(item: int, stats: RoundStats) -> None:
            per_item[item] = per_item.get(item, 0) + 1

        outcomes = run_broadcast_batch(
            "ghk", nets, seeds=range(3), params=FAST, observers=[observer]
        )
        assert set(per_item) == {0, 1, 2}
        for i, outcome in enumerate(outcomes):
            assert per_item[i] == outcome.sim.rounds_run

    def test_trace_observer_is_reusable_standalone(self):
        trace = TraceObserver()
        stats = RoundStats(round_index=0, transmitters=(1,), deliveries=(), collisions=())
        trace(stats)
        assert trace.history == [stats]


class TestTelemetry:
    def test_engine_telemetry_shape(self):
        net = from_spec("grid", 16, seed=4)
        engine = ArrayEngine(net, DecayArrayProtocol(), seed=4, params=FAST)
        result = engine.run(8)
        telemetry = engine.telemetry()
        assert isinstance(telemetry, RunTelemetry)
        assert telemetry.rounds == result.rounds_run
        assert telemetry.wall_seconds >= 0.0
        assert set(telemetry.phase_seconds) == {"act", "channel", "feedback"}
        assert all(v >= 0.0 for v in telemetry.phase_seconds.values())

    def test_telemetry_never_lives_on_sim_result(self):
        # Wall-clock must stay off SimResult: the equivalence suites
        # compare results with ==, and time is machine noise.
        sim = _array_result("line", 0).sim
        assert not hasattr(sim, "telemetry")
        assert not hasattr(sim, "wall_seconds")

    def test_rounds_per_sec_property(self):
        t = RunTelemetry(rounds=50, wall_seconds=2.0, phase_seconds={})
        assert t.rounds_per_sec == 25.0
        zero = RunTelemetry(rounds=0, wall_seconds=0.0, phase_seconds={})
        assert zero.rounds_per_sec is None

    def test_as_dict_shape(self):
        t = RunTelemetry(
            rounds=10, wall_seconds=0.5, phase_seconds={"act": 0.1}
        )
        payload = t.as_dict()
        assert payload["rounds"] == 10
        assert payload["rounds_per_sec"] == 20.0
        assert payload["wall_seconds"] == 0.5
        assert payload["phase_seconds"] == {"act": 0.1}

    def test_batch_telemetry_out_param(self):
        nets = [from_spec("line", 10, seed=s) for s in range(2)]
        telemetry: dict = {}
        outcomes = run_broadcast_batch(
            "ghk", nets, seeds=range(2), params=FAST, telemetry=telemetry
        )
        assert telemetry["rounds"] == sum(o.sim.rounds_run for o in outcomes)
        assert telemetry["wall_seconds"] >= 0.0
        assert set(telemetry["phase_seconds"]) == {"act", "channel", "feedback"}

    def test_batch_engine_telemetry_sums_members(self):
        nets = [from_spec("line", 10, seed=s) for s in range(2)]
        items = [
            BatchItem(
                network=net, protocol=DecayArrayProtocol(), budget=20, seed=s,
                params=FAST,
            )
            for s, net in enumerate(nets)
        ]
        batch = BatchEngine(items)
        batch.run()
        telemetry = batch.telemetry()
        assert telemetry.rounds == sum(e.round_index for e in batch.engines)
        assert set(telemetry.phase_seconds) == {"act", "channel", "feedback"}


class TestRoundStatsRow:
    def test_as_row_is_json_ready(self):
        stats = RoundStats(
            round_index=3, transmitters=(0, 2), deliveries=((1, 0),), collisions=(4,)
        )
        assert stats.as_row() == {
            "round": 3,
            "transmitters": [0, 2],
            "deliveries": [[1, 0]],
            "collisions": [4],
        }


def test_counter_dtype_never_overflows_quietly():
    # The counters are int64; freezing to Python ints keeps arithmetic
    # unbounded downstream.
    sim = _array_result("gnp", 9).sim
    assert all(isinstance(v, int) for v in sim.traffic.transmissions)
    assert not any(
        isinstance(v, np.integer) for v in sim.traffic.transmissions
    )
