"""Fault-injection layer: schedules, state, path/backend equivalence.

The load-bearing contracts, in order of importance:

* an **empty schedule is a no-op** — attaching ``FaultSchedule()`` leaves
  a run bitwise-identical (``==`` on ``SimResult``) to not attaching one,
  on both channel backends, because fault coins live on their own stream;
* **faulted runs are oracle- and backend-independent** — per-node oracle
  vs array protocol and dense vs sparse agree bit for bit under every
  fault family;
* faults act on *perception*: crashes silence radios, jammers force
  collisions, loss drops clean receptions — and every injection is
  counted in ``SimResult.faults``.

Plus a regression pin on the batch fused path's error attribution and
plan hygiene.
"""

import json

import numpy as np
import pytest

from oracles import run_oracle
from repro.errors import BroadcastFailure, ConfigurationError, SimulationError
from repro.params import ProtocolParams
from repro.sim import (
    BatchEngine,
    BatchItem,
    DecayArrayProtocol,
    EdgeFlip,
    FaultSchedule,
    FaultState,
    Jammer,
    NodeCrash,
    demo,
    run_broadcast,
    run_broadcast_batch,
    sample_fault_schedule,
)
from repro.sim.core import RoundPlan, select_kernel_operand
from repro.sim.topology import from_spec, grid2d, line

FAST = ProtocolParams.fast()
DENSE = FAST.with_overrides(channel_backend="dense")
SPARSE = FAST.with_overrides(channel_backend="sparse")

#: One schedule per fault family, plus a combined one — node ids fit any
#: network of >= 8 nodes used below.
CRASH_ONLY = FaultSchedule(crashes=(NodeCrash(3, start=2, stop=9),))
LOSS_ONLY = FaultSchedule(loss_rate=0.3)
JAM_ONLY = FaultSchedule(jammers=(Jammer(5, start=1, stop=7),))
FLIP_ONLY = FaultSchedule(edge_flips=(EdgeFlip(2, 0, 1), EdgeFlip(6, 0, 1)))
COMBINED = FaultSchedule(
    crashes=(NodeCrash(3, start=2, stop=9), NodeCrash(6, start=4, stop=5)),
    edge_flips=(EdgeFlip(2, 0, 1), EdgeFlip(6, 0, 1), EdgeFlip(3, 2, 4)),
    loss_rate=0.2,
    jammers=(Jammer(5, start=1, stop=7),),
)
FAMILY_SCHEDULES = [
    ("crash", CRASH_ONLY),
    ("loss", LOSS_ONLY),
    ("jam", JAM_ONLY),
    ("flip", FLIP_ONLY),
    ("combined", COMBINED),
]
FAMILY_IDS = [name for name, _ in FAMILY_SCHEDULES]


class TestScheduleValidation:
    def test_negative_node_ids_are_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCrash(-1)
        with pytest.raises(ConfigurationError):
            Jammer(-2)
        with pytest.raises(ConfigurationError):
            EdgeFlip(0, -1, 2)

    def test_empty_windows_are_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCrash(0, start=5, stop=5)
        with pytest.raises(ConfigurationError):
            Jammer(0, start=3, stop=1)

    def test_edge_flip_self_loop_is_rejected(self):
        with pytest.raises(ConfigurationError):
            EdgeFlip(0, 4, 4)

    def test_loss_rate_outside_unit_interval_is_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSchedule(loss_rate=-0.1)

    def test_is_empty_and_max_node(self):
        assert FaultSchedule().is_empty
        assert FaultSchedule().max_node() == -1
        assert not COMBINED.is_empty
        assert COMBINED.max_node() == 6

    def test_state_rejects_out_of_range_nodes(self):
        net = line(4)
        operand = select_kernel_operand(net, DENSE)
        rng = np.random.default_rng(0)
        schedule = FaultSchedule(crashes=(NodeCrash(7),))
        with pytest.raises(ConfigurationError, match="node 7"):
            FaultState(schedule, net, operand, rng)

    def test_sampler_validates_its_knobs(self):
        net = line(6)
        with pytest.raises(ConfigurationError):
            sample_fault_schedule(net, seed=0, horizon=0)
        with pytest.raises(ConfigurationError):
            sample_fault_schedule(net, seed=0, horizon=10, crash_rate=1.5)
        with pytest.raises(ConfigurationError):
            sample_fault_schedule(net, seed=0, horizon=10, jammers=-1)
        with pytest.raises(ConfigurationError):
            sample_fault_schedule(net, seed=0, horizon=10, jammers=6)

    def test_sampler_is_seed_deterministic_and_protects_source(self):
        net = from_spec("grid", 16, seed=0)
        a = sample_fault_schedule(
            net, seed=5, horizon=40, crash_rate=0.5, jammers=2, loss_rate=0.1
        )
        b = sample_fault_schedule(
            net, seed=5, horizon=40, crash_rate=0.5, jammers=2, loss_rate=0.1
        )
        assert a == b
        crashed = {c.node for c in a.crashes}
        jamming = {j.node for j in a.jammers}
        assert net.source not in crashed | jamming
        # Sampled jammers are windowed, never permanent.
        assert all(j.stop is not None for j in a.jammers)


class TestEmptyScheduleIdentity:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_empty_schedule_is_bitwise_identical(self, backend):
        params = FAST.with_overrides(channel_backend=backend)
        net = grid2d(6, 6)
        base = run_broadcast("decay", net, params, seed=3)
        empty = run_broadcast("decay", net, params, seed=3, faults=FaultSchedule())
        assert base.sim == empty.sim
        assert base == empty
        # The pinned regression value survives an attached-but-empty layer.
        assert empty.rounds_to_delivery == 57
        assert empty.sim.faults is None  # no state, no counters, no coins

    def test_faulted_result_carries_fault_totals(self):
        net = from_spec("grid", 16, seed=0)
        result = run_broadcast("decay", net, FAST, seed=3, faults=LOSS_ONLY)
        assert result.sim.faults is not None
        totals = result.sim.faults.as_dict()
        assert set(totals) == {
            "dropped_receptions",
            "jammed_listens",
            "crashed_node_rounds",
            "edge_flips_applied",
        }


class TestFaultSemantics:
    def test_certain_loss_fails_delivery_and_counts_drops(self):
        net = line(5)
        with pytest.raises(BroadcastFailure) as exc:
            run_broadcast("decay", net, FAST, seed=0, faults=FaultSchedule(loss_rate=1.0))
        sim = exc.value.sim
        assert sim.faults.dropped_receptions > 0
        # Nothing beyond the source ever hears the message.
        assert exc.value.undelivered == (1, 2, 3, 4)

    def test_permanent_edge_cut_partitions_the_line(self):
        # Cutting the only edge into node 2 before round 0 strands it.
        net = line(3)
        schedule = FaultSchedule(edge_flips=(EdgeFlip(0, 1, 2),))
        with pytest.raises(BroadcastFailure) as exc:
            run_broadcast("decay", net, FAST, seed=0, faults=schedule, budget=40)
        assert exc.value.undelivered == (2,)
        assert exc.value.sim.faults.edge_flips_applied == 1

    def test_crash_windows_accrue_node_rounds_and_silence_radios(self):
        net = from_spec("grid", 16, seed=0)
        schedule = FaultSchedule(crashes=(NodeCrash(3, start=0, stop=5),))
        result = run_broadcast("decay", net, FAST, seed=3, faults=schedule)
        # Exactly one node down for exactly five rounds.
        assert result.sim.faults.crashed_node_rounds == 5
        # A node crashed from round 0 cannot be informed before round 5.
        assert result.informed_rounds[3] >= 5

    def test_jammed_listeners_perceive_collisions(self):
        # Star centre 0 is the source; jam a leaf: while the jammer is
        # active every listener in its closed neighbourhood (here: the
        # whole star, via the centre) hears noise, and each forced
        # collision is counted.
        net = from_spec("grid", 16, seed=0)
        schedule = FaultSchedule(jammers=(Jammer(5, start=0, stop=4),))
        result = run_broadcast("decay", net, FAST, seed=3, faults=schedule)
        assert result.sim.faults.jammed_listens > 0

    def test_fault_counters_window_like_traffic(self):
        # Two consecutive runs on one engine: the SimResult of the second
        # run must report only the drops of its own window.
        from repro.sim.core import ArrayEngine

        net = line(8)
        engine = ArrayEngine(
            net,
            DecayArrayProtocol(message="m"),
            seed=0,
            collision_detection=False,
            params=FAST,
            faults=FaultSchedule(loss_rate=1.0),
        )
        first = engine.run(5)
        second = engine.run(5)
        total = engine.fault_totals()
        assert (
            first.faults.dropped_receptions + second.faults.dropped_receptions
            == total.dropped_receptions
        )


class TestFaultedEquivalence:
    @pytest.mark.parametrize("name,schedule", FAMILY_SCHEDULES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("protocol", ["decay", "ghk"])
    def test_object_and_array_paths_agree_under_faults(self, name, schedule, protocol):
        net = from_spec("grid", 16, seed=0)
        obj = run_oracle(protocol, net, FAST, seed=1, faults=schedule, trace=True)
        arr = run_broadcast(protocol, net, FAST, seed=1, faults=schedule, trace=True)
        assert arr.sim.history == obj.sim.history
        assert arr.sim == obj.sim
        assert arr == obj

    @pytest.mark.parametrize("name,schedule", FAMILY_SCHEDULES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("protocol", ["decay", "ghk"])
    def test_dense_and_sparse_backends_agree_under_faults(
        self, name, schedule, protocol
    ):
        net = from_spec("grid", 16, seed=0)
        dense = run_broadcast(protocol, net, DENSE, seed=1, faults=schedule, trace=True)
        sparse = run_broadcast(
            protocol, net, SPARSE, seed=1, faults=schedule, trace=True
        )
        assert sparse.sim.history == dense.sim.history
        assert sparse.sim == dense.sim
        assert sparse == dense

    def test_multimessage_paths_agree_under_faults(self):
        net = from_spec("grid", 16, seed=0)
        obj = run_oracle(
            "multimessage", net, FAST, seed=1, options={"k_messages": 2}, faults=COMBINED
        )
        arr = run_broadcast(
            "multimessage",
            net,
            FAST,
            seed=1,
            options={"k_messages": 2},
            faults=COMBINED,
        )
        assert arr == obj

    def test_faulted_runs_are_seed_reproducible(self):
        net = from_spec("grid", 16, seed=0)
        a = run_broadcast("decay", net, FAST, seed=7, faults=COMBINED)
        b = run_broadcast("decay", net, FAST, seed=7, faults=COMBINED)
        assert a == b


class TestBatchFaults:
    def test_mixed_faulted_and_clean_items_do_not_cross_talk(self):
        # A faulted item fused into a batch must not perturb its clean
        # siblings: each batch entry equals the corresponding solo run.
        net = from_spec("grid", 16, seed=0)
        schedules = [None, COMBINED, None, COMBINED]
        batch = run_broadcast_batch(
            "decay", [net] * 4, seeds=range(4), params=FAST, faults=schedules
        )
        for seed, (schedule, batched) in enumerate(zip(schedules, batch)):
            solo = run_broadcast(
                "decay", net, FAST, seed=seed, faults=schedule
            )
            assert batched == solo

    def test_schedule_identity_splits_fusion_groups(self):
        # Items with different schedules cannot share a fused kernel call
        # (edge flips make the operand time-varying per schedule); items
        # with no/empty schedules still fuse into one group.
        net = from_spec("grid", 16, seed=0)
        other = FaultSchedule(edge_flips=(EdgeFlip(1, 0, 1), EdgeFlip(3, 0, 1)))
        items = [
            BatchItem(
                network=net,
                protocol=DecayArrayProtocol(),
                budget=100,
                seed=s,
                collision_detection=False,
                params=FAST,
                faults=faults,
            )
            for s, faults in enumerate(
                [None, FaultSchedule(), COMBINED, COMBINED, other]
            )
        ]
        engine = BatchEngine(items)
        groups = engine.group_sizes()
        assert sorted(groups) == [1, 2, 2]

    def test_shared_schedule_broadcast_batch_runs(self):
        net = from_spec("grid", 16, seed=0)
        batch = run_broadcast_batch(
            "ghk", [net] * 3, seeds=range(3), params=FAST, faults=LOSS_ONLY
        )
        for result in batch:
            sim = result.sim
            assert sim.faults is not None

    def test_fault_list_length_mismatch_is_rejected(self):
        net = from_spec("grid", 16, seed=0)
        with pytest.raises(ConfigurationError, match="one fault schedule per"):
            run_broadcast_batch(
                "decay", [net] * 3, seeds=range(3), params=FAST, faults=[COMBINED]
            )


class _ExplodingProtocol(DecayArrayProtocol):
    """Returns a plan of the wrong shape at a chosen round."""

    def __init__(self, explode_at, **kwargs):
        super().__init__(**kwargs)
        self._explode_at = explode_at

    def act(self, round_index):
        plan = super().act(round_index)
        if round_index == self._explode_at:
            return RoundPlan(
                transmit=np.zeros(1, dtype=bool), listen=np.zeros(1, dtype=bool)
            )
        return plan


class TestFusedPathErrorHygiene:
    """Satellite regression: act() errors mid-group must name the item and
    leave every sibling without a dangling pending plan."""

    def _items(self, explode_at):
        net = from_spec("grid", 16, seed=0)
        protocols = [
            DecayArrayProtocol(),
            _ExplodingProtocol(explode_at),
            DecayArrayProtocol(),
        ]
        return [
            BatchItem(
                network=net,
                protocol=proto,
                budget=50,
                seed=s,
                collision_detection=False,
                params=FAST,
            )
            for s, proto in enumerate(protocols)
        ]

    def test_error_is_attributed_to_the_failing_item(self):
        engine = BatchEngine(self._items(explode_at=2))
        with pytest.raises(SimulationError, match=r"\(item 1\)"):
            engine.run()

    def test_siblings_hold_no_dangling_plan_after_the_error(self):
        engine = BatchEngine(self._items(explode_at=2))
        with pytest.raises(SimulationError):
            engine.run()
        for core in engine.engines:
            assert core._plan is None
        # The documented no-round-in-flight state: completing now raises
        # the "without begin_round" error instead of applying stale masks.
        with pytest.raises(SimulationError, match="without begin_round"):
            engine.engines[0].complete_round(None)


class TestDemoFaultKnobs:
    def test_json_payload_carries_fault_knobs_and_totals(self, capsys):
        rc = demo.main(
            [
                "--topology",
                "grid",
                "--n",
                "16",
                "--seed",
                "3",
                "--loss-rate",
                "0.2",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["faults"] == {
            "crash_rate": 0.0,
            "loss_rate": 0.2,
            "jammers": 0,
        }
        assert "dropped_receptions" in payload["fault_totals"]

    def test_fault_free_json_reports_zero_knobs(self, capsys):
        rc = demo.main(
            ["--topology", "grid", "--n", "16", "--seed", "0", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["faults"] == {
            "crash_rate": 0.0,
            "loss_rate": 0.0,
            "jammers": 0,
        }
        assert payload["fault_totals"] is None

    @pytest.mark.parametrize(
        "flags",
        [
            ["--loss-rate", "1.5"],
            ["--crash-rate", "-0.1"],
            ["--jammers", "-1"],
            ["--jammers", "99", "--n", "16"],
        ],
    )
    def test_bad_fault_knobs_exit_2(self, flags, capsys):
        rc = demo.main(["--topology", "grid", "--n", "16", "--json", *flags])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert payload["status"] == "error"


class TestRobustnessBenchRecord:
    """The fault block of the science sweep (``BENCH_faults.json``)."""

    @staticmethod
    def fault_block(**overrides) -> dict:
        return {
            "protocol": ["decay"],
            "topology": ["grid"],
            "n": [9],
            "k": [1],
            "fault": [["none", 0], ["crash", 0.5], ["loss", 0.2]],
            "seeds": 2,
            "preset": "fast",
            "baseline": {"fault": ["none", 0]},
            **overrides,
        }

    def test_tiny_sweep_produces_a_well_formed_record(self):
        from repro.experiments.sweep import run_matrix

        record = run_matrix([self.fault_block()])
        assert record["bench"] == "sweep"
        assert record["schema_version"] == 2
        faults = [tuple(e["fault"]) for e in record["results"]]
        assert faults == [("none", 0), ("crash", 0.5), ("loss", 0.2)]
        baseline, crashed, lossy = record["results"]
        assert "fault_totals_mean" not in baseline
        assert baseline["speedup_vs_baseline"] == 1.0
        assert crashed["fault_totals_mean"]["crashed_node_rounds"] > 0
        assert lossy["fault_totals_mean"]["dropped_receptions"] >= 0
        for entry in record["results"]:
            assert 0 <= entry["failures"] <= len(entry["rounds"]) == 2

    def test_unknown_inputs_are_analysis_errors(self):
        from repro.errors import AnalysisError
        from repro.experiments.sweep import run_matrix

        with pytest.raises(AnalysisError):
            run_matrix([self.fault_block(protocol=["nope"])])
        with pytest.raises(AnalysisError):
            run_matrix([self.fault_block(fault=[["meteor", 1]])])
        with pytest.raises(AnalysisError):
            run_matrix([self.fault_block(seeds=0)])


def test_trajectory_flattens_faults_records():
    from repro.experiments.trajectory import DEFAULT_RECORDS, record_metrics

    assert "BENCH_faults.json" in DEFAULT_RECORDS
    record = {
        "bench": "sweep",
        "results": [
            {
                "protocol": "ghk",
                "topology": "grid",
                "n": 36,
                "k": 1,
                "fault": ["loss", 0.3],
                "failures": 1,
                "rounds_mean": 45.5,
                "energy_mean": None,
                "speedup_vs_baseline": 0.5,
            }
        ],
    }
    metrics = record_metrics(record)
    assert metrics == {
        "ghk/grid/n=36/k=1/loss=0.3/failures": 1,
        "ghk/grid/n=36/k=1/loss=0.3/rounds_mean": 45.5,
        "ghk/grid/n=36/k=1/loss=0.3/speedup_vs_baseline": 0.5,
    }
