"""Oracle vs array equivalence: bitwise-identical traces.

The library's array protocols must reproduce the per-node oracles in
``tests/oracles`` *exactly* — same per-round ground truth
(``RoundStats``), same rounds-to-delivery, same per-node arrival rounds —
on identical seeds across the topology suite.  The oracles are written
straight from the paper's per-node rules, so this checks the vectorized
protocol logic against an independent implementation.
"""

import dataclasses

import pytest

from oracles import BeepWaveArrayProtocol, BeepWaveProtocol, oracle_engine, run_oracle
from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim import (
    ArrayEngine,
    broadcast_spec,
    run_broadcast,
    run_broadcast_batch,
    sample_fault_schedule,
)
from repro.sim.topology import from_spec

FAST = ProtocolParams.fast()

#: ≥ 4 topology families, spanning diameter-bound, contention-bound,
#: geometric, and bottleneck regimes.
FAMILIES = ("line", "ring", "grid", "gnp", "dumbbell", "unit_disk")
SEEDS = (0, 3)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", ["decay", "ghk"])
def test_broadcast_traces_are_bitwise_identical(family, seed, protocol):
    net = from_spec(family, 24, seed=seed)
    obj = run_oracle(protocol, net, FAST, seed=seed, trace=True)
    arr = run_broadcast(protocol, net, FAST, seed=seed, trace=True)
    assert arr.rounds_to_delivery == obj.rounds_to_delivery
    assert arr.informed_rounds == obj.informed_rounds
    assert arr.budget == obj.budget
    assert arr.sim.history == obj.sim.history
    assert arr.sim == obj.sim  # totals and early-stop flag too
    assert arr == obj  # the full result dataclasses match field-for-field


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 3])
def test_multimessage_traces_are_bitwise_identical(family, seed, k):
    # The k-message pipeline draws two kinds of coins (backoff and
    # selection tie-breaks), so this covers a strictly richer coin
    # discipline than the single-message protocols.
    net = from_spec(family, 24, seed=seed)
    obj = run_oracle(
        "multimessage", net, FAST, seed=seed, options={"k_messages": k}, trace=True
    )
    arr = run_broadcast(
        "multimessage", net, FAST, seed=seed, options={"k_messages": k}, trace=True
    )
    assert arr.rounds_to_delivery == obj.rounds_to_delivery
    assert arr.informed_rounds == obj.informed_rounds
    assert arr.message_rounds == obj.message_rounds
    assert arr.sim.history == obj.sim.history
    assert arr == obj  # the full result dataclasses match field-for-field


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "crash+loss"])
def test_ghk_is_multimessage_at_k1(family, seed, faulted):
    # Single-message GHK is the k-message protocol at k = 1: on one budget
    # the two specs give the same result in every field but the name —
    # per-node traffic included, so the source backs off and holders stop
    # listening exactly as GHK's rules say.
    net = from_spec(family, 24, seed=seed)
    budget = broadcast_spec("ghk").budget_for(FAST, net, net.n, {})
    faults = None
    if faulted:
        faults = sample_fault_schedule(
            net, seed=seed, horizon=budget, crash_rate=0.05, loss_rate=0.1
        )
    (ghk,) = run_broadcast_batch(
        "ghk", [net], seeds=[seed], params=FAST, budget=budget, trace=True, faults=faults
    )
    (multi,) = run_broadcast_batch(
        "multimessage", [net], seeds=[seed], params=FAST, budget=budget, trace=True,
        faults=faults, options={"k_messages": 1},
    )
    if isinstance(ghk, BroadcastFailure):
        assert isinstance(multi, BroadcastFailure)
        assert (multi.undelivered, multi.sim) == (ghk.undelivered, ghk.sim)
    else:
        assert dataclasses.replace(multi, protocol="ghk") == ghk


@pytest.mark.parametrize("family", ("line", "grid", "gnp", "dumbbell"))
@pytest.mark.parametrize("cd", [True, False])
def test_beepwave_traces_are_bitwise_identical(family, cd):
    # The wave is deterministic with collision detection and *stalls*
    # without it; both behaviours must agree between the two forms, so run a fixed
    # number of rounds with no early stop and compare everything.
    seed = 1
    net = from_spec(family, 25, seed=seed)
    rounds = net.eccentricity() + 3

    obj_protos = [BeepWaveProtocol() for _ in range(net.n)]
    obj_engine = oracle_engine(
        net, obj_protos, seed=seed, collision_detection=cd, params=FAST, trace=True
    )
    obj_sim = obj_engine.run(rounds)

    arr_proto = BeepWaveArrayProtocol(collision_detection=cd)
    arr_engine = ArrayEngine(net, arr_proto, seed=seed, params=FAST, trace=True)
    arr_sim = arr_engine.run(rounds)

    assert arr_sim == obj_sim
    obj_distances = tuple(
        -1 if p.wave_distance is None else p.wave_distance for p in obj_protos
    )
    assert arr_proto.wave_distances() == obj_distances


@pytest.mark.parametrize("protocol", ["decay", "ghk"])
def test_failures_agree_between_paths(protocol):
    # A starved budget must fail identically: same exception type, same
    # undelivered node set.
    net = from_spec("line", 24, seed=0)
    with pytest.raises(BroadcastFailure) as obj_exc:
        run_oracle(protocol, net, FAST, seed=0, budget=3)
    (arr_result,) = run_broadcast_batch(
        protocol, [net], seeds=[0], params=FAST, budget=3
    )
    assert isinstance(arr_result, BroadcastFailure)
    assert arr_result.undelivered == obj_exc.value.undelivered


@pytest.mark.parametrize("protocol", ["decay", "ghk"])
def test_batch_results_match_single_runs(protocol):
    # One BatchEngine pass over mixed seeds equals seed-by-seed runs.
    nets = [from_spec("grid", 20, seed=s) for s in range(4)]
    batch = run_broadcast_batch(protocol, nets, seeds=range(4), params=FAST)
    for seed, (net, batched) in enumerate(zip(nets, batch)):
        single = run_broadcast(protocol, net, FAST, seed=seed)
        assert batched == single


def test_single_node_network_is_vacuously_delivered_on_both_paths():
    net = from_spec("line", 1)
    obj = run_oracle("decay", net, FAST, seed=0)
    arr = run_broadcast("decay", net, FAST, seed=0)
    assert obj.rounds_to_delivery == arr.rounds_to_delivery == 0
    assert obj.sim.stopped_early and arr.sim.stopped_early


@pytest.mark.statistical
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("protocol", ["decay", "ghk"])
def test_equivalence_holds_over_many_seeds(family, protocol):
    # Broader sweep (10 seeds per cell) kept in the non-blocking
    # statistical job; any divergence in coin consumption or channel
    # semantics shows up as a rounds mismatch long before n grows.
    for seed in range(10):
        net = from_spec(family, 32, seed=seed)
        obj = run_oracle(protocol, net, FAST, seed=seed)
        arr = run_broadcast(protocol, net, FAST, seed=seed)
        assert arr.rounds_to_delivery == obj.rounds_to_delivery, (family, protocol, seed)
        assert arr.informed_rounds == obj.informed_rounds


@pytest.mark.statistical
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [2, 8])
def test_multimessage_equivalence_holds_over_many_seeds(family, k):
    for seed in range(10):
        net = from_spec(family, 32, seed=seed)
        obj = run_oracle("multimessage", net, FAST, seed=seed, options={"k_messages": k})
        arr = run_broadcast(
            "multimessage", net, FAST, seed=seed, options={"k_messages": k}
        )
        assert arr.rounds_to_delivery == obj.rounds_to_delivery, (family, k, seed)
        assert arr.informed_rounds == obj.informed_rounds
        assert arr.message_rounds == obj.message_rounds
