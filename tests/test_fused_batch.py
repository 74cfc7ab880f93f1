"""Fused batch groups: one disjoint-union instance per group, bit for bit per item.

:class:`~repro.sim.core.batch.BatchEngine` steps the items sharing a
topology, backend, fault schedule and start round as one instance over
the disjoint union of their networks.  The property here is the
contract: a fused run equals every item run alone through
``ArrayEngine.step`` — informed rounds, round records, traffic, fault
totals and the undelivered set — with the sanitizer on, over random
connected graphs, every fusable protocol, every backend, mixed budgets
(rows retire at the front, middle and tail of a group) and every fault
family.  The structural tests pin what fusing buys: one protocol and
fault pass per group round, one operand rebuild per edge flip.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.params import ProtocolParams
from repro.sim import (
    ArrayEngine,
    BatchEngine,
    BatchItem,
    BroadcastArrayProtocol,
    DecayArrayProtocol,
    EdgeFlip,
    FaultSchedule,
    FaultState,
    Jammer,
    NodeCrash,
    array_protocol_class,
    run_broadcast_batch,
)
from repro.sim import faults as faults_module
from repro.sim.faults import sample_fault_schedule
from repro.sim.topology import RadioNetwork, from_spec

FAST = ProtocolParams.fast()

#: Protocol cases: (registry name, constructor options, collision detection).
PROTOCOLS = {
    "decay": ("decay", {}, False),
    "ghk": ("ghk", {}, True),
    "multimessage-k1": ("multimessage", {"k_messages": 1}, True),
    "multimessage-k3": ("multimessage", {"k_messages": 3}, True),
    "beepwave": ("beepwave", {}, True),
    "beepwave-blind": ("beepwave", {}, False),
}


def _network(n, order, extra):
    """A connected graph: the path ``order`` plus the ``extra`` pairs."""
    u = [*order[:-1], *(a for a, _ in extra)]
    v = [*order[1:], *(b for _, b in extra)]
    return RadioNetwork.from_edges(n, u, v, source=order[0])


@st.composite
def fused_cases(draw):
    """``(network, protocol case, backend, seeds, budgets, schedule)``."""
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    net = _network(n, order, draw(st.lists(pair, max_size=n)))
    protocol = draw(st.sampled_from(sorted(PROTOCOLS)))
    backend = draw(st.sampled_from(["dense", "sparse", "bitpacked"]))
    rows = draw(st.integers(1, 6))
    seeds = draw(st.lists(st.integers(0, 999), min_size=rows, max_size=rows))
    budgets = draw(st.lists(st.integers(0, 60), min_size=rows, max_size=rows))
    window = st.tuples(st.integers(0, n - 1), st.integers(0, 20), st.integers(1, 15))
    crashes = draw(st.lists(window, max_size=3))
    jammers = draw(st.lists(window, max_size=2))
    flips = draw(st.lists(st.tuples(st.integers(0, 30), pair), max_size=4))
    schedule = FaultSchedule(
        crashes=tuple(NodeCrash(v, s, s + length) for v, s, length in crashes),
        edge_flips=tuple(EdgeFlip(r, *p) for r, p in flips),
        loss_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
        jammers=tuple(Jammer(v, s, s + length) for v, s, length in jammers),
    )
    return net, protocol, backend, seeds, budgets, schedule


def _protocol(case):
    name, options, _ = PROTOCOLS[case]
    return array_protocol_class(name)(**options)


def _state(protocol):
    """Everything a run leaves in a protocol object, as plain data."""
    state = {
        name: np.asarray(getattr(protocol, name)).tolist()
        for name in type(protocol).node_state
        if name != "_coins"
    }
    state["done"] = protocol.done()
    if isinstance(protocol, BroadcastArrayProtocol):
        # What a BroadcastFailure carries.
        state["undelivered"] = protocol.undelivered()
    return state


def _alone(net, case, backend, seed, budget, schedule):
    """One item run by itself through ``ArrayEngine.step``."""
    protocol = _protocol(case)
    records = []
    engine = ArrayEngine(
        net,
        protocol,
        seed=seed,
        collision_detection=PROTOCOLS[case][2],
        params=FAST.with_overrides(channel_backend=backend),
        observers=[records.append],
        faults=schedule,
        sanitize=True,
    )
    while not protocol.done() and engine.round_index < budget:
        engine.step()
    return engine.snapshot(stopped_early=protocol.done()), records, _state(protocol)


_LINE4 = _network(4, [0, 1, 2, 3], [])
_LOSSY = FaultSchedule(crashes=(NodeCrash(2, 1, 4),), loss_rate=0.5)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fused_cases())
# The last rows of a fused group retire first (no hole to fill), then the
# first (a hole filled from the tail), then the middle.
@example((_LINE4, "decay", "dense", [0, 1, 2, 3], [40, 40, 2, 1], _LOSSY))
@example((_LINE4, "ghk", "sparse", [5, 6, 7], [1, 40, 40], _LOSSY))
@example((_LINE4, "multimessage-k3", "bitpacked", [8, 9, 10], [40, 3, 40], _LOSSY))
def test_fused_run_equals_items_run_alone(case):
    net, protocol, backend, seeds, budgets, schedule = case
    params = FAST.with_overrides(channel_backend=backend)
    items = [
        BatchItem(
            network=net,
            protocol=_protocol(protocol),
            budget=budget,
            seed=seed,
            collision_detection=PROTOCOLS[protocol][2],
            params=params,
            faults=schedule,
        )
        for seed, budget in zip(seeds, budgets)
    ]
    records = {i: [] for i in range(len(items))}
    batch = BatchEngine(
        items, observers=[lambda i, stats: records[i].append(stats)], sanitize=True
    )
    assert batch.group_sizes() == [len(items)]
    outcomes = batch.run()
    for i, (outcome, seed, budget) in enumerate(zip(outcomes, seeds, budgets)):
        sim, alone_records, alone_state = _alone(net, protocol, backend, seed, budget, schedule)
        assert outcome.sim == sim
        assert outcome.completed == alone_state["done"]
        assert records[i] == alone_records
        assert _state(outcome.item.protocol) == alone_state


def _decay_batch(schedule, rows=16):
    net = from_spec("grid", 16, seed=0)
    return run_broadcast_batch(
        "decay",
        [net] * rows,
        seeds=range(rows),
        params=FAST,
        faults=schedule(net),
        sanitize=False,
    )


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_fused_group_runs_one_protocol_and_fault_pass_per_round(monkeypatch):
    counts = Counter()
    for owner, name in (
        (DecayArrayProtocol, "act"),
        (DecayArrayProtocol, "on_feedback"),
        (FaultState, "begin_round"),
        (FaultState, "perceive"),
    ):
        _count_calls(monkeypatch, owner, name, counts)
    results = _decay_batch(
        lambda net: sample_fault_schedule(
            net, seed=0, horizon=80, crash_rate=0.2, loss_rate=0.1
        )
    )
    group_rounds = max(result.sim.rounds_run for result in results)
    assert sum(result.sim.rounds_run for result in results) > group_rounds
    assert counts == {
        "act": group_rounds,
        "on_feedback": group_rounds,
        "begin_round": group_rounds,
        "perceive": group_rounds,
    }


def test_fused_group_rebuilds_the_operand_once_per_flip(monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, faults_module, "operand_from_csr", counts)
    results = _decay_batch(
        lambda net: sample_fault_schedule(net, seed=1, horizon=80, edge_flip_rate=0.3)
    )
    flips = max(result.sim.faults.edge_flips_applied for result in results)
    assert flips > 0
    assert counts["operand_from_csr"] == flips


@pytest.mark.parametrize("protocol", ["decay", "ghk"])
def test_mixed_protocol_classes_share_one_kernel_call(protocol):
    # A subclass is never fused with its base class (it may add state), but
    # both still ride one kernel call per round; results match alone.
    class Subclassed(array_protocol_class(protocol)):
        pass

    net = from_spec("grid", 9, seed=0)
    cd = protocol == "ghk"
    items = [
        BatchItem(net, cls(), budget=200, seed=seed, collision_detection=cd, params=FAST)
        for seed, cls in enumerate(
            [array_protocol_class(protocol), Subclassed, array_protocol_class(protocol)]
        )
    ]
    outcomes = BatchEngine(items).run()
    for outcome in outcomes:
        alone = ArrayEngine(
            net,
            array_protocol_class(protocol)(),
            seed=outcome.item.seed,
            collision_detection=cd,
            params=FAST,
        )
        sim = alone.run(200, stop_when=lambda engine: engine.protocol.done())
        assert outcome.sim == sim
        assert outcome.completed
