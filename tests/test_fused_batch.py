"""Fused batch groups: one disjoint-union instance per group, bit for bit per item.

:class:`~repro.sim.core.batch.BatchEngine` steps the items sharing a
topology, backend, fault schedule and start round — or, on the sparse
backend without faults, merely a size — as one instance over the
disjoint union of their networks.  The property here is the contract: a
fused run equals every item run alone through ``ArrayEngine.step`` —
informed rounds, round records, traffic, fault totals and the
undelivered set — with the sanitizer on, over random connected graphs
(one per group, or several of one size per sparse group), every fusable
protocol, every backend, mixed budgets (rows retire at the front, middle
and tail of a group) and every fault family.  The structural tests pin
what fusing buys: one protocol, kernel and fault pass per group round,
one operand rebuild per edge flip.
"""

from collections import Counter
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import BeepWaveArrayProtocol
from repro.analysis.simsan.core import Sanitizer
from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim import (
    ArrayEngine,
    BatchEngine,
    BatchItem,
    BroadcastArrayProtocol,
    CoinDeck,
    DecayArrayProtocol,
    EdgeFlip,
    FaultSchedule,
    FaultState,
    Jammer,
    MultiMessageArrayProtocol,
    NodeCrash,
    broadcast_spec,
    run_broadcast,
    run_broadcast_batch,
)
from repro.sim import faults as faults_module
from repro.sim.core import batch as batch_module
from repro.sim.faults import sample_fault_schedule
from repro.sim.topology import RadioNetwork, from_spec

FAST = ProtocolParams.fast()

#: Protocol cases: (class, constructor options).
PROTOCOLS = {
    "decay": (DecayArrayProtocol, {}),
    "multimessage-k1": (MultiMessageArrayProtocol, {"k_messages": 1}),
    "multimessage-k3": (MultiMessageArrayProtocol, {"k_messages": 3}),
    "beepwave": (BeepWaveArrayProtocol, {}),
    "beepwave-blind": (BeepWaveArrayProtocol, {"collision_detection": False}),
}


def _network(n, order, extra):
    """A connected graph: the path ``order`` plus the ``extra`` pairs."""
    u = [*order[:-1], *(a for a, _ in extra)]
    v = [*order[1:], *(b for _, b in extra)]
    return RadioNetwork.from_edges(n, u, v, source=order[0])


@st.composite
def fused_cases(draw):
    """``(networks, protocol case, backend, seeds, budgets, schedule)``.

    ``networks`` holds one network per row: a single graph, or — for a
    sparse fault-free group — rows drawn from a pool of graphs of one size.
    """
    n = draw(st.integers(2, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    graph = st.builds(
        _network, st.just(n), st.permutations(range(n)), st.lists(pair, max_size=n)
    )
    protocol = draw(st.sampled_from(sorted(PROTOCOLS)))
    mixed = draw(st.booleans())
    backend = "sparse" if mixed else draw(st.sampled_from(["dense", "sparse", "bitpacked"]))
    rows = draw(st.integers(1, 6))
    pool = draw(st.lists(graph, min_size=2 if mixed else 1, max_size=3 if mixed else 1))
    nets = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
    seeds = draw(st.lists(st.integers(0, 999), min_size=rows, max_size=rows))
    budgets = draw(st.lists(st.integers(0, 60), min_size=rows, max_size=rows))
    if mixed:
        return nets, protocol, backend, seeds, budgets, FaultSchedule()
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
    return nets, protocol, backend, seeds, budgets, schedule


def _protocol(case):
    cls, options = PROTOCOLS[case]
    return cls(**options)


def _state(protocol):
    """Everything a run leaves in a protocol object, as plain data."""
    state = {}
    for name in type(protocol).node_state:
        value = getattr(protocol, name)
        # A coin deck's only state is its row keys.
        state[name] = (value.keys if isinstance(value, CoinDeck) else np.asarray(value)).tolist()
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
#: Three different graphs of 8 nodes, sources at different ids.
_LINE8, _RING8, _STAR8 = (
    from_spec(family, 8, source=source)
    for family, source in (("line", 0), ("ring", 3), ("star", 5))
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(fused_cases())
# The last rows of a fused group retire first (no hole to fill), then the
# first (a hole filled from the tail), then the middle.
@example(([_LINE4] * 4, "decay", "dense", [0, 1, 2, 3], [40, 40, 2, 1], _LOSSY))
@example(([_LINE4] * 3, "multimessage-k1", "sparse", [5, 6, 7], [1, 40, 40], _LOSSY))
@example(([_LINE4] * 3, "multimessage-k3", "bitpacked", [8, 9, 10], [40, 3, 40], _LOSSY))
# The same three retire orders on sparse groups mixing graphs: the row map
# of the union operand follows every compaction, down to a lone row.
@example(
    ([_LINE8, _RING8, _STAR8, _LINE8], "multimessage-k1", "sparse", [0, 1, 2, 3],
     [60, 60, 2, 1], FaultSchedule())
)
@example(([_STAR8, _LINE8, _RING8], "decay", "sparse", [4, 5, 6], [1, 60, 60], FaultSchedule()))
@example(
    ([_RING8, _STAR8, _STAR8, _LINE8], "multimessage-k3", "sparse", [7, 8, 9, 10],
     [60, 3, 60, 60], FaultSchedule())
)
def test_fused_run_equals_items_run_alone(case):
    nets, protocol, backend, seeds, budgets, schedule = case
    params = FAST.with_overrides(channel_backend=backend)
    items = [
        BatchItem(
            network=net,
            protocol=_protocol(protocol),
            budget=budget,
            seed=seed,
            params=params,
            faults=schedule,
        )
        for net, seed, budget in zip(nets, seeds, budgets)
    ]
    records = {i: [] for i in range(len(items))}
    batch = BatchEngine(
        items, observers=[lambda i, stats: records[i].append(stats)], sanitize=True
    )
    assert batch.group_sizes() == [len(items)]
    outcomes = batch.run()
    for i, (outcome, net, seed, budget) in enumerate(zip(outcomes, nets, seeds, budgets)):
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


def test_mixed_graph_group_resolves_one_kernel_call_per_round(monkeypatch):
    # Sparse fault-free items on different graphs of one size are one
    # group: a round is one kernel call however many graphs it spans, so
    # the calls equal the longest instance's rounds, not the sum.
    counts = Counter()
    _count_calls(monkeypatch, batch_module, "resolve_channel", counts)
    nets = [from_spec("unit_disk", 64, seed=s) for s in range(4)] + [
        from_spec("line", 64),
        from_spec("grid", 64),
    ]
    results = run_broadcast_batch(
        "ghk",
        nets,
        seeds=range(len(nets)),
        params=FAST.with_overrides(channel_backend="sparse"),
        sanitize=False,
    )
    group_rounds = max(result.sim.rounds_run for result in results)
    assert sum(result.sim.rounds_run for result in results) > group_rounds
    assert counts == {"resolve_channel": group_rounds}


def test_sanitizers_of_a_mixed_graph_group_see_their_own_operands(monkeypatch):
    seen = []
    original = Sanitizer.on_channel

    def recording(self, round_index, plan, channel, operand, fault_state):
        seen.append((self, operand))
        return original(self, round_index, plan, channel, operand, fault_state)

    monkeypatch.setattr(Sanitizer, "on_channel", recording)
    nets = [from_spec("unit_disk", 48, seed=s) for s in range(3)]
    params = FAST.with_overrides(channel_backend="sparse")
    batch = BatchEngine(
        [
            BatchItem(net, _protocol("multimessage-k1"), budget=200, seed=s, params=params)
            for s, net in enumerate(nets)
        ],
        sanitize=True,
    )
    assert batch.group_sizes() == [3]
    batch.run()
    own = {id(engine._sanitizer): engine.kernel_operand for engine in batch.engines}
    assert seen
    assert all(operand is own[id(sanitizer)] for sanitizer, operand in seen)


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
    base = broadcast_spec(protocol).array_factory

    class Subclassed(base):
        pass

    net = from_spec("grid", 9, seed=0)
    items = [
        BatchItem(net, cls(), budget=200, seed=seed, params=FAST)
        for seed, cls in enumerate(
            [base, Subclassed, base]
        )
    ]
    outcomes = BatchEngine(items).run()
    for outcome in outcomes:
        alone = ArrayEngine(net, base(), seed=outcome.item.seed, params=FAST)
        sim = alone.run(200, stop_when=lambda engine: engine.protocol.done())
        assert outcome.sim == sim
        assert outcome.completed


def test_blind_and_detecting_waves_never_fuse():
    # The wave's channel model is its own constructor argument, so it is
    # part of the fusion key: on a contended grid the blind wave stalls
    # inside the very group where the detecting waves sweep cleanly.
    net = from_spec("grid", 64, seed=0)
    flags = [True, False, True]
    items = [
        BatchItem(net, BeepWaveArrayProtocol(collision_detection=cd), budget=40, seed=0)
        for cd in flags
    ]
    outcomes = BatchEngine(items).run()
    for outcome, cd in zip(outcomes, flags):
        alone = BeepWaveArrayProtocol(collision_detection=cd)
        sim = ArrayEngine(net, alone).run(40, stop_when=lambda engine: engine.protocol.done())
        assert outcome.sim == sim
        assert _state(outcome.item.protocol) == _state(alone)
        assert bool(outcome.item.protocol.unsynchronized()) is not cd


#: ``run_broadcast`` cases: (protocol, options).
RUNS = [
    ("decay", None),
    ("ghk", None),
    ("multimessage", {"k_messages": 1}),
    ("multimessage", {"k_messages": 2}),
    ("multimessage", {"k_messages": 4}),
]


@st.composite
def batch_runs(draw):
    """``(protocol, options, backend, networks, seeds, faults, budget, stepped)``.

    The networks have mixed sizes, so a batch spans several groups; or
    one size, as distinct graphs or as a few graphs repeated, so faulted
    items fuse.  ``faults`` is ``None``, one schedule shared by every item
    (sampled on the smallest network, so every node it names exists
    everywhere), or one sampled schedule per item; ``budget`` is the
    default or one small enough to starve most runs; ``stepped`` counts
    the rounds each item runs on its own before the batch runs.
    """
    protocol, options = draw(st.sampled_from(RUNS))
    backend = draw(st.sampled_from(["dense", "sparse", "bitpacked"]))
    shape = draw(st.sampled_from(["mixed sizes", "one size", "repeated"]))
    count = draw(st.integers(2, 5))
    if shape == "mixed sizes":
        sizes = draw(st.lists(st.integers(2, 9), min_size=count, max_size=count))
    else:
        sizes = [draw(st.integers(2, 9))] * (count if shape == "one size" else 2)
    graphs = []
    for n in sizes:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        )
        order = draw(st.permutations(range(n)))
        graphs.append(_network(n, order, draw(st.lists(pair, max_size=n))))
    nets = graphs
    if shape == "repeated":
        picks = st.lists(st.sampled_from(graphs), min_size=count, max_size=count)
        nets = draw(picks)
    seeds = draw(st.lists(st.integers(0, 999), min_size=len(nets), max_size=len(nets)))
    mode = draw(st.sampled_from(["none", "shared", "per-item"]))
    fault_seed = draw(st.integers(0, 999))
    if mode == "none":
        faults = None
    elif mode == "shared":
        smallest = min(nets, key=lambda net: net.n)
        faults = sample_fault_schedule(
            smallest, seed=fault_seed, horizon=60, crash_rate=0.3, loss_rate=0.2
        )
    else:
        faults = [
            sample_fault_schedule(
                net,
                seed=fault_seed + i,
                horizon=60,
                crash_rate=0.2,
                loss_rate=0.2,
                jammers=min(1, net.n - 1),
                edge_flip_rate=0.2,
            )
            for i, net in enumerate(nets)
        ]
    budget = draw(st.sampled_from([None, 3, 12]))
    stepped = draw(st.lists(st.integers(0, 2), min_size=len(nets), max_size=len(nets)))
    return protocol, options, backend, nets, seeds, faults, budget, stepped


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch_runs())
def test_batch_entries_equal_each_item_run_alone(case):
    # The run API's contract: whatever a batch groups and fuses, entry i is
    # what ``run_broadcast`` returns or raises for item i on its own —
    # even when some items ran a few rounds alone before the batch did.
    protocol, options, backend, nets, seeds, faults, budget, stepped = case
    params = FAST.with_overrides(channel_backend=backend)
    per_item = faults if isinstance(faults, list) else [faults] * len(nets)
    run = BatchEngine.run

    def run_after_stepping(batch):
        for engine, item, rounds in zip(batch.engines, batch.items, stepped):
            for _ in range(min(rounds, item.budget - 1)):
                if not item.protocol.done():
                    engine.step()
        return run(batch)

    with patch.object(BatchEngine, "run", run_after_stepping):
        entries = run_broadcast_batch(
            protocol, nets, seeds=seeds, params=params, budget=budget, options=options,
            faults=faults, sanitize=True,
        )
    assert len(entries) == len(nets)
    for entry, net, seed, schedule in zip(entries, nets, seeds, per_item):
        alone = partial(
            run_broadcast, protocol, net, params, seed=seed, budget=budget, options=options,
            faults=schedule, sanitize=True,
        )
        if isinstance(entry, BroadcastFailure):
            with pytest.raises(BroadcastFailure) as raised:
                alone()
            failure = raised.value
            assert (failure.undelivered, failure.budget, failure.sim) == (
                entry.undelivered, entry.budget, entry.sim
            )
        else:
            assert alone() == entry
