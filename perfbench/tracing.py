"""The traced pass: the same spec-to-result run, timed layer by layer.

Everything is measured from outside the program, with no change to it.
The pass runs the real :func:`run_broadcast_batch`, but for its duration
``repro.sim.runners`` builds a :class:`BatchEngine` subclass that wraps
the objects the layers hand each other — the kernel operand
(``as_kernel_operand`` accepts any object with the operand surface), the
:class:`ArrayProtocol` of every instance, and the :class:`FaultState`
each engine exposes — and drives the engines' ``begin_round`` /
``resolve_round`` / ``complete_round`` the way :meth:`BatchEngine.run`
does.  A few public functions the engine calls by name are timed too
(``RadioNetwork.bfs_layers``/``csr``/``adjacency_key``, ``SeededStreams``,
``select_kernel_operand``, ``CoinDeck.draw``, the spec's
``build_result``).  The results are the untraced pass's, bit for bit (the
digests prove it).

Spans nest: a span's *self* time is its duration minus its child spans.
Two spans belong to no layer: the tracer's own counting work, and the
subclass's copy of the round loop (stacking fused masks, retiring
instances), which stands in for :meth:`BatchEngine.run`'s own bookkeeping.
So the layers' self times add up to the traced wall time less those two
and the gaps between spans.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from typing import Any

import numpy as np

from repro.params import ProtocolParams
from repro.sim import runners as runners_module
from repro.sim.core import batch as batch_module
from repro.sim.core.array_protocol import ArrayContext, ArrayProtocol, CoinDeck, RoundPlan
from repro.sim.core.batch import BatchEngine, BatchItem, BatchOutcome
from repro.sim.core.channel import ChannelRound, KernelOperand, resolve_channel
from repro.sim.runners import BroadcastSpec
from repro.sim.topology import RadioNetwork

from perfbench.workloads import PassResult, Workload, run_pass

__all__ = ["BOOKKEEPING", "GLUE", "Tracer", "run_traced_pass"]

#: Span name for the tracer's own counting work.
BOOKKEEPING = "trace.bookkeeping"
#: Span name for the traced engine's copy of the round loop.
GLUE = "trace.glue"
#: Spans that belong to no layer of the program.
NOT_LAYERS = frozenset({BOOKKEEPING, GLUE})


class Tracer:
    """Nested span timer plus exact work counters, kept in memory."""

    def __init__(self) -> None:
        #: per span name: total duration minus the duration of child spans.
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Child time accumulated by each open span; [0] is the root.
        self._child = [0.0]

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside span ``name``."""
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self.self_s[name] += elapsed - self._child.pop()
            self._child[-1] += elapsed

    def layer_seconds(self) -> float:
        """Self time of every span that belongs to a layer."""
        return sum(v for k, v in self.self_s.items() if k not in NOT_LAYERS)


class TracedOperand:
    """Kernel-operand wrapper: times each reduction, counts the work it is given."""

    def __init__(self, inner: KernelOperand, tracer: Tracer, degrees: np.ndarray) -> None:
        self.inner = inner
        self.n = inner.n
        self.backend = inner.backend
        self._tracer = tracer
        self._degrees = degrees
        self._edge_slots = int(degrees.sum())

    def _count(self, transmit: np.ndarray) -> None:
        rows = 1 if transmit.ndim == 1 else transmit.shape[0]
        counts = self._tracer.counts
        counts["channel.calls"] += 1
        counts["channel.rows"] += rows
        counts["channel.edge_slots"] += rows * self._edge_slots
        counts["channel.transmitters"] += int(np.count_nonzero(transmit))
        counts["channel.tx_degree_sum"] += int((transmit @ self._degrees).sum())

    def prepare_transmit(self, transmit: np.ndarray) -> Any:
        self._tracer.call(BOOKKEEPING, self._count, transmit)
        return self._tracer.call("channel.prepare", self.inner.prepare_transmit, transmit)

    def transmit_counts(self, tx: Any) -> np.ndarray:
        return self._tracer.call("channel.counts", self.inner.transmit_counts, tx)

    def sender_ids(self, tx: Any, clean: np.ndarray) -> np.ndarray:
        return self._tracer.call("channel.senders", self.inner.sender_ids, tx, clean)


class TracedProtocol(ArrayProtocol):
    """Array-protocol wrapper timing setup, act, feedback and the stop check."""

    def __init__(self, inner: ArrayProtocol, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer

    def setup(self, ctx: ArrayContext) -> None:
        self._tracer.call("protocol.setup", self.inner.setup, ctx)

    def act(self, round_index: int) -> RoundPlan:
        return self._tracer.call("protocol.act", self.inner.act, round_index)

    def on_feedback(self, round_index: int, channel: ChannelRound) -> None:
        self._tracer.call("protocol.feedback", self.inner.on_feedback, round_index, channel)

    def done(self) -> bool:
        return self._tracer.call("protocol.done", self.inner.done)


def _timed(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def timed(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, *args, **kwargs)

    return timed


@contextmanager
def _instrumented(tracer: Tracer) -> Iterator[None]:
    """Trace the batch engine and the public functions it calls by name, for one pass."""
    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    select = batch_module.select_kernel_operand
    streams = batch_module.SeededStreams
    draw = CoinDeck.draw
    spec_for = runners_module.broadcast_spec

    def traced_select(network: RadioNetwork, params: ProtocolParams) -> TracedOperand:
        operand = tracer.call("channel.operand", select, network, params)
        degrees = np.diff(network.csr()[0])
        return TracedOperand(operand, tracer, degrees)

    def traced_streams(seed: int, n_nodes: int) -> Any:
        tracer.counts["rng.generators"] += n_nodes + 1
        return tracer.call("rng.streams", streams, seed, n_nodes)

    def traced_draw(deck: CoinDeck, nodes: np.ndarray) -> np.ndarray:
        tracer.counts["protocol.coins"] += int(nodes.size)
        return tracer.call("protocol.coins", draw, deck, nodes)

    def traced_spec(name: str) -> BroadcastSpec:
        spec = spec_for(name)
        return dataclasses.replace(
            spec, build_result=_timed(tracer, "runners.result", spec.build_result)
        )

    try:
        for method, name in (
            ("bfs_layers", "topology.bfs"),
            ("csr", "topology.csr"),
            ("adjacency_key", "topology.key"),
        ):
            patch(RadioNetwork, method, _timed(tracer, name, getattr(RadioNetwork, method)))
        patch(batch_module, "select_kernel_operand", traced_select)
        patch(batch_module, "SeededStreams", traced_streams)
        patch(CoinDeck, "draw", traced_draw)
        patch(runners_module, "broadcast_spec", traced_spec)
        patch(runners_module, "BatchEngine", _engine_class(tracer))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _split(channel: ChannelRound, rows: int) -> list[ChannelRound]:
    """A fused channel outcome, one row per instance."""
    return [channel.row(row) for row in range(rows)]


def _engine_class(tracer: Tracer) -> type[BatchEngine]:
    """A :class:`BatchEngine` whose protocols, fault states and loop are traced."""

    class TracedBatchEngine(BatchEngine):
        def __init__(self, items: Sequence[BatchItem], **kwargs: Any) -> None:
            for item in items:
                item.protocol = TracedProtocol(item.protocol, tracer)
            tracer.call("engine.construct", super().__init__, items, **kwargs)
            for engine in self.engines:
                state = engine.fault_state
                if state is not None:
                    state.begin_round = _timed(tracer, "faults.begin", state.begin_round)
                    state.perceive = _timed(tracer, "faults.perceive", state.perceive)

        def run(self) -> list[BatchOutcome]:
            t0 = time.perf_counter()
            outcomes: list[BatchOutcome] = tracer.call(GLUE, self._rounds)
            self._wall_seconds += time.perf_counter() - t0
            tracer.call(BOOKKEEPING, self._count, outcomes)
            # The runner builds results from the protocols it created.
            for item in self.items:
                item.protocol = item.protocol.inner
            return outcomes

        def _count(self, outcomes: list[BatchOutcome]) -> None:
            counts = tracer.counts
            counts["engine.instances"] += len(self.items)
            counts["engine.groups"] += len(self.group_sizes())
            for outcome in outcomes:
                counts["protocol.informed"] += int(outcome.item.protocol.inner.informed.sum())
                counts["protocol.rounds"] += outcome.sim.rounds_run
                if outcome.sim.faults is not None:
                    counts["faults.dropped"] += outcome.sim.faults.dropped_receptions
                    counts["faults.crashed_node_rounds"] += (
                        outcome.sim.faults.crashed_node_rounds
                    )

        def _rounds(self) -> list[BatchOutcome]:
            """:meth:`BatchEngine.run`'s loop, with every engine call timed."""
            items, engines = self.items, self.engines
            # Engines share an operand exactly when the batch fuses them.
            groups: dict[int, list[int]] = {}
            for i, engine in enumerate(engines):
                groups.setdefault(id(engine.kernel_operand), []).append(i)
            outcomes: list[BatchOutcome | None] = [None] * len(items)
            live: set[int] = set()

            def retire(i: int, completed: bool) -> None:
                sim = tracer.call("engine.result", engines[i].snapshot, stopped_early=completed)
                outcomes[i] = BatchOutcome(item=items[i], sim=sim, completed=completed)
                live.discard(i)

            def count_clean(channel: ChannelRound) -> None:
                tracer.counts["channel.clean"] += int(np.count_nonzero(channel.clean))

            for i, item in enumerate(items):
                if item.protocol.done():
                    retire(i, True)
                elif item.budget == 0:
                    retire(i, False)
                else:
                    live.add(i)
            while live:
                for indices in groups.values():
                    active = [i for i in indices if i in live]
                    if not active:
                        continue
                    if len(active) == 1:
                        engine = engines[active[0]]
                        tracer.call("engine.round", engine.begin_round)
                        channel = tracer.call("channel.masks", engine.resolve_round)
                        tracer.call(BOOKKEEPING, count_clean, channel)
                        tracer.call("engine.round", engine.complete_round, channel)
                        continue
                    plans = [tracer.call("engine.round", engines[i].begin_round) for i in active]
                    transmit = np.stack([p.transmit for p in plans])
                    listen = np.stack([p.listen for p in plans])
                    channel = tracer.call(
                        "channel.masks", resolve_channel,
                        engines[active[0]].round_operand(), transmit, listen,
                    )
                    tracer.counts["engine.fused_calls"] += 1
                    tracer.call(BOOKKEEPING, count_clean, channel)
                    rows = tracer.call("channel.masks", _split, channel, len(active))
                    for i, row in zip(active, rows):
                        tracer.call("engine.round", engines[i].complete_round, row)
                for i in sorted(live):
                    if items[i].protocol.done():
                        retire(i, True)
                    elif engines[i].round_index >= items[i].budget:
                        retire(i, False)
            return [outcome for outcome in outcomes if outcome is not None]

    return TracedBatchEngine


def run_traced_pass(
    workload: Workload, seed: int, params: ProtocolParams
) -> tuple[PassResult, Tracer]:
    """One spec-to-result pass with every layer boundary timed."""
    tracer = Tracer()
    with _instrumented(tracer):
        result = run_pass(workload, seed, params, call=tracer.call)
    tracer.counts["topology.edges"] = sum(net.num_edges for net in result.networks)
    tracer.counts["topology.ecc"] = max(net.eccentricity() for net in result.networks)
    return result, tracer
