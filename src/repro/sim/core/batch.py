"""Array-native engines: one instance, or many batched in one process.

:class:`ArrayEngine` drives a single
:class:`~repro.sim.core.array_protocol.ArrayProtocol` on one network with
the shared channel kernel, recording
:class:`~repro.sim.core.stats.RoundStats` traces when ``trace=True`` and
stopping early on a caller's predicate.  Its ``begin_round`` /
``resolve_round`` / ``complete_round`` split exposes one round's phases
to tooling (the sanitizer's bisector, the benchmark's tracer).

:class:`BatchEngine` steps many *independent* instances — any mix of
(seed × topology × protocol) — in one process.  It builds one
:class:`ArrayEngine` per item (the per-item API and results), but runs
them as *fused groups*: the items sharing a topology, channel backend,
fault schedule and start round are stepped in lock-step as **one
disjoint-union instance**.  Within a group, items whose protocols share a
:meth:`~repro.sim.core.array_protocol.ArrayProtocol.fusion_key` become one
fused protocol over ``B·n`` flat nodes (node ``v`` of row ``b`` is
``b·n + v``); any other protocol is a part of one row.  A group round is
then one ``act`` per part, one kernel call over all rows — a
``(B, n) @ (n, n)`` matmul on the dense backend, one ``bincount`` of
length ``B·n`` over the transmitters' CSR rows on the sparse one — one
fault pass (a shared crash mask, jam cover and edge-flip timeline, loss
coins per row from each item's own engine stream), one ``on_feedback``
per part with flat sender ids, one ``(4, B·n)`` counter update and one
vectorized done/budget check, whatever ``B`` is.  A row leaves the group
the moment its instance completes or exhausts its budget: its state is
written back to its own engine and protocol object, so a straggler never
costs the finished instances anything and results read exactly as if
each instance had run alone — bit for bit.

Backend selection (:func:`resolve_channel_backend`) is per run:
``params.channel_backend`` forces ``"dense"``, ``"sparse"`` or
``"bitpacked"``, and the default ``"auto"`` picks sparse whenever the
graph's adjacency density is at or below
``params.sparse_density_threshold`` and the bit-packed popcount kernel
for dense-density graphs of at least ``params.bitpacked_min_n`` nodes.
All backends are bitwise-identical in every observable (traces, round
counts, channel totals), so the choice is purely a speed/memory knob.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SimulationError
from repro.params import ProtocolParams
from repro.sim.core.array_protocol import ArrayContext, ArrayProtocol, RoundPlan
from repro.sim.core.channel import (
    BitOperand,
    ChannelRound,
    DenseOperand,
    KernelOperand,
    SparseOperand,
    as_kernel_operand,
    check_channel_masks,
    resolve_channel,
    round_stats,
)
from repro.sim.core.stats import (
    FaultTotals,
    RoundStats,
    RunTelemetry,
    SimResult,
    TrafficTotals,
)
from repro.sim.faults import FaultSchedule, FaultState
from repro.sim.rng import SeededStreams
from repro.sim.topology import RadioNetwork

if TYPE_CHECKING:
    from repro.analysis.simsan.core import Sanitizer, SanitizerConfig

__all__ = [
    "ArrayEngine",
    "BatchEngine",
    "BatchItem",
    "BatchOutcome",
    "RoundObserver",
    "TraceObserver",
    "resolve_channel_backend",
    "select_kernel_operand",
]

#: A streaming round consumer: called once per executed round with that
#: round's omniscient :class:`RoundStats`, in round order — O(1) memory
#: where ``trace=True`` is O(rounds · n).
RoundObserver = Callable[[RoundStats], None]


class TraceObserver:
    """The observer that *is* trace collection: appends every round's record.

    ``trace=True`` on the engines installs one of these as the first
    observer, so the trace history and every user observer are guaranteed
    to see the very same :class:`RoundStats` objects.
    """

    __slots__ = ("history",)

    def __init__(self) -> None:
        self.history: list[RoundStats] = []

    def __call__(self, stats: RoundStats) -> None:
        self.history.append(stats)


#: Row indices of the per-node traffic accumulator (see ArrayEngine).
_TX, _RX, _COLL, _AWAKE = range(4)


def _traffic_totals(counters: np.ndarray) -> TrafficTotals:
    """Freeze a ``(4, n)`` counter window into a :class:`TrafficTotals`."""
    return TrafficTotals(
        transmissions=tuple(int(v) for v in counters[_TX]),
        receptions=tuple(int(v) for v in counters[_RX]),
        collisions_heard=tuple(int(v) for v in counters[_COLL]),
        awake_slots=tuple(int(v) for v in counters[_AWAKE]),
    )


def _new_phase_seconds() -> dict[str, float]:
    return {"act": 0.0, "channel": 0.0, "feedback": 0.0}


def _checked_plan(plan: object, size: int) -> RoundPlan:
    """An ``act()`` return value, validated as a plan over ``size`` nodes."""
    if not isinstance(plan, RoundPlan):
        raise SimulationError(
            f"array protocol returned {plan!r} from act(); expected a RoundPlan"
        )
    if plan.transmit.shape != (size,) or plan.listen.shape != (size,):
        raise SimulationError(
            f"round plan masks must have shape ({size},), got "
            f"transmit {plan.transmit.shape} and listen {plan.listen.shape}"
        )
    return plan


def _accumulate(
    traffic: np.ndarray,
    transmit: np.ndarray,
    listen: np.ndarray,
    clean: np.ndarray,
    collided: np.ndarray,
) -> None:
    """Add one round's ``(nodes,)`` masks to ``(4, nodes)`` traffic counters."""
    traffic[_TX] += transmit
    traffic[_RX] += clean
    traffic[_COLL] += collided
    # transmit and listen are disjoint (kernel precondition), so this
    # counts exactly the radios-on rounds.
    traffic[_AWAKE] += transmit | listen


def _row(channel: ChannelRound, row: int) -> ChannelRound:
    """One row of a channel that is ``(n,)`` for one row or ``(rows, n)``."""
    return channel if channel.clean.ndim == 1 else channel.row(row)


def resolve_channel_backend(network: RadioNetwork, params: ProtocolParams) -> str:
    """The concrete channel backend (``"dense"``/``"sparse"``/``"bitpacked"``).

    ``params.channel_backend`` wins when explicit.  ``"auto"`` picks by
    density and size: networks below ``params.sparse_min_n`` keep the BLAS
    matmul (which wins below the crossover even on sparse graphs); larger
    networks whose adjacency density ``2·edges / n²`` is at or below the
    params threshold get the CSR kernel (Θ(Σ deg(tx) + n) per round);
    denser ones get the bit-packed popcount kernel from
    ``params.bitpacked_min_n`` nodes up (same Θ(n²) work as dense, ~64×
    less operand memory) and the matmul below it.  Every backend is
    bitwise-identical in results.
    """
    backend = params.channel_backend
    if backend != "auto":
        return backend
    if network.n < params.sparse_min_n:
        return "dense"
    density = (2 * network.num_edges) / (network.n * network.n)
    if density <= params.sparse_density_threshold:
        return "sparse"
    return "bitpacked" if network.n >= params.bitpacked_min_n else "dense"


def select_kernel_operand(
    network: RadioNetwork, params: ProtocolParams
) -> KernelOperand:
    """Build the kernel operand :func:`resolve_channel_backend` picks.

    The sparse and bit-packed paths never touch
    :meth:`RadioNetwork.adjacency_matrix`, so choosing either keeps the
    whole run free of n² allocations.
    """
    backend = resolve_channel_backend(network, params)
    if backend == "sparse":
        return SparseOperand(*network.csr())
    if backend == "bitpacked":
        return BitOperand(*network.csr())
    return DenseOperand(network.adjacency_matrix())


class ArrayEngine:
    """Synchronous array-native simulator for one protocol run on one network."""

    def __init__(
        self,
        network: RadioNetwork,
        protocol: ArrayProtocol,
        *,
        seed: int = 0,
        collision_detection: bool = True,
        params: ProtocolParams | None = None,
        n_bound: int | None = None,
        trace: bool = False,
        kernel_operand: KernelOperand | np.ndarray | None = None,
        observers: Sequence[RoundObserver] | None = None,
        faults: FaultSchedule | None = None,
        sanitize: bool | SanitizerConfig | None = None,
    ) -> None:
        if n_bound is not None and n_bound < network.n:
            raise SimulationError(
                f"n_bound {n_bound} is below the actual network size {network.n}"
            )
        self.network = network
        self.protocol = protocol
        self.collision_detection = collision_detection
        self.params = params if params is not None else ProtocolParams.paper()
        self.n_bound = n_bound if n_bound is not None else network.n
        self.trace = trace
        self.streams = SeededStreams(seed, network.n)
        # A caller that already holds the kernel operand for this topology
        # (the batch engine sharing one per group) passes it in — a raw
        # adjacency matrix means dense; otherwise select dense or sparse
        # per the params' backend policy and the graph's density.
        self._operand = (
            as_kernel_operand(kernel_operand)
            if kernel_operand is not None
            else select_kernel_operand(network, self.params)
        )
        self._round = 0
        # Per-node streaming traffic counters (rows: transmissions, clean
        # receptions, collisions heard, awake slots).  O(n) memory for the
        # whole run; the SimResult scalar totals are sums of these rows,
        # so per-node and scalar accounting cannot drift apart.
        self._traffic = np.zeros((4, network.n), dtype=np.int64)
        # Trace collection is itself just the first round observer.
        self._trace_observer = TraceObserver() if trace else None
        chain: list[RoundObserver] = [] if self._trace_observer is None else [
            self._trace_observer
        ]
        chain.extend(observers or ())
        self._observers: tuple[RoundObserver, ...] = tuple(chain)
        self._phase_seconds = _new_phase_seconds()
        self._wall_seconds = 0.0
        self._plan: RoundPlan | None = None
        self._last_channel: ChannelRound | None = None
        # An attached *empty* schedule is a no-op by construction: no
        # FaultState is built, no engine-stream coin is ever drawn, and
        # SimResult.faults stays None — bitwise identical to no schedule.
        self._fault_state: FaultState | None = None
        if faults is not None and not faults.is_empty:
            self._fault_state = FaultState(
                faults, network, self._operand, self.streams.engine
            )
        # Opt-in runtime sanitizer (see repro.analysis.simsan).  ``None``
        # defers to the REPRO_SANITIZE environment variable; a disabled
        # engine holds no sanitizer object, so its only per-round cost is
        # the ``is not None`` guards in the round hooks.  The import is
        # deferred: simsan sits in the analysis layer above the kernel
        # modules, so a module-level import here would be circular when
        # the import chain starts from the analysis side — and an engine
        # built with sanitize=False never loads the sanitizer at all.
        self._sanitizer: Sanitizer | None = None
        if sanitize is not False:
            from repro.analysis.simsan.core import (
                Sanitizer as _Sanitizer,
                SanitizerConfig as _SanitizerConfig,
                sanitize_from_env,
            )

            enabled = sanitize if sanitize is not None else sanitize_from_env()
            if enabled is not False:
                config = (
                    enabled
                    if isinstance(enabled, _SanitizerConfig)
                    else _SanitizerConfig()
                )
                self._sanitizer = _Sanitizer(
                    config, network=network, operand=self._operand, seed=seed
                )
        protocol.setup(
            ArrayContext(
                n_nodes=network.n,
                n_bound=self.n_bound,
                source=network.source,
                params=self.params,
                collision_detection=collision_detection,
                streams=self.streams,
            )
        )

    @property
    def round_index(self) -> int:
        """Index of the next round to be executed."""
        return self._round

    @property
    def kernel_operand(self) -> KernelOperand:
        """The channel-kernel operand (shared across a batch group's engines)."""
        return self._operand

    def round_operand(self) -> KernelOperand:
        """The operand to resolve the *current* round against.

        Identical to :attr:`kernel_operand` on fault-free runs; under a
        fault schedule with edge flips it is the operand for the current
        (time-varying) adjacency, valid only after :meth:`begin_round`
        has advanced the flips for this round.
        """
        if self._fault_state is None:
            return self._operand
        return self._fault_state.operand

    @property
    def last_channel(self) -> ChannelRound | None:
        """The most recently completed round as the radios perceived it.

        Under a fault schedule this is the post-fault channel (loss and
        jamming applied) — the one the protocol feedback and any
        materialized :class:`RoundStats` saw — not the raw kernel output.
        """
        return self._last_channel

    @property
    def backend(self) -> str:
        """Which channel backend this engine runs on.

        ``"dense"``, ``"sparse"`` or ``"bitpacked"`` — or the backend
        name a wrapper operand reports.
        """
        return self._operand.backend

    @property
    def fault_state(self) -> FaultState | None:
        """The live fault-layer state, or ``None`` on fault-free runs.

        Read-only introspection for tooling (the sanitizer's bisector
        records its adjacency version in repro bundles); mutating it
        mid-run is undefined behaviour.
        """
        return self._fault_state

    @property
    def sanitized(self) -> bool:
        """Whether this engine runs with the runtime sanitizer attached."""
        return self._sanitizer is not None

    @property
    def history(self) -> tuple[RoundStats, ...]:
        """The trace history so far (empty unless ``trace=True``)."""
        if self._trace_observer is None:
            return ()
        return tuple(self._trace_observer.history)

    def fault_totals(self) -> FaultTotals | None:
        """Lifetime injected-fault totals across every round executed so far.

        ``None`` when no fault layer is attached.  Unlike the per-window
        totals a :meth:`run` result carries, this accumulates across
        multiple ``run()`` calls on the same engine.
        """
        if self._fault_state is None:
            return None
        return self._fault_state.totals(self._fault_state.counters)

    def telemetry(self) -> RunTelemetry:
        """Wall-clock observables accumulated so far (see :class:`RunTelemetry`).

        ``wall_seconds`` covers time spent inside :meth:`run`; the phase
        timers also cover :meth:`step` calls made directly.
        """
        return RunTelemetry(
            rounds=self._round,
            wall_seconds=self._wall_seconds,
            phase_seconds=dict(self._phase_seconds),
        )

    # ------------------------------------------------------------------ #
    # Round execution
    # ------------------------------------------------------------------ #
    def begin_round(self) -> RoundPlan:
        """Collect and validate the protocol's action masks for this round."""
        t0 = time.perf_counter()
        plan = _checked_plan(self.protocol.act(self._round), self.network.n)
        # Disjointness of transmit/listen (half-duplex) is enforced by the
        # channel kernel itself, for every caller — no engine-side copy.
        crashed: np.ndarray | None = None
        if self._fault_state is not None:
            crashed = self._fault_state.begin_round(self._round)
            if crashed is not None:
                # A crashed node's radio is off: it neither transmits nor
                # listens, and (via the awake counter summing these masks)
                # accrues no awake slots.  The protocol's own arrays are
                # untouched — nodes revive with their state intact.
                plan = RoundPlan(
                    transmit=plan.transmit & ~crashed,
                    listen=plan.listen & ~crashed,
                )
        if self._sanitizer is not None:
            self._sanitizer.on_begin_round(self._round, plan, crashed)
        self._plan = plan
        self._phase_seconds["act"] += time.perf_counter() - t0
        return plan

    def resolve_round(self) -> ChannelRound:
        """Resolve the pending plan's channel round (timed as the kernel phase)."""
        plan = self._plan
        if plan is None:
            raise SimulationError("resolve_round() called without begin_round()")
        t0 = time.perf_counter()
        channel = resolve_channel(self.round_operand(), plan.transmit, plan.listen)
        self._phase_seconds["channel"] += time.perf_counter() - t0
        return channel

    def complete_round(self, channel: ChannelRound) -> RoundStats | None:
        """Apply one resolved round: feedback, counters, observers.

        Returns the round's :class:`RoundStats` when it was materialized
        (tracing or observers installed), ``None`` otherwise.
        """
        plan = self._plan
        if plan is None:
            raise SimulationError("complete_round() called without begin_round()")
        t0 = time.perf_counter()
        r = self._round
        if self._sanitizer is not None:
            # Differential + operand checks run on the *raw* kernel output
            # (fault perception is a deliberate rewrite, not a divergence),
            # against the operand this round actually resolved on.
            self._sanitizer.on_channel(
                r, plan, channel, self.round_operand(), self._fault_state
            )
        if self._fault_state is not None:
            # Loss and jamming rewrite what the radios *perceive*; from
            # here on (feedback, counters, stats) only the perceived
            # channel exists, keeping all observables self-consistent.
            channel = self._fault_state.perceive(r, plan.listen, channel)
        self._last_channel = channel
        self.protocol.on_feedback(r, channel)
        self._round += 1
        self._plan = None
        traffic = self._traffic
        _accumulate(traffic, plan.transmit, plan.listen, channel.clean, channel.collided)
        if self._sanitizer is not None:
            # Conservation checks see the *perceived* channel — the same
            # masks the counters above just accumulated.
            self._sanitizer.on_round_complete(
                r,
                plan,
                channel,
                traffic,
                None if self._fault_state is None else self._fault_state.counters,
            )
        stats: RoundStats | None = None
        if self._observers:
            stats = round_stats(r, plan.transmit, channel)
            for observer in self._observers:
                observer(stats)
        self._phase_seconds["feedback"] += time.perf_counter() - t0
        return stats

    def step(self) -> RoundStats | None:
        """Execute one round; returns its record when it was materialized."""
        self.begin_round()
        return self.complete_round(self.resolve_round())

    def run(
        self,
        max_rounds: int,
        *,
        stop_when: Callable[["ArrayEngine"], bool] | None = None,
    ) -> SimResult:
        """Run up to ``max_rounds`` rounds, stopping early if ``stop_when(engine)``.

        The predicate is evaluated before the first round and after every
        round, so a vacuously-satisfied goal costs zero rounds.
        """
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be non-negative, got {max_rounds}")
        t0 = time.perf_counter()
        start_round = self._round
        start_traffic = self._traffic.copy()
        fault_state = self._fault_state
        start_faults = None if fault_state is None else fault_state.counters.copy()
        history = self._trace_observer.history if self._trace_observer else []
        start_history = len(history)
        stopped_early = False
        if stop_when is not None and stop_when(self):
            stopped_early = True
        else:
            for _ in range(max_rounds):
                self.step()
                if stop_when is not None and stop_when(self):
                    stopped_early = True
                    break
        self._wall_seconds += time.perf_counter() - t0
        return self._result(
            rounds_run=self._round - start_round,
            stopped_early=stopped_early,
            counters=self._traffic - start_traffic,
            history=tuple(history[start_history:]),
            fault_counters=(
                None if fault_state is None else fault_state.counters - start_faults
            ),
        )

    def snapshot(self, *, stopped_early: bool = False) -> SimResult:
        """A :class:`SimResult` covering every round executed so far."""
        return self._result(
            rounds_run=self._round,
            stopped_early=stopped_early,
            counters=self._traffic,
            history=self.history,
            fault_counters=(
                None if self._fault_state is None else self._fault_state.counters
            ),
        )

    def _result(
        self,
        *,
        rounds_run: int,
        stopped_early: bool,
        counters: np.ndarray,
        history: tuple[RoundStats, ...],
        fault_counters: np.ndarray | None = None,
    ) -> SimResult:
        """Freeze one run window; scalar totals are sums of the per-node rows."""
        traffic = _traffic_totals(counters)
        faults: FaultTotals | None = None
        if fault_counters is not None:
            if self._fault_state is None:
                raise SimulationError("fault counters present without a fault state")
            faults = self._fault_state.totals(fault_counters)
        result = SimResult(
            rounds_run=rounds_run,
            stopped_early=stopped_early,
            total_transmissions=int(counters[_TX].sum()),
            total_deliveries=int(counters[_RX].sum()),
            total_collisions=int(counters[_COLL].sum()),
            history=history,
            traffic=traffic,
            faults=faults,
        )
        if self._sanitizer is not None:
            self._sanitizer.on_result(self._round, result)
        return result


@dataclass
class BatchItem:
    """One independent simulation instance queued into a :class:`BatchEngine`."""

    network: RadioNetwork
    protocol: ArrayProtocol
    budget: int
    seed: int = 0
    collision_detection: bool = True
    params: ProtocolParams | None = None
    n_bound: int | None = None
    #: opaque caller bookkeeping, carried through to the outcome.
    tag: Any = None
    #: optional fault schedule (see :mod:`repro.sim.faults`); items whose
    #: schedules differ are never fused into one kernel call, because a
    #: schedule with edge flips makes the operand time-varying.
    faults: FaultSchedule | None = None


@dataclass
class BatchOutcome:
    """Terminal state of one batch item."""

    item: BatchItem
    sim: SimResult
    #: whether the protocol reported ``done()`` within the budget.
    completed: bool


class BatchEngine:
    """Step many independent array-protocol instances in one process.

    Construction builds one :class:`ArrayEngine` per item; :meth:`run`
    steps every fused group (see the module docstring) as one
    disjoint-union instance, and retires each instance the moment its
    protocol reports ``done()`` (completed) or its round budget expires
    (failed).
    """

    def __init__(
        self,
        items: Sequence[BatchItem],
        *,
        trace: bool = False,
        observers: Sequence[Callable[[int, RoundStats], None]] | None = None,
        sanitize: bool | SanitizerConfig | None = None,
    ) -> None:
        """``observers`` get ``(item_index, RoundStats)`` for every executed
        round of every item — the streaming counterpart of ``trace=True``,
        at O(1) memory across the whole batch.  ``sanitize`` attaches one
        runtime sanitizer per item engine (``None`` defers to
        ``REPRO_SANITIZE``), so fused groups are checked per instance on
        the rows each instance consumed."""
        self.items = list(items)
        self._phase_seconds = _new_phase_seconds()
        self._wall_seconds = 0.0
        for item in self.items:
            if item.budget < 0:
                raise SimulationError(
                    f"budget must be non-negative, got {item.budget}"
                )
        # Group same-topology instances so each group's channel resolution
        # is one batched kernel call; one kernel operand is built per
        # *distinct* (topology, backend) pair and shared by every engine in
        # its group — items whose params pick different backends must not
        # share an operand.  The topology key is cached on the network, so
        # repeated items cost O(1) here rather than a re-serialization each.
        # The fault-schedule identity is folded into the key: under edge
        # flips the per-round operand is time-varying, so only items
        # sharing the *same* schedule object (and therefore the same
        # flip timeline — groups run in lockstep) may share a fused call;
        # a missing or empty schedule is identity 0, so fault-free items
        # keep fusing exactly as before.
        self._groups: dict[tuple[bytes, str, int], list[int]] = {}
        operands: dict[tuple[bytes, str, int], KernelOperand] = {}
        keys: list[tuple[bytes, str, int]] = []
        for i, item in enumerate(self.items):
            params = item.params if item.params is not None else ProtocolParams.paper()
            backend = resolve_channel_backend(item.network, params)
            no_faults = item.faults is None or item.faults.is_empty
            fault_token = 0 if no_faults else id(item.faults)
            key = (item.network.adjacency_key(), backend, fault_token)
            keys.append(key)
            self._groups.setdefault(key, []).append(i)
            if key not in operands:
                operands[key] = select_kernel_operand(item.network, params)
        def item_observers(i: int) -> list[RoundObserver] | None:
            if not observers:
                return None

            def forward(stats: RoundStats, _i: int = i) -> None:
                for observer in observers:
                    observer(_i, stats)

            return [forward]

        self.engines = [
            ArrayEngine(
                item.network,
                item.protocol,
                seed=item.seed,
                collision_detection=item.collision_detection,
                params=item.params,
                n_bound=item.n_bound,
                trace=trace,
                kernel_operand=operands[key],
                observers=item_observers(i),
                faults=item.faults,
                sanitize=sanitize,
            )
            for i, (item, key) in enumerate(zip(self.items, keys))
        ]

    def group_sizes(self) -> list[int]:
        """Instance count of each fused kernel group, in first-seen order.

        One group per distinct (topology, backend, fault-schedule identity)
        key — the batch's fusion structure, exposed for tests and tuning.
        """
        return [len(indices) for indices in self._groups.values()]

    def telemetry(self) -> RunTelemetry:
        """Batch-wide wall-clock observables (see :class:`RunTelemetry`).

        ``rounds`` sums every instance's executed rounds; the phase timers
        combine the fused groups' phases (timed here) with any phases the
        per-item engines ran themselves.
        """
        phase = dict(self._phase_seconds)
        rounds = 0
        for engine in self.engines:
            rounds += engine.round_index
            for key, value in engine.telemetry().phase_seconds.items():
                phase[key] += value
        return RunTelemetry(
            rounds=rounds,
            wall_seconds=self._wall_seconds,
            phase_seconds=phase,
        )

    def run(self) -> list[BatchOutcome]:
        """Run every item to completion or budget; outcomes in item order."""
        t_run = time.perf_counter()
        outcomes: list[BatchOutcome | None] = [None] * len(self.items)
        # Fused groups: a kernel group's live items that start at the same
        # round (they may differ if engines were stepped before run()).
        lockstep: dict[tuple[tuple[bytes, str, int], int], list[int]] = {}
        for key, indices in self._groups.items():
            for i in indices:
                item, engine = self.items[i], self.engines[i]
                if item.protocol.done():
                    # Vacuous goal: zero rounds, like ArrayEngine.run().
                    outcomes[i] = self._outcome(i, completed=True)
                elif engine.round_index >= item.budget:
                    outcomes[i] = self._outcome(i, completed=False)
                else:
                    lockstep.setdefault((key, engine.round_index), []).append(i)
        # Groups advance round-robin, one round each per sweep: the first
        # rounds of every group (and their coin-buffer fills) then come
        # before any result is built, which keeps the peak memory of many
        # small groups at that of their live state.
        groups = [_FusedGroup(self, indices) for indices in lockstep.values()]
        while groups:
            for group in groups:
                for i, completed in group.step():
                    outcomes[i] = self._outcome(i, completed=completed)
            groups = [group for group in groups if group.parts]
        self._wall_seconds += time.perf_counter() - t_run
        return [outcome for outcome in outcomes if outcome is not None]

    def _outcome(self, i: int, *, completed: bool) -> BatchOutcome:
        return BatchOutcome(
            item=self.items[i],
            sim=self.engines[i].snapshot(stopped_early=completed),
            completed=completed,
        )


@dataclass
class _Part:
    """Consecutive rows of a fused group that one protocol object steps."""

    protocol: ArrayProtocol
    #: the batch items of these rows, in row order.
    items: list[int]
    #: whether ``protocol`` is a fused instance over the rows' disjoint
    #: union (its state is written back per row) rather than the one
    #: item's own object.
    fused: bool

    def label(self) -> str:
        """The items, as error messages name them."""
        return f"item {self.items[0]}" if len(self.items) == 1 else f"items {self.items}"

    def done(self) -> np.ndarray:
        """Per-row :meth:`~ArrayProtocol.done`."""
        if self.fused:
            return self.protocol.done_rows(len(self.items))
        return np.array([self.protocol.done()])


class _FusedGroup:
    """A batch's items on one topology, backend, schedule and round, in lock-step.

    Rows are the live items, ordered by part; a part is a run of rows
    sharing one protocol object (see :class:`_Part`).  The row state the
    per-item engines keep — round, traffic counters, fault counters — is
    held here with a row axis and written back to an item's
    engine when its row retires.
    """

    def __init__(self, batch: BatchEngine, indices: list[int]) -> None:
        members: dict[Hashable, list[int]] = {}
        for i in indices:
            key = batch.items[i].protocol.fusion_key()
            members.setdefault(("item", i) if key is None else key, []).append(i)
        self.parts: list[_Part] = []
        for rows in members.values():
            protocols = [batch.items[i].protocol for i in rows]
            if len(rows) == 1:
                self.parts.append(_Part(protocols[0], rows, fused=False))
            else:
                fused = type(protocols[0]).fuse(protocols)
                self.parts.append(_Part(fused, rows, fused=True))
        self.batch = batch
        self.items = [i for part in self.parts for i in part.items]
        engines = [batch.engines[i] for i in self.items]
        lead = engines[0]
        self.n = lead.network.n
        self.round = lead.round_index
        self.operand = lead.kernel_operand
        states = [engine.fault_state for engine in engines if engine.fault_state is not None]
        self.faults = FaultState.fuse(states) if states else None
        # ``(4, rows·n)`` over flat nodes; a lone row counts straight into
        # its engine's own array.
        self.traffic = (
            lead._traffic
            if len(engines) == 1
            else np.concatenate([engine._traffic for engine in engines], axis=1)
        )
        self.budgets = np.array([batch.items[i].budget for i in self.items])
        self.first_budget = int(self.budgets.min())
        self.sanitizers = [engine._sanitizer for engine in engines]
        self.observers = [engine._observers for engine in engines]
        self._watch()
        #: per-row offsets turning a fused part's sender ids into flat ids.
        self.offsets = np.arange(len(self.items), dtype=np.int64)[:, None] * self.n

    def _watch(self) -> None:
        """Note whether any live row has a sanitizer or round observers."""
        self.sanitized = any(s is not None for s in self.sanitizers)
        self.observed = any(self.observers)

    def step(self) -> list[tuple[int, bool]]:
        """Run one round of every row; returns the ``(item, completed)`` retired."""
        r, n = self.round, self.n
        phase = self.batch._phase_seconds
        t0 = time.perf_counter()
        transmit, listen = self._act(r)
        if len(self.items) > 1:
            transmit = transmit.reshape(-1, n)
            listen = listen.reshape(-1, n)
        crashed: np.ndarray | None = None
        if self.faults is not None:
            crashed = self.faults.begin_round(r)
            if crashed is not None:
                # Crashed radios are off in every row (see ArrayEngine).
                transmit = transmit & ~crashed
                listen = listen & ~crashed
        if self.sanitized:
            self._sanitize_plans(r, transmit, listen, crashed)
        t1 = time.perf_counter()
        phase["act"] += t1 - t0
        operand = self.operand if self.faults is None else self.faults.operand
        try:
            channel = resolve_channel(operand, transmit, listen)
        except SimulationError as exc:
            # The kernel reports positions in the fused stack; name the
            # caller's items instead.
            raise SimulationError(
                f"{exc} (batch rows are items {self.items}, in order)"
            ) from None
        t2 = time.perf_counter()
        phase["channel"] += t2 - t1
        plans: list[RoundPlan] = []
        if self.sanitized or self.observed:
            rows = zip(transmit.reshape(-1, n), listen.reshape(-1, n))
            plans = [RoundPlan(transmit=tx, listen=lx) for tx, lx in rows]
        if self.sanitized:
            # Raw kernel output, before fault perception (see ArrayEngine).
            for b, sanitizer in enumerate(self.sanitizers):
                if sanitizer is not None:
                    sanitizer.on_channel(r, plans[b], _row(channel, b), operand, self.faults)
        if self.faults is not None:
            channel = self.faults.perceive(r, listen, channel)
        self._feedback(r, channel)
        self.round += 1
        _accumulate(
            self.traffic,
            transmit.reshape(-1),
            listen.reshape(-1),
            channel.clean.reshape(-1),
            channel.collided.reshape(-1),
        )
        if plans:
            self._report(r, plans, channel)
        done = self.parts[0].done() if len(self.parts) == 1 else np.concatenate(
            [part.done() for part in self.parts]
        )
        retired: list[tuple[int, bool]] = []
        if self.round >= self.first_budget or done.any():
            retired = self._retire(done | (self.round >= self.budgets), done, channel)
        phase["feedback"] += time.perf_counter() - t2
        return retired

    def _act(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Every part's plan, as flat masks over all rows."""
        plans = []
        for part in self.parts:
            try:
                plans.append(
                    _checked_plan(part.protocol.act(r), len(part.items) * self.n)
                )
            except SimulationError as exc:
                raise SimulationError(f"{exc} ({part.label()})") from None
        if len(plans) == 1:
            return plans[0].transmit, plans[0].listen
        return (
            np.concatenate([plan.transmit for plan in plans]),
            np.concatenate([plan.listen for plan in plans]),
        )

    def _feedback(self, r: int, channel: ChannelRound) -> None:
        """Hand every part its rows of the perceived channel, with flat sender ids."""
        if len(self.items) == 1:
            self.parts[0].protocol.on_feedback(r, channel)
            return
        start = 0
        for part in self.parts:
            rows = slice(start, start + len(part.items))
            start = rows.stop
            senders = channel.senders[rows]
            if part.fused:
                senders = senders + self.offsets[: len(part.items)]
            part.protocol.on_feedback(
                r,
                ChannelRound(
                    counts=channel.counts[rows].reshape(-1),
                    clean=channel.clean[rows].reshape(-1),
                    collided=channel.collided[rows].reshape(-1),
                    silent=channel.silent[rows].reshape(-1),
                    senders=senders.reshape(-1),
                ),
            )

    def _sanitize_plans(
        self,
        r: int,
        transmit: np.ndarray,
        listen: np.ndarray,
        crashed: np.ndarray | None,
    ) -> None:
        """The kernel's mask contract, then each sanitized row's plan hook."""
        try:
            check_channel_masks(self.n, transmit, listen)
        except SimulationError as exc:
            raise SimulationError(
                f"{exc} (batch rows are items {self.items}, in order)"
            ) from None
        rows = zip(transmit.reshape(-1, self.n), listen.reshape(-1, self.n))
        for sanitizer, (tx, lx) in zip(self.sanitizers, rows):
            if sanitizer is not None:
                sanitizer.on_begin_round(r, RoundPlan(transmit=tx, listen=lx), crashed)

    def _report(self, r: int, plans: list[RoundPlan], channel: ChannelRound) -> None:
        """Per-row sanitizer conservation checks and round observers."""
        for b, (sanitizer, observers) in enumerate(zip(self.sanitizers, self.observers)):
            row = _row(channel, b)
            if sanitizer is not None:
                sanitizer.on_round_complete(
                    r,
                    plans[b],
                    row,
                    self.traffic[:, b * self.n : (b + 1) * self.n],
                    None if self.faults is None else self.faults.counters[b],
                )
            if observers:
                stats = round_stats(r, plans[b].transmit, row)
                for observer in observers:
                    observer(stats)

    def _retire(
        self, finished: np.ndarray, done: np.ndarray, channel: ChannelRound
    ) -> list[tuple[int, bool]]:
        """Write the finished rows back to their items and drop them from the group.

        A fused part fills each hole a retired row leaves with one of its
        last surviving rows, so only the moved rows' state is copied.
        """
        batch, n = self.batch, self.n
        retired: list[tuple[int, bool]] = []
        order: list[int] = []
        parts: list[_Part] = []
        start = 0
        for part in self.parts:
            gone = finished[start : start + len(part.items)].tolist()
            for k, row_gone in enumerate(gone):
                if not row_gone:
                    continue
                b, i = start + k, part.items[k]
                engine = batch.engines[i]
                engine._round = self.round
                engine._traffic[...] = self.traffic[:, b * n : (b + 1) * n]
                engine._last_channel = _row(channel, b)
                if self.faults is not None and engine.fault_state is not None:
                    self.faults.export(b, engine.fault_state)
                if part.fused:
                    part.protocol.export(slice(k * n, (k + 1) * n), batch.items[i].protocol)
                retired.append((i, bool(done[b])))
            survivors = [k for k, row_gone in enumerate(gone) if not row_gone]
            if survivors:
                size = len(survivors)
                rows = list(range(size))
                holes = [k for k in rows if gone[k]]
                movers = [k for k in survivors if k >= size]
                for hole, mover in zip(holes, movers):
                    rows[hole] = mover
                if part.fused and size < len(gone):
                    part.protocol.compact(
                        _node_range(movers, n), _node_range(holes, n), size * n
                    )
                part.items = [part.items[k] for k in rows]
                order.extend(start + k for k in rows)
                parts.append(part)
            start += len(gone)
        self.parts = parts
        self.items = [i for part in parts for i in part.items]
        self.traffic = self.traffic[:, _node_range(order, n)]
        self.budgets = self.budgets[order]
        self.first_budget = int(self.budgets.min()) if order else 0
        self.sanitizers = [self.sanitizers[b] for b in order]
        self.observers = [self.observers[b] for b in order]
        if self.faults is not None:
            self.faults.select(order)
        self._watch()
        return retired


def _node_range(rows: list[int], n: int) -> np.ndarray:
    """The flat node ids of ``rows`` of a fused instance over ``n``-node copies."""
    nodes: np.ndarray = np.array(rows, dtype=np.int64)[:, None] * n + np.arange(n)
    return nodes.ravel()
