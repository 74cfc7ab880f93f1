"""Array-native engines: one instance, or many batched in one process.

:class:`ArrayEngine` drives a single
:class:`~repro.sim.core.array_protocol.ArrayProtocol` on one network with
the shared channel kernel — the vectorized counterpart of
:class:`~repro.sim.engine.Engine`, with the same round semantics, the same
:class:`~repro.sim.core.stats.RoundStats` traces (when ``trace=True``), and
the same early-stop contract.

:class:`BatchEngine` steps many *independent* instances — any mix of
(seed × topology × protocol) — in lock-step within one process.  Instances
that share a topology (and channel backend) are grouped so their channel
resolution collapses into a single batched kernel call per round — a
``(batch, n) @ (n, n)`` matmul on the dense backend, one ``bincount`` of
length ``batch·n`` over the transmitters' CSR rows on the sparse one
(Θ(Σ deg(tx) + batch·n) per round) — and every instance exits the batch
individually the moment it completes or exhausts its round budget, so one
slow straggler never costs the finished instances anything.

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
from collections.abc import Callable, Sequence
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
        plan = self.protocol.act(self._round)
        if not isinstance(plan, RoundPlan):
            raise SimulationError(
                f"array protocol returned {plan!r} from act(); expected a RoundPlan"
            )
        if plan.transmit.shape != (self.network.n,) or plan.listen.shape != (
            self.network.n,
        ):
            raise SimulationError(
                f"round plan masks must have shape ({self.network.n},), got "
                f"transmit {plan.transmit.shape} and listen {plan.listen.shape}"
            )
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

    def discard_plan(self) -> None:
        """Drop a pending plan without executing it.

        Error-path hygiene for batch callers: when one engine's ``act()``
        raises mid-group, its siblings have already planned this round —
        discarding leaves them in the documented "no round in flight"
        state instead of dangling.
        """
        self._plan = None

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
        traffic[_TX] += plan.transmit
        traffic[_RX] += channel.clean
        traffic[_COLL] += channel.collided
        # transmit and listen are disjoint (kernel precondition), so this
        # counts exactly the radios-on rounds.
        traffic[_AWAKE] += plan.transmit | plan.listen
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

        Same contract as :meth:`repro.sim.engine.Engine.run`: the predicate
        is evaluated before the first round and after every round.
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
    advances every live instance one round per iteration, fusing the
    channel resolution of same-topology instances into a single batched
    kernel call, and retires each instance the moment its protocol reports
    ``done()`` (completed) or its round budget expires (failed).
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
        the de-batched rows each instance consumed."""
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
        combine the fused kernel calls (timed here) with the per-engine
        act/feedback phases.
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
        live: set[int] = set()

        def retire(i: int, *, completed: bool) -> None:
            outcomes[i] = BatchOutcome(
                item=self.items[i],
                sim=self.engines[i].snapshot(stopped_early=completed),
                completed=completed,
            )
            live.discard(i)

        for i, item in enumerate(self.items):
            if item.protocol.done():
                retire(i, completed=True)  # vacuous goal: zero rounds, like run()
            elif item.budget == 0:
                retire(i, completed=False)
            else:
                live.add(i)

        while live:
            for indices in self._groups.values():
                active = [i for i in indices if i in live]
                if not active:
                    continue
                if len(active) == 1:
                    try:
                        self.engines[active[0]].step()
                    except SimulationError as exc:
                        # Same item-naming courtesy as the fused path below.
                        raise SimulationError(
                            f"{exc} (item {active[0]})"
                        ) from None
                    continue
                plans = []
                for i in active:
                    try:
                        plans.append(self.engines[i].begin_round())
                    except SimulationError as exc:
                        # Attribute the failing item (as the singleton and
                        # kernel paths do) and discard the plans the
                        # already-planned siblings are holding, so no
                        # engine is left with a half-started round.
                        for j in active:
                            self.engines[j].discard_plan()
                        raise SimulationError(f"{exc} (item {i})") from None
                transmit = np.stack([p.transmit for p in plans])
                listen = np.stack([p.listen for p in plans])
                t0 = time.perf_counter()
                try:
                    # All engines in a group share one fault schedule (it
                    # is part of the group key) and run in lockstep, so
                    # the first engine's per-round operand is the group's.
                    channel = resolve_channel(
                        self.engines[active[0]].round_operand(), transmit, listen
                    )
                except SimulationError as exc:
                    # The kernel reports positions in the fused stack; map
                    # them back to this batch's item indices so the culprit
                    # is the caller's item, not a row of the live subset.
                    # Same hygiene as the act() path: no dangling plans.
                    for j in active:
                        self.engines[j].discard_plan()
                    raise SimulationError(
                        f"{exc} (batch rows are items {active}, in order)"
                    ) from None
                self._phase_seconds["channel"] += time.perf_counter() - t0
                for row, i in enumerate(active):
                    self.engines[i].complete_round(channel.row(row))
            for i in sorted(live):
                if self.items[i].protocol.done():
                    retire(i, completed=True)
                elif self.engines[i].round_index >= self.items[i].budget:
                    retire(i, completed=False)
        self._wall_seconds += time.perf_counter() - t_run
        return [outcome for outcome in outcomes if outcome is not None]
