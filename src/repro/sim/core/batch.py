"""Array-native engines: one instance, or many batched in one process.

One round loop serves both.  :class:`BatchEngine` steps many
*independent* instances — any mix of (seed × topology × protocol) — in
one process.  It builds one :class:`ArrayEngine` per item (the per-item
API and results), but runs them as *fused groups*: the items sharing a
topology, channel backend, fault schedule and start round are stepped in
lock-step as **one disjoint-union instance**.  On the sparse backend, fault-free items need
only share a size and start round: their graphs may differ, and the
group resolves on one union CSR operand that maps each row to its own
graph (:meth:`~repro.sim.core.channel.SparseOperand.union`).  Within a
group, items whose protocols share a
:meth:`~repro.sim.core.array_protocol.ArrayProtocol.fusion_key` become one
fused protocol over ``B·n`` flat nodes (node ``v`` of row ``b`` is
``b·n + v``); any other protocol is a part of one row.  A group round is
then one ``act`` per part, one kernel call over all rows — a
``(B, n) @ (n, n)`` matmul on the dense backend, one CSR push of the
transmitters and one ``bincount`` of length ``B·n`` on the sparse one — one
fault pass (a shared crash mask, jam cover and edge-flip timeline, loss
coins keyed by each row's own seed), one ``on_feedback``
per part with flat sender ids, one ``(4, B·n)`` counter update and one
vectorized done/budget check, whatever ``B`` is.  A row leaves the group
the moment its instance completes or exhausts its budget: its state is
written back to its own engine and protocol object, so a straggler never
costs the finished instances anything and results read exactly as if
each instance had run alone — bit for bit.

A standalone :class:`ArrayEngine` is a one-row group over its own state
(protocol, traffic counters, :class:`~repro.sim.faults.FaultState`),
built on its first round.  Its ``begin_round`` / ``resolve_round`` /
``complete_round`` split exposes that group's three phases to tooling
(the benchmark's tracer); it records
:class:`~repro.sim.core.stats.RoundStats` traces when ``trace=True`` and
stops early on a caller's predicate.

Backend selection (:func:`resolve_channel_backend`) is per run:
``params.channel_backend`` forces ``"dense"``, ``"sparse"`` or
``"bitpacked"``, and the default ``"auto"`` picks by the module
constants beside it: sparse for graphs of at least :data:`SPARSE_MIN_N`
nodes whose adjacency density is at or below
:data:`SPARSE_DENSITY_THRESHOLD`, the bit-packed popcount kernel for
denser graphs of at least :data:`BITPACKED_MIN_N` nodes, dense otherwise.
All backends are bitwise-identical in every observable (traces, round
counts, channel totals), so the choice is purely a speed/memory knob.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, cast

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


#: A fused group's key: (topology key, or the size of sparse fault-free
#: items; backend; fault-schedule identity).
_GroupKey = tuple[bytes | int, str, int]

#: Row indices of the per-node traffic accumulator (see ArrayEngine).
_TX, _RX, _COLL, _AWAKE = range(4)


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


#: ``"auto"`` uses the sparse CSR backend when the adjacency density
#: ``2·edges / n²`` is at or below this threshold; denser graphs keep the
#: BLAS matmul, which wins when most of the matrix is nonzero.
SPARSE_DENSITY_THRESHOLD = 0.25
#: ``"auto"`` never goes sparse below this network size: small matmuls are
#: so cheap (especially batched) that the CSR kernel's fixed per-call
#: overhead (a dozen small numpy calls, ~40–60 µs) loses even on very
#: sparse graphs.  Measured for the transmitter-driven CSR kernel with 5%
#: of radios transmitting (grid, gnp and unit-disk, batch 1 and 8, one
#: 2.1 GHz Xeon vCPU): dense still wins at n ≤ 256 and sparse wins from
#: n = 512, so 1024 is conservative; the floor is kept until a benchmark
#: workload covers n = 256–1024.
SPARSE_MIN_N = 1024
#: ``"auto"`` switches graphs too dense for the CSR backend from the
#: float64 matmul to the bit-packed popcount kernel at or above this size:
#: same Θ(n²) work but 64 adjacency entries per uint64 word, so the
#: operand is ~64× smaller and the kernel clears the dense memory wall
#: (n = 16384 at the 1 GiB ceiling).  Below it the BLAS matmul's per-call
#: overhead is lower and dense stays.
BITPACKED_MIN_N = 4096


def resolve_channel_backend(network: RadioNetwork, params: ProtocolParams) -> str:
    """The concrete channel backend (``"dense"``/``"sparse"``/``"bitpacked"``).

    ``params.channel_backend`` wins when explicit.  ``"auto"`` picks by
    density and size: networks below :data:`SPARSE_MIN_N` keep the BLAS
    matmul (which wins below the crossover even on sparse graphs); larger
    networks whose adjacency density ``2·edges / n²`` is at or below
    :data:`SPARSE_DENSITY_THRESHOLD` get the CSR kernel
    (Θ(Σ deg(tx) + n) per round); denser ones get the bit-packed popcount
    kernel from :data:`BITPACKED_MIN_N` nodes up (same Θ(n²) work as
    dense, ~64× less operand memory) and the matmul below it.  Every
    backend is bitwise-identical in results.
    """
    backend = params.channel_backend
    if backend != "auto":
        return backend
    if network.n < SPARSE_MIN_N:
        return "dense"
    density = (2 * network.num_edges) / (network.n * network.n)
    if density <= SPARSE_DENSITY_THRESHOLD:
        return "sparse"
    return "bitpacked" if network.n >= BITPACKED_MIN_N else "dense"


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


def _check_round_count(name: str, value: object) -> None:
    """Reject anything but a non-negative integer (``bool`` included) as a round count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise SimulationError(f"{name} must be a non-negative integer, got {value!r}")


class ArrayEngine:
    """Synchronous array-native simulator for one protocol run on one network.

    The engine holds one run's state; its rounds run as a one-row
    :class:`_FusedGroup` over that state (see the module docstring).
    """

    def __init__(
        self,
        network: RadioNetwork,
        protocol: ArrayProtocol,
        *,
        seed: int = 0,
        params: ProtocolParams | None = None,
        n_bound: int | None = None,
        trace: bool = False,
        kernel_operand: KernelOperand | np.ndarray | None = None,
        observers: Sequence[RoundObserver] | None = None,
        faults: FaultSchedule | None = None,
        sanitize: bool | SanitizerConfig | None = None,
        streams: SeededStreams | None = None,
    ) -> None:
        if n_bound is not None and n_bound < network.n:
            raise SimulationError(
                f"n_bound {n_bound} is below the actual network size {network.n}"
            )
        self.network = network
        self.protocol = protocol
        self.params = params if params is not None else ProtocolParams.paper()
        self.n_bound = n_bound if n_bound is not None else network.n
        self.trace = trace
        # A caller that already keyed this run (the batch engine) passes
        # its key in.
        if streams is None:
            streams = SeededStreams(seed, network.n)
        elif streams.seed != seed or len(streams) != network.n:
            raise SimulationError(
                f"streams for seed {streams.seed} over {len(streams)} nodes do not fit "
                f"seed {seed} on {network.n} nodes"
            )
        self.streams = streams
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
        self._group: _FusedGroup | None = None
        # An attached *empty* schedule is a no-op by construction: no
        # FaultState is built, no loss coin is ever drawn, and
        # SimResult.faults stays None — bitwise identical to no schedule.
        self._fault_state: FaultState | None = None
        if faults is not None and not faults.is_empty:
            self._fault_state = FaultState(faults, network, self._operand, self.streams.key)
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
    def backend(self) -> str:
        """Which channel backend this engine runs on.

        ``"dense"``, ``"sparse"`` or ``"bitpacked"`` — or the backend
        name a wrapper operand reports.
        """
        return self._operand.backend

    @property
    def fault_state(self) -> FaultState | None:
        """The live fault-layer state, or ``None`` on fault-free runs.

        Read-only introspection for tooling (the benchmark's tracer
        times its round hooks); mutating it mid-run is undefined
        behaviour.
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
        return self._fault_state.totals(self._fault_state.counters[0])

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
        if self._group is None:
            self._group = _FusedGroup([self], self._phase_seconds)
        # A batch may have stepped this engine through its own groups.
        self._group.round = self._round
        self._plan = self._group.begin()
        return self._plan

    def resolve_round(self) -> ChannelRound:
        """Resolve the pending plan's channel round (timed as the kernel phase)."""
        if self._group is None or self._plan is None:
            raise SimulationError("resolve_round() called without begin_round()")
        return self._group.resolve(self._plan)

    def complete_round(self, channel: ChannelRound) -> RoundStats | None:
        """Apply one resolved round: feedback, counters, observers.

        Returns the round's :class:`RoundStats` when it was materialized
        (tracing or observers installed), ``None`` otherwise.
        """
        plan, self._plan = self._plan, None
        if self._group is None or plan is None:
            raise SimulationError("complete_round() called without begin_round()")
        stats = self._group.complete(plan, channel)
        self._round = self._group.round
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
        _check_round_count("max_rounds", max_rounds)
        t0 = time.perf_counter()
        history = self._trace_observer.history if self._trace_observer else []
        fault_state = self._fault_state
        start = (
            self._round,
            self._traffic.copy(),
            0 if fault_state is None else fault_state.counters[0].copy(),
            len(history),
        )
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
        return self._result(stopped_early, start)

    def snapshot(self, *, stopped_early: bool = False) -> SimResult:
        """A :class:`SimResult` covering every round executed so far."""
        return self._result(stopped_early)

    def _result(
        self,
        stopped_early: bool,
        start: tuple[int, np.ndarray | int, np.ndarray | int, int] = (0, 0, 0, 0),
    ) -> SimResult:
        """Freeze the window since ``start`` (round, traffic and fault
        counters, trace length); scalar totals are sums of the per-node rows."""
        start_round, start_traffic, start_faults, start_history = start
        counters = self._traffic - start_traffic
        history = self._trace_observer.history if self._trace_observer else []
        state = self._fault_state
        result = SimResult(
            rounds_run=self._round - start_round,
            stopped_early=stopped_early,
            total_transmissions=int(counters[_TX].sum()),
            total_deliveries=int(counters[_RX].sum()),
            total_collisions=int(counters[_COLL].sum()),
            history=tuple(history[start_history:]),
            traffic=TrafficTotals(
                transmissions=tuple(counters[_TX].tolist()),
                receptions=tuple(counters[_RX].tolist()),
                collisions_heard=tuple(counters[_COLL].tolist()),
                awake_slots=tuple(counters[_AWAKE].tolist()),
            ),
            faults=None if state is None else state.totals(state.counters[0] - start_faults),
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
    params: ProtocolParams | None = None
    n_bound: int | None = None
    #: optional fault schedule (see :mod:`repro.sim.faults`); items whose
    #: schedules differ are never fused into one kernel call, because a
    #: schedule with edge flips makes the operand time-varying, and a
    #: faulted item fuses only with items on its own topology.
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

    Construction keys every item by its seed and builds one
    :class:`ArrayEngine` per item; :meth:`run`
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
            _check_round_count("budget", item.budget)
        # Group the instances each of whose rounds can be one batched kernel
        # call.  Sparse fault-free items fuse whenever they share a size:
        # their group's operand stacks its distinct graphs' CSRs with a
        # row→graph map (SparseOperand.union), so they share operands by
        # network object and never serialize the topology.  Every other
        # item keys on (topology, backend, fault-schedule identity) and
        # shares one operand per key — items whose params pick different
        # backends must not share an operand.  The topology key is cached
        # on the network, so repeated items cost O(1) here.  Under edge
        # flips the per-round operand is time-varying, so only items
        # sharing the *same* schedule object (and therefore the same flip
        # timeline — groups run in lockstep) may share a fused call; a
        # missing or empty schedule is identity 0.
        self._groups: dict[_GroupKey, list[int]] = {}
        operands: dict[Hashable, KernelOperand] = {}
        operand_keys: list[Hashable] = []
        for i, item in enumerate(self.items):
            params = item.params if item.params is not None else ProtocolParams.paper()
            backend = resolve_channel_backend(item.network, params)
            no_faults = item.faults is None or item.faults.is_empty
            key: _GroupKey
            operand_key: Hashable
            if backend == "sparse" and no_faults:
                key = (item.network.n, backend, 0)
                operand_key = (id(item.network), backend)
            else:
                fault_token = 0 if no_faults else id(item.faults)
                key = (item.network.adjacency_key(), backend, fault_token)
                operand_key = key
            self._groups.setdefault(key, []).append(i)
            operand_keys.append(operand_key)
            if operand_key not in operands:
                operands[operand_key] = select_kernel_operand(item.network, params)
        streams = [SeededStreams(item.seed, item.network.n) for item in self.items]

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
                params=item.params,
                n_bound=item.n_bound,
                trace=trace,
                kernel_operand=operands[operand_key],
                observers=item_observers(i),
                faults=item.faults,
                sanitize=sanitize,
                streams=streams[i],
            )
            for i, (item, operand_key) in enumerate(zip(self.items, operand_keys))
        ]

    def group_sizes(self) -> list[int]:
        """Instance count of each fused kernel group, in first-seen order.

        One group per distinct (topology, backend, fault-schedule identity)
        key, except that sparse fault-free items group by size alone — the
        batch's fusion structure, exposed for tests and tuning.
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
        lockstep: dict[tuple[_GroupKey, int], list[int]] = {}
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
        # rounds of every group then come before any result is built, which
        # keeps the peak memory of many small groups at that of their live
        # state.
        groups = [
            _FusedGroup(
                [self.engines[i] for i in indices],
                self._phase_seconds,
                indices,
                [self.items[i].budget for i in indices],
            )
            for indices in lockstep.values()
        ]
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
    #: the engines of these rows, in row order.
    engines: list[ArrayEngine]
    #: whether ``protocol`` is a fused instance over the rows' disjoint
    #: union (its state is written back per row) rather than the one
    #: engine's own object.
    fused: bool

    def done(self) -> np.ndarray:
        """Per-row :meth:`~ArrayProtocol.done`."""
        if self.fused:
            return self.protocol.done_rows(len(self.engines))
        return np.array([self.protocol.done()])


class _FusedGroup:
    """The one round loop: engines stepped in lock-step as one instance.

    A batch's items of one fusion key and start round, or a standalone
    engine's one row.  Rows are ordered by part; a part is a run of rows
    sharing one protocol object (see :class:`_Part`).  The row state the
    engines keep — round, traffic counters, fault counters — is held here
    with a row axis and written back to a row's engine when it retires; a
    lone row counts straight into its engine's own arrays and
    :class:`FaultState`.  Rows whose engines hold different (sparse)
    operands resolve on one union operand over those graphs.
    """

    def __init__(
        self,
        engines: list[ArrayEngine],
        phase: dict[str, float],
        items: Sequence[int] = (),
        budgets: Sequence[int] = (),
    ) -> None:
        """``items`` name the rows (batch item indices) in retirements and
        errors, and ``budgets`` bound :meth:`step`, both in the order of
        ``engines``; a standalone engine's row has neither."""
        members: dict[Hashable, list[ArrayEngine]] = {}
        for engine in engines:
            # A lone row fuses with nothing, whatever its protocol.
            key = engine.protocol.fusion_key() if len(engines) > 1 else None
            members.setdefault(engine if key is None else key, []).append(engine)
        self.parts: list[_Part] = []
        for rows in members.values():
            if len(rows) == 1:
                self.parts.append(_Part(rows[0].protocol, rows, fused=False))
            else:
                fused = type(rows[0].protocol).fuse([engine.protocol for engine in rows])
                self.parts.append(_Part(fused, rows, fused=True))
        self.phase = phase
        self.names = dict(zip(engines, items))
        self.engines = [engine for part in self.parts for engine in part.engines]
        lead = self.engines[0]
        self.n = lead.network.n
        self.round = lead.round_index
        graphs = list({id(e.kernel_operand): e.kernel_operand for e in self.engines}.values())
        self.operand = graphs[0]
        if len(graphs) > 1:
            index = {id(op): g for g, op in enumerate(graphs)}
            self.operand = SparseOperand.union(
                cast(list[SparseOperand], graphs),
                np.array([index[id(e.kernel_operand)] for e in self.engines]),
            )
        states = [e.fault_state for e in self.engines if e.fault_state is not None]
        self.faults = FaultState.fuse(states) if states else None
        # ``(4, rows·n)`` over flat nodes; a lone row's is its engine's own.
        self.traffic = (
            lead._traffic
            if len(self.engines) == 1
            else np.concatenate([engine._traffic for engine in self.engines], axis=1)
        )
        budget = dict(zip(engines, budgets))
        self.budgets = np.array([budget.get(engine, 0) for engine in self.engines])
        self.first_budget = int(self.budgets.min())
        self._watch()
        #: per-row offsets turning a fused part's sender ids into flat ids.
        self.offsets = np.arange(len(self.engines), dtype=np.int64)[:, None] * self.n

    def _watch(self) -> None:
        """Note whether any live row has a sanitizer or round observers."""
        self.sanitized = any(engine._sanitizer is not None for engine in self.engines)
        self.observed = any(engine._observers for engine in self.engines)

    def _items(self) -> list[int]:
        """The batch items of the rows, in row order."""
        return [self.names[engine] for engine in self.engines]

    def step(self) -> list[tuple[int, bool]]:
        """Run one round of every row; returns the ``(item, completed)`` retired."""
        plan = self.begin()
        self.complete(plan, self.resolve(plan))
        t0 = time.perf_counter()
        done = self.parts[0].done() if len(self.parts) == 1 else np.concatenate(
            [part.done() for part in self.parts]
        )
        retired: list[tuple[int, bool]] = []
        if self.round >= self.first_budget or done.any():
            retired = self._retire(done | (self.round >= self.budgets), done)
        self.phase["feedback"] += time.perf_counter() - t0
        return retired

    def begin(self) -> RoundPlan:
        """Every part's plan, crashed radios off: ``(n,)`` masks for a lone
        row, ``(rows, n)`` for more."""
        r = self.round
        t0 = time.perf_counter()
        plan = self._act(r)
        crashed: np.ndarray | None = None
        if self.faults is not None:
            crashed = self.faults.begin_round(r)
            if crashed is not None:
                # A crashed node's radio is off in every row: it neither
                # transmits nor listens, and (via the awake counter summing
                # these masks) accrues no awake slots.  The protocols' own
                # arrays are untouched — nodes revive with their state intact.
                plan = RoundPlan(
                    transmit=plan.transmit & ~crashed, listen=plan.listen & ~crashed
                )
        if self.sanitized:
            self._sanitize_plans(r, plan, crashed)
        self.phase["act"] += time.perf_counter() - t0
        return plan

    def resolve(self, plan: RoundPlan) -> ChannelRound:
        """Resolve ``plan`` on the current operand (timed as the kernel phase)."""
        t0 = time.perf_counter()
        # Under edge flips the operand is the current adjacency's.
        operand = self.operand if self.faults is None else self.faults.operand
        try:
            channel = resolve_channel(operand, plan.transmit, plan.listen)
        except SimulationError as exc:
            if not self.names:
                raise
            # The kernel reports positions in the fused stack; name the
            # caller's items instead.
            raise SimulationError(
                f"{exc} (batch rows are items {self._items()}, in order)"
            ) from None
        self.phase["channel"] += time.perf_counter() - t0
        return channel

    def complete(self, plan: RoundPlan, channel: ChannelRound) -> RoundStats | None:
        """Apply one resolved round: fault perception, feedback, counters, checks.

        Returns the last observed row's :class:`RoundStats` (a lone row's
        record), ``None`` when no row materialized one.
        """
        r, n = self.round, self.n
        t0 = time.perf_counter()
        transmit, listen = plan.transmit, plan.listen
        plans: list[RoundPlan] = []
        if self.sanitized or self.observed:
            rows = zip(transmit.reshape(-1, n), listen.reshape(-1, n))
            plans = [RoundPlan(transmit=tx, listen=lx) for tx, lx in rows]
        if self.sanitized:
            # Differential + operand checks run on the *raw* kernel output
            # (fault perception is a deliberate rewrite, not a divergence),
            # against the operand each row actually resolved on.
            for b, engine in enumerate(self.engines):
                if engine._sanitizer is not None:
                    operand = engine.kernel_operand if self.faults is None else self.faults.operand
                    engine._sanitizer.on_channel(
                        r, plans[b], _row(channel, b), operand, self.faults
                    )
        if self.faults is not None:
            # Loss and jamming rewrite what the radios *perceive*; from
            # here on (feedback, counters, stats) only the perceived
            # channel exists, keeping all observables self-consistent.
            channel = self.faults.perceive(r, listen, channel)
        self._feedback(r, channel)
        self.round += 1
        masks: tuple[np.ndarray, ...] = (transmit, listen, channel.clean, channel.collided)
        if len(self.engines) > 1:
            # Flat masks: numpy adds 1-D operands fastest.
            masks = tuple(mask.reshape(-1) for mask in masks)
        _accumulate(self.traffic, *masks)
        stats = self._report(r, plans, channel) if plans else None
        self.phase["feedback"] += time.perf_counter() - t0
        return stats

    def _act(self, r: int) -> RoundPlan:
        """Every part's plan, stacked as ``(rows, n)`` masks over more than one row."""
        plans = []
        for part in self.parts:
            try:
                plans.append(
                    _checked_plan(part.protocol.act(r), len(part.engines) * self.n)
                )
            except SimulationError as exc:
                if not self.names:
                    raise
                items = [self.names[engine] for engine in part.engines]
                who = f"item {items[0]}" if len(items) == 1 else f"items {items}"
                raise SimulationError(f"{exc} ({who})") from None
        if len(self.engines) == 1:
            return plans[0]
        if len(plans) == 1:
            transmit, listen = plans[0].transmit, plans[0].listen
        else:
            transmit = np.concatenate([plan.transmit for plan in plans])
            listen = np.concatenate([plan.listen for plan in plans])
        return RoundPlan(
            transmit=transmit.reshape(-1, self.n), listen=listen.reshape(-1, self.n)
        )

    def _feedback(self, r: int, channel: ChannelRound) -> None:
        """Hand every part its rows of the perceived channel, with flat sender ids."""
        if len(self.engines) == 1:
            self.parts[0].protocol.on_feedback(r, channel)
            return
        start = 0
        for part in self.parts:
            rows = slice(start, start + len(part.engines))
            start = rows.stop
            senders = channel.senders[rows]
            if part.fused:
                senders = senders + self.offsets[: len(part.engines)]
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

    def _sanitize_plans(self, r: int, plan: RoundPlan, crashed: np.ndarray | None) -> None:
        """Each sanitized row's plan hook, after the kernel's mask contract
        names the items of a stack of rows."""
        transmit, listen = plan.transmit, plan.listen
        if len(self.engines) > 1:
            try:
                check_channel_masks(self.n, transmit, listen)
            except SimulationError as exc:
                raise SimulationError(
                    f"{exc} (batch rows are items {self._items()}, in order)"
                ) from None
        rows = zip(transmit.reshape(-1, self.n), listen.reshape(-1, self.n))
        for engine, (tx, lx) in zip(self.engines, rows):
            if engine._sanitizer is not None:
                engine._sanitizer.on_begin_round(
                    r, RoundPlan(transmit=tx, listen=lx), crashed
                )

    def _report(
        self, r: int, plans: list[RoundPlan], channel: ChannelRound
    ) -> RoundStats | None:
        """Per-row sanitizer conservation checks and round observers."""
        stats: RoundStats | None = None
        for b, engine in enumerate(self.engines):
            row = _row(channel, b)
            if engine._sanitizer is not None:
                # Conservation checks see the *perceived* channel — the
                # same masks the counters just accumulated.
                engine._sanitizer.on_round_complete(
                    r,
                    plans[b],
                    row,
                    self.traffic[:, b * self.n : (b + 1) * self.n],
                    None if self.faults is None else self.faults.counters[b],
                )
            if engine._observers:
                stats = round_stats(r, plans[b].transmit, row)
                for observer in engine._observers:
                    observer(stats)
        return stats

    def _retire(self, finished: np.ndarray, done: np.ndarray) -> list[tuple[int, bool]]:
        """Write the finished rows back to their engines and drop them from the group.

        A fused part exports all its leaving rows in one call, then fills
        each hole a retired row leaves with one of its last surviving rows,
        so only the moved rows' state is copied.
        """
        n = self.n
        retired: list[tuple[int, bool]] = []
        order: list[int] = []
        parts: list[_Part] = []
        start = 0
        for part in self.parts:
            gone = finished[start : start + len(part.engines)].tolist()
            leaving = [k for k, row_gone in enumerate(gone) if row_gone]
            for k in leaving:
                b, engine = start + k, part.engines[k]
                engine._round = self.round
                engine._traffic[...] = self.traffic[:, b * n : (b + 1) * n]
                if self.faults is not None and engine.fault_state is not None:
                    self.faults.export(b, engine.fault_state)
                retired.append((self.names[engine], bool(done[b])))
            if part.fused and leaving:
                part.protocol.export(
                    _node_range(leaving, n).reshape(len(leaving), n),
                    [part.engines[k].protocol for k in leaving],
                )
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
                part.engines = [part.engines[k] for k in rows]
                order.extend(start + k for k in rows)
                parts.append(part)
            start += len(gone)
        self.parts = parts
        self.engines = [engine for part in parts for engine in part.engines]
        self.traffic = self.traffic[:, _node_range(order, n)]
        self.budgets = self.budgets[order]
        self.first_budget = int(self.budgets.min()) if order else 0
        if isinstance(self.operand, SparseOperand) and self.operand.row_base is not None:
            # Rows on different graphs: only the union's row map changes.
            self.operand = self.operand.select_rows(order)
        if self.faults is not None and order:
            # An emptied lone row's state is its engine's own: keep it whole.
            self.faults.select(order)
        self._watch()
        return retired


def _node_range(rows: list[int], n: int) -> np.ndarray:
    """The flat node ids of ``rows`` of a fused instance over ``n``-node copies."""
    nodes: np.ndarray = np.array(rows, dtype=np.int64)[:, None] * n + np.arange(n)
    return nodes.ravel()
