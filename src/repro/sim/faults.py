"""Seeded fault injection: crashes, dynamic edges, message loss, jammers.

The simulator's channel kernel reports the *physics* of a round; this
module injects the ways real deployments deviate from the clean model,
as a declarative, seed-reproducible :class:`FaultSchedule`:

* **Node crashes** (:class:`NodeCrash`) — a crashed node's transmit and
  listen masks are forced off for every round in its down window, so it
  sends nothing, hears nothing, and accrues no awake slots (crashed
  radios are powered off in the energy model).  Nodes revive when the
  window ends, keeping whatever protocol state they had (fail-stop with
  resume, the dynamic join/leave model).
* **Edge flips** (:class:`EdgeFlip`) — the network is time-varying: a
  flip toggles one undirected edge at the start of its round, and the
  channel for that round onwards is resolved against the *current*
  adjacency via a per-round kernel operand rebuilt on the engine's own
  backend (dense matrix or sparse CSR).
* **Message loss** (:attr:`FaultSchedule.loss_rate`) — each clean
  reception is independently dropped with this probability; the dropped
  listener perceives silence, exactly as if the frame were corrupted.
* **Jammers** (:class:`Jammer`) — a jamming node blankets itself and its
  current neighbourhood with noise while active: every covered listener
  perceives a collision regardless of what was actually on the air.

Faults act on *perception*, not ground truth: :meth:`FaultState.perceive`
rewrites the ``clean``/``collided``/``silent``/``senders`` masks the
protocol feedback sees, while ``counts`` stays the physical transmit
count (no protocol consumes it).  All fault randomness is drawn from the
engine's own stream (:attr:`~repro.sim.rng.SeededStreams.engine`), which
node protocols never touch — so attaching an empty schedule, or none,
leaves every run bitwise-identical to the fault-free simulator, and a
faulted run is reproducible across the dense/sparse channel backends
(and between each protocol and its per-node test oracle) alike.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.core.channel import (
    ChannelRound,
    KernelOperand,
    operand_from_csr,
)
from repro.sim.core.stats import FaultTotals
from repro.sim.rng import stream
from repro.sim.topology import RadioNetwork, csr_from_keys

__all__ = [
    "EdgeFlip",
    "FaultSchedule",
    "FaultState",
    "Jammer",
    "NodeCrash",
    "sample_fault_schedule",
]

#: Spawn key for the fault-sampling stream — domain-separated from the
#: run's protocol streams and from the topology generators (which use
#: keys 1 and 2), so sampling a schedule never perturbs either.
_FAULT_STREAM_KEY = 3


def _check_window(kind: str, start: int, stop: int | None) -> None:
    if start < 0:
        raise ConfigurationError(f"{kind} start must be non-negative, got {start}")
    if stop is not None and stop <= start:
        raise ConfigurationError(
            f"{kind} window must satisfy start < stop, got [{start}, {stop})"
        )


@dataclass(frozen=True)
class NodeCrash:
    """One node's down window: crashed for rounds in ``[start, stop)``.

    ``stop=None`` means the node never revives.  A crashed node's radio
    is off: it cannot transmit or listen and pays no awake slots.
    """

    node: int
    start: int = 0
    stop: int | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError(f"crash node must be >= 0, got {self.node}")
        _check_window("crash", self.start, self.stop)

    def down(self, round_index: int) -> bool:
        return self.start <= round_index and (
            self.stop is None or round_index < self.stop
        )


@dataclass(frozen=True)
class EdgeFlip:
    """Toggle the undirected edge ``{u, v}`` at the start of ``round_index``.

    Present edges disappear, absent edges appear — so a pair of flips at
    rounds ``r1 < r2`` models an outage window ``[r1, r2)`` (or a link
    that joins at ``r1`` and drops at ``r2``, if the edge was absent).
    """

    round_index: int
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ConfigurationError(
                f"edge flip round must be >= 0, got {self.round_index}"
            )
        if self.u < 0 or self.v < 0:
            raise ConfigurationError(
                f"edge flip endpoints must be >= 0, got ({self.u}, {self.v})"
            )
        if self.u == self.v:
            raise ConfigurationError(f"edge flip cannot be a self-loop at {self.u}")


@dataclass(frozen=True)
class Jammer:
    """A node emitting noise over its neighbourhood for rounds ``[start, stop)``.

    While active, every listener in the jammer's closed neighbourhood
    (itself plus its *current* neighbours, tracking edge flips) perceives
    a collision, whatever was actually transmitted.
    """

    node: int
    start: int = 0
    stop: int | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError(f"jammer node must be >= 0, got {self.node}")
        _check_window("jammer", self.start, self.stop)

    def active(self, round_index: int) -> bool:
        return self.start <= round_index and (
            self.stop is None or round_index < self.stop
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A declarative, engine-independent description of one run's faults.

    The schedule is pure data — node ids are validated against the actual
    network when a :class:`FaultState` is built, so one schedule can be
    constructed before (or independently of) the topology.  An empty
    schedule (:attr:`is_empty`) injects nothing and consumes no
    randomness, so attaching it leaves a run bitwise-identical to not
    attaching one.
    """

    crashes: tuple[NodeCrash, ...] = ()
    edge_flips: tuple[EdgeFlip, ...] = ()
    #: probability that each clean reception is independently dropped.
    loss_rate: float = 0.0
    jammers: tuple[Jammer, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "edge_flips", tuple(self.edge_flips))
        object.__setattr__(self, "jammers", tuple(self.jammers))
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1], got {self.loss_rate!r}"
            )

    @property
    def is_empty(self) -> bool:
        """Whether this schedule injects no faults at all."""
        return (
            not self.crashes
            and not self.edge_flips
            and self.loss_rate == 0.0
            and not self.jammers
        )

    def max_node(self) -> int:
        """The largest node id the schedule references (-1 when none)."""
        ids = [c.node for c in self.crashes]
        ids += [j.node for j in self.jammers]
        ids += [v for f in self.edge_flips for v in (f.u, f.v)]
        return max(ids, default=-1)


#: Indices of the fault counter vector a :class:`FaultState` accumulates.
_DROPPED, _JAMMED, _CRASHED, _FLIPPED = range(4)


#: Stop round of a window that never closes.
_FOREVER = np.iinfo(np.int64).max


def _windows(
    entries: tuple[NodeCrash, ...] | tuple[Jammer, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nodes, starts, stops)`` of a schedule's crash or jammer windows."""
    nodes = np.array([e.node for e in entries], dtype=np.int64)
    starts = np.array([e.start for e in entries], dtype=np.int64)
    stops = np.array(
        [_FOREVER if e.stop is None else e.stop for e in entries], dtype=np.int64
    )
    return nodes, starts, stops


class FaultState:
    """The mutable realization of one :class:`FaultSchedule` for lock-step runs.

    Owned by a single :class:`~repro.sim.core.batch.ArrayEngine` (one
    *row*), or built by :meth:`fuse` for the batch engine's fused groups
    (one row per instance, all on the same network, schedule and round).
    The rows share one crash mask, one jam cover and one edge-flip
    timeline per round: it tracks the current (possibly flipped)
    adjacency and rebuilds the kernel operand on the engine's backend
    whenever an edge flips — once per flip, whatever the row count.  Each
    row draws its loss coins from its own engine stream — never from a
    node stream — and keeps its own counters.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        network: RadioNetwork,
        operand: KernelOperand,
        rng: np.random.Generator,
    ) -> None:
        n = network.n
        top = schedule.max_node()
        if top >= n:
            raise ConfigurationError(
                f"fault schedule references node {top}, but the network has "
                f"only {n} nodes"
            )
        self.schedule = schedule
        self.network = network
        self._n = n
        self._rngs = [rng]
        self._operand = operand
        self._backend = operand.backend
        # Counter vector windowed by the engine exactly like its traffic
        # counters: dropped receptions, jammed listens, crashed node
        # rounds, edge flips applied.  A fused state holds one per row.
        self.counters = np.zeros(4, dtype=np.int64)
        # Edge flips are applied by a cursor over the round-sorted list.
        # The current adjacency is the network's CSR until the first flip;
        # from then on it is a sorted array of directed keys ``u*n + v``
        # (CSR order) that each flip toggles, with the CSR re-derived from
        # it.  The network object itself is never mutated — it may be
        # shared.
        self._flips = sorted(
            schedule.edge_flips, key=lambda f: (f.round_index, f.u, f.v)
        )
        self._flip_cursor = 0
        self._keys: np.ndarray | None = None
        self._csr = network.csr()
        # Jam coverage depends on (active jammer set, current adjacency);
        # cache it keyed by both so static phases pay nothing per round.
        self._adjacency_version = 0
        self._jam_cache: tuple[tuple[int, ...], int, np.ndarray] | None = None

    # Crash and jammer windows as arrays: the round's down set is one
    # comparison over them, not a loop over the schedule.  Built on first
    # use, so the per-item states a fused group replaces never build them.
    @cached_property
    def _crashes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _windows(self.schedule.crashes)

    @cached_property
    def _jammers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _windows(self.schedule.jammers)

    @classmethod
    def fuse(cls, states: Sequence[FaultState]) -> FaultState:
        """One state over the rows of ``states``, which share a schedule and round.

        The rows keep their own engine streams (shared, not copied) and
        counters; the adjacency is the first state's.
        """
        lead = states[0]
        fused = cls(lead.schedule, lead.network, lead._operand, lead._rngs[0])
        fused._adopt_adjacency(lead)
        fused._rngs = [rng for state in states for rng in state._rngs]
        fused.counters = np.stack([state.counters for state in states])
        return fused

    def export(self, row: int, into: FaultState) -> None:
        """Write ``row``'s counters and the current adjacency into ``into``."""
        into.counters[...] = self.counters[row]
        into._adopt_adjacency(self)

    def select(self, rows: list[int]) -> None:
        """Keep only ``rows``, in that order."""
        self._rngs = [self._rngs[row] for row in rows]
        self.counters = self.counters[rows]

    def _adopt_adjacency(self, other: FaultState) -> None:
        self._flip_cursor = other._flip_cursor
        self._keys = other._keys
        self._csr = other._csr
        self._operand = other._operand
        self._adjacency_version = other._adjacency_version
        self._jam_cache = other._jam_cache

    @property
    def operand(self) -> KernelOperand:
        """The kernel operand for the *current* adjacency."""
        return self._operand

    @property
    def adjacency_version(self) -> int:
        """Monotone counter of edge flips applied so far.

        Two calls observing the same version are guaranteed to see the
        same current adjacency — the sanitizer's differential checker
        keys its reference-operand rebuilds on this, and the bisector
        records it in repro bundles.
        """
        return self._adjacency_version

    def current_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR neighbour arrays of the *current* (possibly flipped) adjacency.

        Before the first flip this is the network's own CSR; each applied
        flip derives a new pair from the directed-key array, so two calls
        observing the same :attr:`adjacency_version` get the same arrays.
        """
        return self._csr

    def totals(self, counters: np.ndarray) -> FaultTotals:
        """Freeze one row's counter window (see :attr:`counters`)."""
        return FaultTotals(
            dropped_receptions=int(counters[_DROPPED]),
            jammed_listens=int(counters[_JAMMED]),
            crashed_node_rounds=int(counters[_CRASHED]),
            edge_flips_applied=int(counters[_FLIPPED]),
        )

    # ------------------------------------------------------------------ #
    # Per-round hooks (called by the engine)
    # ------------------------------------------------------------------ #
    def begin_round(self, round_index: int) -> np.ndarray | None:
        """Advance edge flips up to ``round_index``; return the crash mask.

        The cursor makes this idempotent for a repeated round index, so a
        re-issued ``begin_round`` never double-applies a flip.  Returns
        ``None`` when no node is crashed this round (the common case).
        The mask is the same for every row.
        """
        while (
            self._flip_cursor < len(self._flips)
            and self._flips[self._flip_cursor].round_index <= round_index
        ):
            self._apply_flip(self._flips[self._flip_cursor])
            self._flip_cursor += 1
        nodes, starts, stops = self._crashes
        if not nodes.size:
            return None
        down = nodes[(starts <= round_index) & (round_index < stops)]
        if not down.size:
            return None
        crashed = np.zeros(self._n, dtype=bool)
        crashed[down] = True
        self.counters[..., _CRASHED] += np.count_nonzero(crashed)
        return crashed

    def perceive(
        self, round_index: int, listen: np.ndarray, channel: ChannelRound
    ) -> ChannelRound:
        """Rewrite one resolved round into what the (faulty) radios report.

        ``listen`` and the channel are ``(n,)`` for one row or
        ``(rows, n)``.  Jamming forces every covered listener to a
        perceived collision; loss then independently drops surviving
        clean receptions into perceived silence.  ``counts`` is left as
        physical ground truth.  When the round is untouched the original
        channel object is returned, so fault-free rounds allocate nothing.
        """
        cover = self._jam_cover(round_index)
        jammed = (listen & cover) if cover is not None else None
        # The loss coins are drawn once per round and row whenever the
        # schedule has a loss rate — independent of how many clean
        # receptions this round produced — so stream consumption (and
        # therefore every later draw) is identical across protocol forms,
        # backends and batch shapes.
        coins: np.ndarray | None = None
        if self.schedule.loss_rate > 0.0:
            coins = np.empty(listen.shape)
            for row, rng in zip(coins.reshape(-1, self._n), self._rngs):
                rng.random(out=row)
        clean = channel.clean
        collided = channel.collided
        silent = channel.silent
        if jammed is not None and jammed.any():
            clean = clean & ~jammed
            collided = collided | jammed
            silent = silent & ~jammed
            self.counters[..., _JAMMED] += np.count_nonzero(jammed, axis=-1)
        if coins is not None:
            dropped = clean & (coins < self.schedule.loss_rate)
            if dropped.any():
                clean = clean & ~dropped
                silent = silent | dropped
                self.counters[..., _DROPPED] += np.count_nonzero(dropped, axis=-1)
        if clean is channel.clean and collided is channel.collided:
            return channel
        return ChannelRound(
            counts=channel.counts,
            clean=clean,
            collided=collided,
            silent=silent,
            senders=np.where(clean, channel.senders, 0),
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _apply_flip(self, flip: EdgeFlip) -> None:
        """Toggle ``{u, v}`` in the directed keys; rebuild CSR and operand.

        The operand stays on the backend the engine started with, so
        cross-backend bitwise equivalence holds round by round even
        mid-flip.
        """
        n = self._n
        keys = self._keys
        if keys is None:
            indptr, indices = self._csr
            keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
        pair = np.array(sorted((flip.u * n + flip.v, flip.v * n + flip.u)), dtype=np.int64)
        at = np.searchsorted(keys, pair)
        # Both directions are present or both absent, so one probe decides.
        if at[0] < keys.size and keys[at[0]] == pair[0]:
            keys = np.delete(keys, at)
        else:
            keys = np.insert(keys, at, pair)
        self._keys = keys
        self._csr = csr_from_keys(n, keys)
        self._operand = operand_from_csr(self._backend, *self._csr)
        self.counters[..., _FLIPPED] += 1
        self._adjacency_version += 1

    def _jam_cover(self, round_index: int) -> np.ndarray | None:
        nodes, starts, stops = self._jammers
        if not nodes.size:
            return None
        active = tuple(nodes[(starts <= round_index) & (round_index < stops)].tolist())
        if not active:
            return None
        cache = self._jam_cache
        if (
            cache is not None
            and cache[0] == active
            and cache[1] == self._adjacency_version
        ):
            return cache[2]
        indptr, indices = self._csr
        cover = np.zeros(self._n, dtype=bool)
        cover[list(active)] = True
        for node in active:
            cover[indices[indptr[node] : indptr[node + 1]]] = True
        self._jam_cache = (active, self._adjacency_version, cover)
        return cover


def sample_fault_schedule(
    network: RadioNetwork,
    *,
    seed: int,
    horizon: int,
    crash_rate: float = 0.0,
    loss_rate: float = 0.0,
    jammers: int = 0,
    edge_flip_rate: float = 0.0,
    protect_source: bool = True,
) -> FaultSchedule:
    """Sample one reproducible schedule from per-family intensity knobs.

    ``crash_rate`` is the probability each node gets one down window
    (start and length uniform within the first/any half of ``horizon``),
    ``edge_flip_rate`` the probability each edge gets one outage window,
    ``jammers`` the count of distinct jamming nodes (each active for its
    own sampled window, like a crash), and ``loss_rate`` passes through.
    The draw uses its own domain-separated stream of ``seed``, so the
    same seed drives the same protocol coins
    with or without faults.  ``protect_source`` (default) keeps the
    broadcast source out of the crash and jammer pools — a crashed source
    trivially fails every delivery metric, which is rarely the question.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    for name, rate in (("crash_rate", crash_rate), ("edge_flip_rate", edge_flip_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"{name} must be in [0, 1], got {rate!r}")
    if jammers < 0:
        raise ConfigurationError(f"jammers must be >= 0, got {jammers}")
    n = network.n
    source = network.source
    rng = stream(seed, _FAULT_STREAM_KEY)
    half = max(1, horizon // 2)

    crashes = []
    if crash_rate > 0.0:
        for node in range(n):
            if protect_source and node == source:
                continue
            if rng.random() >= crash_rate:
                continue
            start = int(rng.integers(0, half))
            length = 1 + int(rng.integers(0, half))
            crashes.append(NodeCrash(node, start, start + length))

    flips = []
    if edge_flip_rate > 0.0:
        for u in range(n):
            for v in network.neighbors(u):
                if v <= u:
                    continue
                if rng.random() >= edge_flip_rate:
                    continue
                off = int(rng.integers(0, half))
                on = off + 1 + int(rng.integers(0, half))
                flips.append(EdgeFlip(off, u, v))
                flips.append(EdgeFlip(on, u, v))

    jam = []
    if jammers:
        pool = [v for v in range(n) if not (protect_source and v == source)]
        if jammers > len(pool):
            raise ConfigurationError(
                f"cannot place {jammers} jammers on a network with only "
                f"{len(pool)} eligible nodes"
            )
        chosen = rng.choice(len(pool), size=jammers, replace=False)
        for i in sorted(chosen.tolist()):
            start = int(rng.integers(0, half))
            length = 1 + int(rng.integers(0, half))
            jam.append(Jammer(pool[int(i)], start, start + length))

    return FaultSchedule(
        crashes=tuple(crashes),
        edge_flips=tuple(flips),
        loss_rate=loss_rate,
        jammers=tuple(jam),
    )
