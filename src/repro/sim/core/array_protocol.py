"""The array-native protocol API.

The paper states every algorithm as a per-node rule.  An
:class:`ArrayProtocol` implements such a rule for the whole network at
once: **one** instance holds the state of *all* nodes as numpy arrays,
returns whole-network action masks from :meth:`~ArrayProtocol.act`, and
consumes the ground-truth :class:`~repro.sim.core.channel.ChannelRound`
in :meth:`~ArrayProtocol.on_feedback`.  A round therefore costs a handful
of array operations instead of ``n`` Python method calls.

**Disjoint unions.**  A protocol written over flat node indices runs
unchanged on the disjoint union of ``B`` copies of a graph: node ``v`` of
copy ``b`` is flat node ``b·n + v``, every copy has its own source, and
the channel's sender ids are flat ids too.  The batch engine uses this to
step ``B`` same-config instances as one (:meth:`ArrayProtocol.fuse`): one
``act``, one kernel call and one ``on_feedback`` per round, whatever
``B`` is.  A protocol opts in by declaring its per-node state in
:attr:`ArrayProtocol.node_state`; it must then read its
:class:`ArrayContext` in :meth:`~ArrayProtocol.setup` only, and find each
copy's source from its state rather than from ``ctx.source``.  Retiring a
copy writes its slice back to that instance's own protocol object
(:meth:`~ArrayProtocol.export`), so callers read per-instance objects
exactly as if they had run alone.

Per-node randomness is preserved exactly: :class:`CoinDeck` draws each
node's coins from that node's own PCG64 stream in
:class:`~repro.sim.rng.SeededStreams`, in chunks (a stream yields the same
sequence whether drawn one value at a time or in blocks).  A per-node
implementation that calls ``rng.random()`` on numpy's generator for the
same spawned child, for the same nodes in the same rounds, is therefore
*bitwise identical* to the array form — same traces, same
rounds-to-delivery, same failures — which is how the test suite's
per-node oracles check the array protocols.  A fused deck is the
concatenation of its copies' decks, so fusing changes no coin.

A registry maps protocol names to their array protocol classes.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, TypeVar

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.params import ProtocolParams
from repro.sim.rng import pcg64_advance, pcg64_doubles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core.channel import ChannelRound
    from repro.sim.rng import SeededStreams

__all__ = [
    "ArrayContext",
    "RoundPlan",
    "ArrayProtocol",
    "BroadcastArrayProtocol",
    "CoinDeck",
    "register_array_protocol",
    "array_protocol_class",
    "available_array_protocols",
]

_P = TypeVar("_P", bound="ArrayProtocol")

#: The fewest coins per stream a fused :class:`CoinDeck` buffers.
_MIN_FUSED_CHUNK = 16


@dataclass(frozen=True)
class ArrayContext:
    """Everything an array protocol knows before round 0.

    The public size bound, the source, shared parameters, and the full
    complement of per-node random streams.
    """

    n_nodes: int
    n_bound: int
    source: int
    params: ProtocolParams
    streams: "SeededStreams" = field(repr=False)


@dataclass(frozen=True)
class RoundPlan:
    """Whole-network action masks for one round.

    ``transmit`` and ``listen`` must be disjoint (half-duplex radios);
    nodes in neither mask sleep.  Message payloads are protocol-internal —
    the channel never inspects them, and receivers recover what a sender
    transmitted by indexing the protocol's own per-node payload state with
    the :class:`~repro.sim.core.channel.ChannelRound` sender ids.
    """

    transmit: np.ndarray
    listen: np.ndarray


class ArrayProtocol(ABC):
    """Base class for whole-network vectorized protocol state machines.

    Lifecycle: the engine calls :meth:`setup` once before round 0, then
    for every round calls :meth:`act`, resolves the channel, and calls
    :meth:`on_feedback` with the ground-truth resolution.  Collision
    detection is part of each protocol's model: one that assumes it reads
    ``channel.collided`` as a beep, one that does not reads only
    ``channel.clean``.
    """

    #: registry name, set by :func:`register_array_protocol`.
    name: str = ""

    #: The attributes holding per-node state: arrays indexed by node on
    #: their first axis, or a :class:`CoinDeck`.  A class that declares
    #: them in its own body is fusable (see the module docstring); a
    #: subclass inherits none of it, since it may add state of its own.
    node_state: ClassVar[tuple[str, ...]] = ()

    def setup(self, ctx: ArrayContext) -> None:
        """Bind this instance to a network-sized run; default stores ``ctx``."""
        self.ctx = ctx

    @abstractmethod
    def act(self, round_index: int) -> RoundPlan:
        """Return the whole network's action masks for the given round."""

    @abstractmethod
    def on_feedback(self, round_index: int, channel: "ChannelRound") -> None:
        """Consume the ground-truth channel resolution of one round."""

    def done(self) -> bool:
        """Whether the protocol considers the whole run complete (advisory)."""
        return False

    def done_rows(self, rows: int) -> np.ndarray:
        """:meth:`done` of each copy of a fused instance of ``rows`` copies."""
        raise SimulationError(f"{type(self).__name__} is not fusable")

    def fusion_key(self) -> Hashable | None:
        """What set-up instances must share to be fused; ``None`` never fuses.

        Fusable classes fuse instances of the same class, size, size
        bound and parameters; a class with further scalar configuration
        extends the key.
        """
        cls = type(self)
        if "node_state" not in vars(cls):
            return None
        ctx = self.ctx
        return (cls, ctx.n_nodes, ctx.n_bound, ctx.params)

    @classmethod
    def fuse(cls: type[_P], parts: Sequence[_P]) -> _P:
        """One instance on the disjoint union of ``parts``' networks.

        Copy ``b``'s nodes become flat nodes ``b·n .. (b+1)·n - 1``; the
        parts must share a :meth:`fusion_key`.  Every other attribute,
        ``ctx`` included, comes from the first part — which is why a
        fusable protocol reads its context in :meth:`setup` only.
        """
        fused = copy.copy(parts[0])
        for name in cls.node_state:
            values = [getattr(part, name) for part in parts]
            if isinstance(values[0], CoinDeck):
                setattr(fused, name, CoinDeck.concat(values))
            else:
                setattr(fused, name, np.concatenate(values))
        return fused

    def export(self, nodes: np.ndarray, into: Sequence[ArrayProtocol]) -> None:
        """Write the state of copies of a fused instance into their own objects.

        ``nodes`` is a ``(len(into), n)`` array: row ``j`` holds the flat
        nodes of the copy whose state goes to ``into[j]``.
        """
        flat = nodes.reshape(-1)
        for name in self.node_state:
            value = getattr(self, name)
            targets = [getattr(target, name) for target in into]
            if isinstance(value, CoinDeck):
                value.export(flat, targets)
            else:
                rows = value[flat].reshape(nodes.shape + value.shape[1:])
                for target, row in zip(targets, rows):
                    target[...] = row

    def compact(self, src: np.ndarray, dst: np.ndarray, size: int) -> None:
        """Move the state of flat nodes ``src`` onto ``dst``, keep the first ``size``.

        In place: the kept state becomes a prefix view of each array, so
        dropping retired copies from a fused instance never allocates.
        """
        for name in self.node_state:
            value = getattr(self, name)
            if isinstance(value, CoinDeck):
                value.compact(src, dst, size)
            else:
                value[dst] = value[src]
                setattr(self, name, value[:size])


class BroadcastArrayProtocol(ArrayProtocol):
    """Base for array-native single-message broadcast protocols.

    Completion is an ``informed`` flag — a boolean array over all nodes,
    with ``informed_round[v]`` recording when node ``v`` first received
    the message (0 for the source, -1 while uninformed).  The protocols
    track which messages a node holds, never their payloads.
    """

    def _init_broadcast_state(self, ctx: ArrayContext) -> None:
        """Initialize the shared ``informed`` / ``informed_round`` arrays."""
        self.informed = np.zeros(ctx.n_nodes, dtype=bool)
        self.informed[ctx.source] = True
        self.informed_round = np.full(ctx.n_nodes, -1, dtype=np.int64)
        self.informed_round[ctx.source] = 0

    def done(self) -> bool:
        return bool(self.informed.all())

    def done_rows(self, rows: int) -> np.ndarray:
        return np.asarray(self.informed.reshape(rows, -1).all(axis=1))

    def informed_rounds(self) -> tuple[int, ...]:
        """Per-node arrival rounds, as plain ints (valid once :meth:`done`)."""
        return tuple(self.informed_round.tolist())

    def undelivered(self) -> tuple[int, ...]:
        """Nodes still uninformed, for :class:`~repro.errors.BroadcastFailure`."""
        return tuple(np.nonzero(~self.informed)[0].tolist())

    def result_fields(self) -> dict[str, Any]:
        """Protocol-specific :class:`~repro.sim.runners.BroadcastResult` fields."""
        return {}


class CoinDeck:
    """Vectorized access to per-node seeded coin streams.

    ``draw(nodes)`` returns one uniform in ``[0, 1)`` per listed node,
    taken from that node's own stream — the *same* values, in the same
    per-node order, that per-node ``Generator.random()`` calls on the
    node's spawned child would produce.  Each node has a buffer of
    ``chunk`` coins computed ahead, so a round's draws cost a few
    fancy-indexing operations.

    The deck owns the streams' ``state``: node i's state always sits at
    the first coin of its current buffer, and ``_pos[i]`` counts the
    coins spent from it, so ``(state, positions)`` is the exact cursor.
    The first draw fills every buffer in one vectorized PCG64 pass
    (:func:`~repro.sim.rng.pcg64_doubles`).  Once some buffer is empty,
    the next draw advances every node that has spent at least half its
    buffer past its spent coins and refills it, so refills come in
    batches — at most one per ``chunk / 2`` draws — instead of one per
    node.
    """

    def __init__(self, streams: "SeededStreams", *, chunk: int = 64) -> None:
        if chunk < 1:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        self._state = streams.state
        self._chunk = chunk
        self._empty()

    def _empty(self) -> None:
        """Drop every buffer; ``_state`` must already sit at the next coins."""
        n = self._state.shape[1]
        #: buffered coins, one column per node, empty until the first draw;
        #: node i's next coin is ``_buf[_pos[i], i]``.
        self._buf = np.empty((0, n), dtype=np.float64)
        self._pos = np.full(n, self._chunk, dtype=np.int64)
        #: draws guaranteed to find every buffer non-empty: a draw spends
        #: at most one coin per node, so ``chunk - max(_pos)`` is safe.
        self._headroom = 0

    @property
    def positions(self) -> np.ndarray:
        """Per-node count of coins spent from the current buffer (read-only view)."""
        view = self._pos.view()
        view.flags.writeable = False
        return view

    def draw(self, nodes: np.ndarray) -> np.ndarray:
        """One coin per node in ``nodes`` (unique indices), from its own stream."""
        if self._headroom <= 0:
            self._replenish()
        self._headroom -= 1
        pos = self._pos[nodes]
        coins = self._buf[pos, nodes]
        self._pos[nodes] = pos + 1
        return coins

    @classmethod
    def concat(cls, decks: Sequence[CoinDeck]) -> CoinDeck:
        """One deck over the concatenated streams of ``decks``, cursors kept.

        It starts with empty buffers, and buffers fewer coins per stream
        than its parts (their chunk over their count, at least
        ``_MIN_FUSED_CHUNK``): one refill call serves every part, so a
        shorter buffer amortizes it as well, and the fused buffer — a
        fused instance's largest array — stays a fraction of its parts'
        buffers together.
        """
        fused = cls.__new__(cls)
        fused._state = np.concatenate([deck._cursor(slice(None)) for deck in decks], axis=1)
        fused._chunk = max(_MIN_FUSED_CHUNK, max(deck._chunk for deck in decks) // len(decks))
        fused._empty()
        return fused

    def export(self, nodes: np.ndarray, into: Sequence[CoinDeck]) -> None:
        """Hand the cursors of ``nodes`` to the decks ``into``, in order.

        The decks together cover exactly those streams, each a run of
        ``len(nodes) // len(into)`` of them; every one gets its streams
        positioned at their next unspent coin and an empty buffer, which
        its next draw refills.  One jump-ahead serves all the decks.
        """
        cursor = self._cursor(nodes).reshape(4, len(into), -1)
        for b, deck in enumerate(into):
            deck._state[...] = cursor[:, b]
            deck._empty()

    def _cursor(self, nodes: slice | np.ndarray) -> np.ndarray:
        """The states of ``nodes``' streams at their next unspent coin (a copy)."""
        state: np.ndarray = self._state[:, nodes].copy()
        if self._buf.size:
            pos = self._pos[nodes]
            spent = np.flatnonzero(pos)
            if spent.size:
                moved = state[:, spent]
                pcg64_advance(moved, pos[spent])
                state[:, spent] = moved
        return state

    def compact(self, src: np.ndarray, dst: np.ndarray, size: int) -> None:
        """Move the cursors of streams ``src`` onto ``dst``, keep the first ``size``.

        In place, like :meth:`ArrayProtocol.compact`: the coin buffer is
        the largest array a fused instance holds.
        """
        self._state[:, dst] = self._state[:, src]
        self._state = self._state[:, :size]
        self._pos[dst] = self._pos[src]
        self._pos = self._pos[:size]
        if self._buf.size:
            self._buf[:, dst] = self._buf[:, src]
            self._buf = self._buf[:, :size]

    def _replenish(self) -> None:
        """Refill the buffers if any is empty, then recompute the headroom."""
        chunk = self._chunk
        if not self._buf.size:
            self._buf = pcg64_doubles(self._state, chunk)
            self._pos[:] = 0
        elif self._pos.max() >= chunk:
            rows = np.flatnonzero(2 * self._pos >= chunk)
            state = self._state[:, rows]
            pcg64_advance(state, self._pos[rows])
            self._buf[:, rows] = pcg64_doubles(state, chunk)
            self._state[:, rows] = state
            self._pos[rows] = 0
        self._headroom = chunk - int(self._pos.max())


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_ARRAY_REGISTRY: dict[str, type[ArrayProtocol]] = {}


def register_array_protocol(
    name: str,
) -> Callable[[type[ArrayProtocol]], type[ArrayProtocol]]:
    """Class decorator registering an :class:`ArrayProtocol` under ``name``."""

    def deco(cls: type[ArrayProtocol]) -> type[ArrayProtocol]:
        if not (isinstance(cls, type) and issubclass(cls, ArrayProtocol)):
            raise SimulationError(f"{cls!r} is not an ArrayProtocol subclass")
        if name in _ARRAY_REGISTRY and _ARRAY_REGISTRY[name] is not cls:
            raise SimulationError(f"array protocol name {name!r} is already registered")
        cls.name = name
        _ARRAY_REGISTRY[name] = cls
        return cls

    return deco


def array_protocol_class(name: str) -> type[ArrayProtocol]:
    """Look up a registered array protocol class by name."""
    try:
        return _ARRAY_REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown array protocol {name!r}; registered: {sorted(_ARRAY_REGISTRY)}"
        ) from None


def available_array_protocols() -> tuple[str, ...]:
    """Names of all registered array protocols, sorted."""
    return tuple(sorted(_ARRAY_REGISTRY))
