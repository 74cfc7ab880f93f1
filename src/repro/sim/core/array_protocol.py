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
copy's source from its state rather than from ``ctx.source``.  Fusing
moves the instances' state arrays into the fused one; retiring a copy
hands its rows back (:meth:`~ArrayProtocol.export`), so callers read
per-instance objects exactly as if they had run alone.

Per-node randomness is a pure function: :class:`CoinDeck` returns each
drawing node's coin ``u(row key, purpose, node, round)``
(:func:`~repro.sim.rng.keyed_coins`), with no stream state.  A per-node
implementation that computes the same function for the same nodes in the
same rounds is therefore *bitwise identical* to the array form — same
traces, same rounds-to-delivery, same failures — which is how the test
suite's per-node oracles check the array protocols.  A fused deck holds
one key per row, so fusing changes no coin.

The runnable protocols and their specs are listed once, in
:mod:`repro.sim.runners`.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, TypeVar

import numpy as np

from repro.errors import SimulationError
from repro.params import ProtocolParams
from repro.sim.rng import Purpose, keyed_coins, purpose_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core.channel import ChannelRound
    from repro.sim.rng import SeededStreams

__all__ = [
    "ArrayContext",
    "RoundPlan",
    "ArrayProtocol",
    "BroadcastArrayProtocol",
    "CoinDeck",
]

_P = TypeVar("_P", bound="ArrayProtocol")

@dataclass(frozen=True)
class ArrayContext:
    """Everything an array protocol knows before round 0.

    The public size bound, the source, shared parameters, and the run's
    coin key.
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

    #: the protocol's name; wrappers copy it from the protocol they wrap.
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
        parts must share a :meth:`fusion_key`, and their state arrays
        *move* here until :meth:`export` hands them back.  Every other
        attribute, ``ctx`` included, comes from the first part — which is
        why a fusable protocol reads its context in :meth:`setup` only.
        """
        fused = copy.copy(parts[0])
        for name in cls.node_state:
            values = [getattr(part, name) for part in parts]
            if isinstance(values[0], CoinDeck):
                setattr(fused, name, CoinDeck.concat(values))
            else:
                setattr(fused, name, np.concatenate(values))
                for part in parts:
                    delattr(part, name)
        return fused

    def export(self, nodes: np.ndarray, into: Sequence[ArrayProtocol]) -> None:
        """Hand copies of a fused instance their state back, in their own objects.

        ``nodes`` is a ``(len(into), n)`` array: row ``j`` holds the flat
        nodes of the copy whose state goes to ``into[j]``, which binds each
        state attribute to its freshly gathered rows.  A :class:`CoinDeck`
        has no state to hand back: each copy's deck keeps its own key.
        """
        flat = nodes.reshape(-1)
        for name in self.node_state:
            value = getattr(self, name)
            if isinstance(value, CoinDeck):
                continue
            rows = value[flat].reshape(nodes.shape + value.shape[1:])
            for target, row in zip(into, rows):
                setattr(target, name, row)

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
    """One purpose's coins for the nodes of a run, or of a fused group's rows.

    ``draw(nodes)`` returns one uniform in ``[0, 1)`` per listed node:
    ``u(row key, purpose, node, round)`` at the deck's :attr:`round`, which
    the protocol sets at the top of each ``act``.  The only state is one
    ``uint64`` key per row (:func:`~repro.sim.rng.purpose_key`), so a fused
    deck is its rows' keys side by side, and retiring a row moves one key.
    """

    def __init__(self, streams: "SeededStreams", purpose: Purpose) -> None:
        self.keys = np.array([purpose_key(streams.key, purpose)], dtype=np.uint64)
        self.n = len(streams)
        #: the round the next draws belong to.
        self.round = 0

    def draw(self, nodes: np.ndarray) -> np.ndarray:
        """One coin per node in ``nodes`` (flat, unique indices) this round."""
        return keyed_coins(self.keys, self.round, nodes, self.n)

    @classmethod
    def concat(cls, decks: Sequence[CoinDeck]) -> CoinDeck:
        """One deck over the rows of ``decks``, in order."""
        fused = copy.copy(decks[0])
        fused.keys = np.concatenate([deck.keys for deck in decks])
        return fused

    def compact(self, src: np.ndarray, dst: np.ndarray, size: int) -> None:
        """Move the rows of flat nodes ``src`` onto ``dst``, keep the first ``size`` nodes.

        Like :meth:`ArrayProtocol.compact`; whole rows move, so only their
        keys do.
        """
        n = self.n
        self.keys[dst[::n] // n] = self.keys[src[::n] // n]
        self.keys = self.keys[: size // n]
