"""The array-native protocol API.

The paper states every algorithm as a per-node rule.  An
:class:`ArrayProtocol` implements such a rule for the whole network at
once: **one** instance holds the state of *all* nodes as numpy arrays,
returns whole-network action masks from :meth:`~ArrayProtocol.act`, and
consumes the ground-truth :class:`~repro.sim.core.channel.ChannelRound`
in :meth:`~ArrayProtocol.on_feedback`.  A round therefore costs a handful
of array operations instead of ``n`` Python method calls.

Per-node randomness is preserved exactly: :class:`CoinDeck` draws each
node's coins from that node's own PCG64 stream in
:class:`~repro.sim.rng.SeededStreams`, in chunks (a stream yields the same
sequence whether drawn one value at a time or in blocks).  A per-node
implementation that calls ``rng.random()`` on numpy's generator for the
same spawned child, for the same nodes in the same rounds, is therefore
*bitwise identical* to the array form — same traces, same
rounds-to-delivery, same failures — which is how the test suite's
per-node oracles check the array protocols.

A registry maps protocol names to their array protocol classes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

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


@dataclass(frozen=True)
class ArrayContext:
    """Everything an array protocol knows before round 0.

    The public size bound, the source, shared parameters, the receivers'
    collision-detection capability, and the full complement of per-node
    random streams.
    """

    n_nodes: int
    n_bound: int
    source: int
    params: ProtocolParams
    collision_detection: bool
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
    :meth:`on_feedback` with the ground-truth resolution (the protocol
    applies the collision-detection mapping itself, via
    ``ctx.collision_detection``).
    """

    #: registry name, set by :func:`register_array_protocol`.
    name: str = ""

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


class BroadcastArrayProtocol(ArrayProtocol):
    """Base for array-native single-message broadcast protocols.

    The payload is injected at construction, and completion is an
    ``informed`` flag — a boolean array over all nodes, with ``informed_round[v]`` recording
    when node ``v`` first received the message (0 for the source, -1 while
    uninformed).
    """

    def __init__(self, message: Any = "broadcast") -> None:
        if message is None:
            raise ConfigurationError("the broadcast message must be non-None")
        self._injected_message = message

    def _init_broadcast_state(self, ctx: ArrayContext) -> None:
        """Initialize the shared ``informed`` / ``informed_round`` arrays."""
        self.informed = np.zeros(ctx.n_nodes, dtype=bool)
        self.informed[ctx.source] = True
        self.informed_round = np.full(ctx.n_nodes, -1, dtype=np.int64)
        self.informed_round[ctx.source] = 0

    def done(self) -> bool:
        return bool(self.informed.all())

    def informed_rounds(self) -> tuple[int, ...]:
        """Per-node arrival rounds, as plain ints (valid once :meth:`done`)."""
        return tuple(self.informed_round.tolist())

    def undelivered(self) -> tuple[int, ...]:
        """Nodes still uninformed, for :class:`~repro.errors.BroadcastFailure`."""
        return tuple(np.nonzero(~self.informed)[0].tolist())


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
        n = len(streams)
        #: buffered coins, one column per node, empty until the first draw;
        #: node i's next coin is ``_buf[_pos[i], i]``.
        self._buf = np.empty((0, n), dtype=np.float64)
        self._pos = np.full(n, chunk, dtype=np.int64)
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
