"""The per-node protocol API the oracles are written against.

Every oracle is a :class:`Protocol`: one instance per node, driven in
lock-step rounds.  Each round every node's :meth:`Protocol.act` is called,
the radio channel is resolved, and :meth:`Protocol.on_feedback` is called
on every node that listened.  Nodes have no shared state and no side
channel — everything they learn arrives through feedback, exactly as in
the model of Section 1.1 of the paper.

:class:`ObjectProtocolAdapter` presents one such object per node as a
single :class:`~repro.sim.core.array_protocol.ArrayProtocol`, so the
oracles run on the same :class:`~repro.sim.core.batch.ArrayEngine` round
loop and channel kernel as the library's array protocols.  It wires each
node's ``NodeContext`` (including its keyed coins), validates
actions, and delivers feedback in a fixed order (clean receivers, then
collided, then silent, each in ascending node order) with real message
objects.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from oracles.coins import node_coin
from repro.errors import ConfigurationError, SimulationError
from repro.params import ProtocolParams
from repro.sim.core.array_protocol import ArrayContext, ArrayProtocol, RoundPlan
from repro.sim.core.channel import ChannelRound
from repro.sim.rng import Purpose

__all__ = [
    "Action",
    "ActionKind",
    "BroadcastProtocol",
    "Feedback",
    "FeedbackKind",
    "NodeContext",
    "ObjectProtocolAdapter",
    "Protocol",
    "in_layer_slot",
    "is_beep",
]


class ActionKind(enum.Enum):
    """What a node does with its radio in one round."""

    TRANSMIT = "transmit"
    LISTEN = "listen"
    SLEEP = "sleep"


@dataclass(frozen=True)
class Action:
    """A node's choice for one round; build via the class helpers."""

    kind: ActionKind
    message: Any = None

    @classmethod
    def transmit(cls, message: Any) -> Action:
        if message is None:
            raise SimulationError("TRANSMIT requires a non-None message")
        return cls(ActionKind.TRANSMIT, message)

    @classmethod
    def listen(cls) -> Action:
        return cls(ActionKind.LISTEN)

    @classmethod
    def sleep(cls) -> Action:
        return cls(ActionKind.SLEEP)


class FeedbackKind(enum.Enum):
    """What a listening node hears.

    Without collision detection a collision is reported as ``SILENCE``
    (the model's collision-as-silence assumption); with collision detection
    the receiver can distinguish all three cases.
    """

    SILENCE = "silence"
    MESSAGE = "message"
    COLLISION = "collision"


@dataclass(frozen=True)
class Feedback:
    """Channel outcome delivered to one listening node for one round."""

    kind: FeedbackKind
    round_index: int
    message: Any = None
    sender: int | None = None


@dataclass(frozen=True)
class NodeContext:
    """Everything a node legitimately knows before round 0.

    Per the model: its own id, the public bound ``n_bound`` on the network
    size, whether it is the source, the shared parameters, whether the
    receivers have collision detection, and its private coins
    (:meth:`coin`).  Nodes do *not* get the topology.
    """

    node: int
    n_nodes: int
    n_bound: int
    is_source: bool
    params: ProtocolParams
    seed: int = field(repr=False)
    collision_detection: bool = True

    def coin(self, purpose: Purpose, round_index: int) -> float:
        """This node's coin for ``purpose`` in ``round_index``."""
        return node_coin(self.seed, purpose, self.node, round_index)


class Protocol(ABC):
    """Base class for per-node protocol state machines."""

    def setup(self, ctx: NodeContext) -> None:
        """Bind this instance to a node; default stores ``ctx``."""
        self.ctx = ctx

    @abstractmethod
    def act(self, round_index: int) -> Action:
        """Return this node's action for the given round."""

    @abstractmethod
    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        """Receive the channel outcome of a round in which this node listened."""


class BroadcastProtocol(Protocol):
    """Base for single-message broadcast oracles.

    The payload is injected at construction; subclasses read
    ``self._injected_message`` in ``setup()`` (only the source holds it
    before round 0) and maintain an ``informed`` flag.
    """

    def __init__(self, message: Any = "broadcast") -> None:
        if message is None:
            raise ConfigurationError("the broadcast message must be non-None")
        self._injected_message = message


def is_beep(feedback: Feedback) -> bool:
    """Whether a listening node with collision detection heard a beep.

    Under collision detection both a clean message and a collision prove
    that at least one neighbour transmitted; only silence is not a beep.
    """
    return feedback.kind is not FeedbackKind.SILENCE


def in_layer_slot(round_index: int, wave_distance: int, spacing: int) -> bool:
    """Whether ``round_index`` is a repeat slot of layer ``wave_distance``.

    Layer ``d`` owns rounds ``d, d + spacing, d + 2·spacing, ...``; the
    first of those is the node's sync-pulse relay, so only strictly later
    rounds count as repeat slots.
    """
    return round_index > wave_distance and (round_index - wave_distance) % spacing == 0


class ObjectProtocolAdapter(ArrayProtocol):
    """Wrap one per-node :class:`Protocol` object per node as an ArrayProtocol.

    ``collision_detection`` is the receivers' model: with it a collision
    reaches a listener as ``COLLISION``, without it as ``SILENCE``.
    """

    def __init__(
        self, protocols: Sequence[Protocol], *, collision_detection: bool = True
    ) -> None:
        if len(set(map(id, protocols))) != len(protocols):
            raise SimulationError("the same Protocol instance was given for two nodes")
        self.protocols = tuple(protocols)
        self.collision_detection = collision_detection
        self._actions: tuple[Action, ...] = ()

    def setup(self, ctx: ArrayContext) -> None:
        super().setup(ctx)
        if len(self.protocols) != ctx.n_nodes:
            raise SimulationError(
                f"need exactly one protocol per node: got {len(self.protocols)} "
                f"protocols for {ctx.n_nodes} nodes"
            )
        for node, proto in enumerate(self.protocols):
            proto.setup(
                NodeContext(
                    node=node,
                    n_nodes=ctx.n_nodes,
                    n_bound=ctx.n_bound,
                    is_source=(node == ctx.source),
                    params=ctx.params,
                    seed=ctx.streams.seed,
                    collision_detection=self.collision_detection,
                )
            )

    def act(self, round_index: int) -> RoundPlan:
        n = len(self.protocols)
        transmit = np.zeros(n, dtype=bool)
        listen = np.zeros(n, dtype=bool)
        actions: list[Action] = []
        for node, proto in enumerate(self.protocols):
            action = proto.act(round_index)
            if not isinstance(action, Action):
                raise SimulationError(
                    f"protocol at node {node} returned {action!r} from act(); "
                    "expected an Action"
                )
            if action.kind is ActionKind.TRANSMIT:
                if action.message is None:
                    raise SimulationError(
                        f"node {node} transmitted a None message in round {round_index}"
                    )
                transmit[node] = True
            elif action.kind is ActionKind.LISTEN:
                listen[node] = True
            actions.append(action)
        self._actions = tuple(actions)
        return RoundPlan(transmit=transmit, listen=listen)

    def on_feedback(self, round_index: int, channel: ChannelRound) -> None:
        r = round_index
        for recv in np.nonzero(channel.clean)[0].tolist():
            sender = int(channel.senders[recv])
            self.protocols[recv].on_feedback(
                r,
                Feedback(
                    FeedbackKind.MESSAGE,
                    round_index=r,
                    message=self._actions[sender].message,
                    sender=sender,
                ),
            )
        collision_kind = (
            FeedbackKind.COLLISION if self.collision_detection else FeedbackKind.SILENCE
        )
        for recv in np.nonzero(channel.collided)[0].tolist():
            self.protocols[recv].on_feedback(r, Feedback(collision_kind, round_index=r))
        for recv in np.nonzero(channel.silent)[0].tolist():
            self.protocols[recv].on_feedback(r, Feedback(FeedbackKind.SILENCE, round_index=r))
