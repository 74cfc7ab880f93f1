"""Per-node reference implementations of the library's two protocols, and the wave.

Each oracle class here is one node's state machine, written straight from
the paper's per-node rules.  The library implements the same rules once
more, whole-network and vectorized, as the array protocols in
:mod:`repro.sim.decay` and :mod:`repro.sim.multi_message` (whose ``k = 1``
case is single-message GHK); see those modules for the algorithms
themselves.  Both forms draw the same keyed coin for each (purpose, node,
round), so on a shared seed they must produce bit-for-bit identical
traces — which is what the equivalence tests check.

The synchronization beep wave on its own lives here in both forms
(:class:`BeepWaveProtocol` and :class:`BeepWaveArrayProtocol`): the
library only runs it inside the broadcast, but the tests need it alone to
show it stalling without collision detection.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

import numpy as np

from oracles.api import (
    Action,
    BroadcastProtocol,
    Feedback,
    FeedbackKind,
    NodeContext,
    Protocol,
    in_layer_slot,
    is_beep,
)
from repro.errors import ConfigurationError
from repro.params import WAVE_SPACING
from repro.sim.core.array_protocol import ArrayContext, ArrayProtocol, RoundPlan
from repro.sim.core.channel import ChannelRound
from repro.sim.rng import Purpose

__all__ = [
    "WAVE_PULSE",
    "BeepWaveArrayProtocol",
    "BeepWaveProtocol",
    "DecayProtocol",
    "MultiMessageProtocol",
]


class _WavePulse:
    """Singleton payload of a content-free synchronization pulse."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "WAVE_PULSE"


#: The payload an oracle node transmits when it beeps without data to
#: piggyback; reserved, so the k-message oracle rejects it as a message.
WAVE_PULSE = _WavePulse()


class DecayProtocol(BroadcastProtocol):
    """Per-node Decay: phase-boundary wake-up, then stay active w.p. 1/2."""

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        self.phase_length = ctx.params.decay_phase_length(ctx.n_bound)
        self.informed = ctx.is_source
        self.message: Any = self._injected_message if ctx.is_source else None
        self.informed_round: int | None = 0 if ctx.is_source else None
        self._active = False

    def act(self, round_index: int) -> Action:
        if round_index % self.phase_length == 0:
            # Phase boundary: every informed node (re-)joins the decay.
            self._active = self.informed
        if not self.informed:
            return Action.listen()
        if not self._active:
            return Action.sleep()
        # Stay active next round with probability 1/2.
        self._active = self.ctx.coin(Purpose.DECAY_STAY, round_index) < 0.5
        return Action.transmit(self.message)

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        if feedback.kind is FeedbackKind.MESSAGE and not self.informed:
            self.informed = True
            self.message = feedback.message
            self.informed_round = round_index


class BeepWaveProtocol(Protocol):
    """Propagate one synchronization beep wave and learn the BFS distance.

    Listens until the first beep, records ``wave_distance`` as that round
    plus one, relays the pulse exactly once in round ``wave_distance``, and
    then sleeps.
    """

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        #: hop distance from the source, learned when the wave arrives.
        self.wave_distance: int | None = 0 if ctx.is_source else None
        self._pulse_sent = False

    def act(self, round_index: int) -> Action:
        if self.wave_distance is None:
            return Action.listen()
        if not self._pulse_sent and round_index >= self.wave_distance:
            self._pulse_sent = True
            return Action.transmit(WAVE_PULSE)
        return Action.sleep()

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        if self.wave_distance is None and is_beep(feedback):
            self.wave_distance = feedback.round_index + 1


class BeepWaveArrayProtocol(ArrayProtocol):
    """:class:`BeepWaveProtocol` for the whole network at once, as array state.

    ``wave_distance == -1`` stands in for "not yet reached".  Without
    ``collision_detection`` a collision is perceived as silence, so only
    clean receipts count as beeps and the wave stalls (or detours) wherever
    two relays collide.  The protocol is coin-free.
    """

    node_state = ("wave_distance", "pulse_sent")

    def __init__(self, *, collision_detection: bool = True) -> None:
        self.collision_detection = collision_detection

    def fusion_key(self) -> Hashable | None:
        key = super().fusion_key()
        return None if key is None else (key, self.collision_detection)

    def setup(self, ctx: ArrayContext) -> None:
        super().setup(ctx)
        self.wave_distance = np.full(ctx.n_nodes, -1, dtype=np.int64)
        self.wave_distance[ctx.source] = 0
        self.pulse_sent = np.zeros(ctx.n_nodes, dtype=bool)

    def act(self, round_index: int) -> RoundPlan:
        listen = self.wave_distance < 0
        transmit = ~listen & ~self.pulse_sent & (round_index >= self.wave_distance)
        self.pulse_sent |= transmit
        return RoundPlan(transmit=transmit, listen=listen)

    def on_feedback(self, round_index: int, channel: ChannelRound) -> None:
        beep = channel.clean | channel.collided if self.collision_detection else channel.clean
        newly = beep & (self.wave_distance < 0)
        self.wave_distance[newly] = round_index + 1

    def done(self) -> bool:
        return bool(self.pulse_sent.all())

    def done_rows(self, rows: int) -> np.ndarray:
        return np.asarray(self.pulse_sent.reshape(rows, -1).all(axis=1))

    def wave_distances(self) -> tuple[int, ...]:
        """Per-node learned distances as plain ints (-1 where unreached)."""
        return tuple(self.wave_distance.tolist())

    def unsynchronized(self) -> tuple[int, ...]:
        """Nodes the wave never reached."""
        return tuple(np.nonzero(self.wave_distance < 0)[0].tolist())


class MultiMessageProtocol(BroadcastProtocol):
    """Per-node state machine of the k-message pipelined broadcast.

    The source starts holding all ``k`` messages; every other node
    collects them one clean receipt at a time.  Transmissions carry
    ``(index, payload, want)`` triples, ``want`` being the transmitter's
    lowest missing index (-1 once complete).  ``k_messages=1`` is
    single-message GHK: the source backs off like every holder, and a
    holder sleeps outside its transmissions, since nobody can miss
    anything it could request.
    """

    def __init__(self, message: Any = "broadcast", k_messages: int = 1) -> None:
        super().__init__(message)
        # The sentinel marks a *content-free* pulse; a broadcast whose
        # payload is the sentinel could never be recognised as delivered.
        if message is WAVE_PULSE:
            raise ConfigurationError(
                "WAVE_PULSE is reserved for synchronization pulses and "
                "cannot be the broadcast message"
            )
        if not isinstance(k_messages, int) or isinstance(k_messages, bool) or k_messages < 1:
            raise ConfigurationError(f"k_messages must be a positive integer, got {k_messages!r}")
        self.k_messages = k_messages

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        if not ctx.collision_detection:
            raise ConfigurationError(
                "MultiMessageProtocol requires collision detection: without it "
                "the synchronization beep wave stalls at the first contended hop"
            )
        self.backoff_slots = ctx.params.ghk_backoff_slots(ctx.n_bound)
        k = self.k_messages
        #: which of the k messages this node holds.
        self.known: list[bool] = [ctx.is_source] * k
        #: held payloads by message index (``None`` until received).
        self.payloads: list[Any] = [
            self._injected_message if ctx.is_source else None for _ in range(k)
        ]
        #: per-message arrival round (0 for the source, None while missing).
        self.message_rounds: list[int | None] = [0 if ctx.is_source else None] * k
        #: holds all k messages — the broadcast completion predicate.
        self.informed = ctx.is_source
        self.informed_round: int | None = 0 if ctx.is_source else None
        #: BFS layer, learned when the sync wave arrives (0 for the source).
        self.wave_distance: int | None = 0 if ctx.is_source else None
        self._pulse_sent = False
        self._slots_contended = 0
        #: how many times this node has transmitted each message.
        self._send_count: list[int] = [0] * k
        #: held messages some overheard neighbour announced it was missing.
        self._requested: list[bool] = [False] * k

    def _lowest_missing(self) -> int:
        """The piggybacked request: lowest missing index, -1 when complete."""
        for index, held in enumerate(self.known):
            if not held:
                return index
        return -1

    def _next_held(self, round_index: int) -> int:
        """Requested-first, least-sent-first selection (caller holds >= 1).

        Candidates are the held-and-requested messages with the minimal
        send count, or the held messages with the minimal send count when
        nothing is requested; ties break uniformly at random (one coin,
        drawn only when there are >= 2 candidates).  The transmission is
        counted; the request flag survives until observably served.
        """
        pool = [
            index
            for index, (held, req) in enumerate(zip(self.known, self._requested))
            if held and req
        ]
        if not pool:
            pool = [index for index, held in enumerate(self.known) if held]
        least = min(self._send_count[index] for index in pool)
        candidates = [index for index in pool if self._send_count[index] == least]
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            coin = self.ctx.coin(Purpose.TIE_BREAK, round_index)
            chosen = candidates[int(coin * len(candidates))]
        self._send_count[chosen] += 1
        return chosen

    def _transmit_payload(self, index: int) -> tuple[int, Any, int]:
        return (index, self.payloads[index], self._lowest_missing())

    def act(self, round_index: int) -> Action:
        if self.wave_distance is None:
            return Action.listen()
        if not self._pulse_sent and round_index >= self.wave_distance:
            # Relay the wave exactly once, piggybacking a held message.
            self._pulse_sent = True
            if not any(self.known):
                return Action.transmit(WAVE_PULSE)
            return Action.transmit(self._transmit_payload(self._next_held(round_index)))
        holds_any = any(self.known)
        if holds_any and in_layer_slot(round_index, self.wave_distance, WAVE_SPACING):
            if self.ctx.is_source and self.k_messages > 1:
                # Layer 0 is a singleton: the source pumps without a coin.
                return Action.transmit(self._transmit_payload(self._next_held(round_index)))
            j = self._slots_contended % self.backoff_slots
            self._slots_contended += 1
            if self.ctx.coin(Purpose.BACKOFF, round_index) < 2.0 ** (-j):
                return Action.transmit(self._transmit_payload(self._next_held(round_index)))
        # Listen whenever not transmitting; with one message a holder has
        # nothing left to hear.
        if holds_any and self.k_messages == 1:
            return Action.sleep()
        return Action.listen()

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        if self.wave_distance is None:
            if is_beep(feedback):
                self.wave_distance = feedback.round_index + 1
            else:
                return
        if feedback.kind is not FeedbackKind.MESSAGE or feedback.message is WAVE_PULSE:
            return
        index, payload, want = feedback.message
        if not self.known[index]:
            self.known[index] = True
            self.payloads[index] = payload
            self.message_rounds[index] = round_index
            if all(self.known):
                self.informed = True
                self.informed_round = round_index
        # The heard message was just delivered nearby: its request is served.
        self._requested[index] = False
        if want >= 0:
            # The transmitter holds everything below its want, so those
            # requests are settled; the want itself is live demand.
            for i in range(want):
                self._requested[i] = False
            if self.known[want]:
                self._requested[want] = True
