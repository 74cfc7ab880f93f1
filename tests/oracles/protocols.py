"""Per-node reference implementations of the library's four protocols.

Each class here is one node's state machine, written straight from the
paper's per-node rules.  The library implements the same rules once more,
whole-network and vectorized, as the array protocols in
:mod:`repro.sim.decay`, :mod:`repro.sim.beepwave`,
:mod:`repro.sim.ghk_broadcast` and :mod:`repro.sim.multi_message`; see
those modules for the algorithms themselves.  Both forms draw each node's
coins from the same private stream in the same order, so on a shared seed
they must produce bit-for-bit identical traces — which is what the
equivalence tests check.
"""

from __future__ import annotations

from typing import Any

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
from repro.sim.beepwave import WAVE_PULSE

__all__ = [
    "BeepWaveProtocol",
    "DecayProtocol",
    "GHKBroadcastProtocol",
    "MultiMessageProtocol",
]


def _reject_pulse_message(message: Any) -> None:
    # The sentinel marks a *content-free* pulse; a broadcast whose payload
    # is the sentinel could never be recognised as delivered.
    if message is WAVE_PULSE:
        raise ConfigurationError(
            "WAVE_PULSE is reserved for synchronization pulses and "
            "cannot be the broadcast message"
        )


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
        # Stay active next round with probability 1/2 (decide now so the
        # whole phase consumes a deterministic number of coins per node).
        self._active = self.ctx.rng.random() < 0.5
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


class GHKBroadcastProtocol(BroadcastProtocol):
    """Per-node state machine of the collision-detection broadcast."""

    def __init__(self, message: Any = "broadcast") -> None:
        super().__init__(message)
        _reject_pulse_message(message)

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        if not ctx.collision_detection:
            raise ConfigurationError(
                "GHKBroadcastProtocol requires collision detection: without it "
                "the synchronization beep wave stalls at the first contended hop"
            )
        self.spacing = ctx.params.wave_spacing
        self.backoff_slots = ctx.params.ghk_backoff_slots(ctx.n_bound)
        self.informed = ctx.is_source
        self.message: Any = self._injected_message if ctx.is_source else None
        self.informed_round: int | None = 0 if ctx.is_source else None
        #: BFS layer, learned when the sync wave arrives (0 for the source).
        self.wave_distance: int | None = 0 if ctx.is_source else None
        self._pulse_sent = False
        self._slots_since_informed = 0

    def act(self, round_index: int) -> Action:
        if self.wave_distance is None:
            # Waiting for the sync wave; the first beep fixes our layer.
            return Action.listen()
        if not self._pulse_sent and round_index >= self.wave_distance:
            # Relay the wave exactly once; piggyback the message if we have
            # it so uncontended receivers are informed by the wave itself.
            self._pulse_sent = True
            return Action.transmit(self.message if self.informed else WAVE_PULSE)
        if self.informed:
            if in_layer_slot(round_index, self.wave_distance, self.spacing):
                k = self._slots_since_informed % self.backoff_slots
                self._slots_since_informed += 1
                if self.ctx.rng.random() < 2.0 ** (-k):
                    return Action.transmit(self.message)
            return Action.sleep()
        # Uninformed but synchronized: listen everywhere.
        return Action.listen()

    def on_feedback(self, round_index: int, feedback: Feedback) -> None:
        if self.wave_distance is None:
            if is_beep(feedback):
                self.wave_distance = feedback.round_index + 1
            else:
                return
        if (
            not self.informed
            and feedback.kind is FeedbackKind.MESSAGE
            and feedback.message is not WAVE_PULSE
        ):
            self.informed = True
            self.message = feedback.message
            self.informed_round = round_index


class MultiMessageProtocol(BroadcastProtocol):
    """Per-node state machine of the k-message pipelined broadcast.

    The source starts holding all ``k`` messages; every other node
    collects them one clean receipt at a time.  Transmissions carry
    ``(index, payload, want)`` triples, ``want`` being the transmitter's
    lowest missing index (-1 once complete).  Slot-for-slot and
    coin-for-coin, ``k_messages=1`` reproduces :class:`GHKBroadcastProtocol`.
    """

    def __init__(self, message: Any = "broadcast", k_messages: int = 1) -> None:
        super().__init__(message)
        _reject_pulse_message(message)
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
        self.spacing = ctx.params.wave_spacing
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

    def _next_held(self) -> int:
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
            chosen = candidates[int(self.ctx.rng.random() * len(candidates))]
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
            return Action.transmit(self._transmit_payload(self._next_held()))
        if any(self.known) and in_layer_slot(round_index, self.wave_distance, self.spacing):
            if self.ctx.is_source:
                # Layer 0 is a singleton: the source pumps without a coin.
                return Action.transmit(self._transmit_payload(self._next_held()))
            j = self._slots_contended % self.backoff_slots
            self._slots_contended += 1
            if self.ctx.rng.random() < 2.0 ** (-j):
                return Action.transmit(self._transmit_payload(self._next_held()))
        # Listen whenever not transmitting.
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
