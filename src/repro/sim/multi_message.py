"""k-message broadcast with collision detection, pipelined over beep waves.

The paper proves ``O(D + k log n + log^2 n)`` rounds for ``k`` messages
only with *known* topology; with unknown topology and collision detection
(this simulator's setting) its bound is ``O(D + k log n + log^6 n)``.
This protocol is a simplification, not the paper's algorithm: it
pipelines ``k`` distinct messages through the same two mechanisms the
single-message GHK broadcast uses (:mod:`repro.sim.ghk_broadcast`: one
sync beep wave, then per-layer Decay in mod-3 slots).  Its round budget
(:meth:`ProtocolParams.ghk_multi_message_rounds`) is a calibrated formula
shaped like ``O(D + k log n + log^2 n)``, not a proved bound; see ROADMAP
item 2 for the contended clique-chain case, where single-message GHK
measures ``Θ(D log s)``.

1. **Wave synchronization.**  One beep wave sweeps the network in ``D``
   rounds and teaches every node its BFS layer; relay pulses piggyback a
   held message, so uncontended stretches of the wavefront already start
   delivering payload at one hop per round.

2. **Layered slot schedule, one message per owned slot.**  After the wave,
   layer ``d`` owns round ``t`` iff ``t ≡ d (mod wave_spacing)``, which
   removes all cross-layer collisions.  A node holding at least one
   message contends for each of its owned slots with the usual decay
   backoff (transmit with probability ``2^-(j mod B)`` in its ``j``-th
   owned slot, ``B = Θ(log n)``); when its coin fires it transmits **one**
   message: the held message it has transmitted the *fewest* times so far,
   breaking ties uniformly at random.  Least-sent-first is what makes the
   pipeline pay: a freshly received message preempts everything the node
   has already forwarded, so in steady state nearly every firing pushes
   the frontier, while older messages still recycle once counts equalize —
   a receiver that lost a transmission to a same-layer collision gets it
   again.  Blind round-robin over held messages would instead spend only
   ``1/k`` of each hop's firings usefully, degrading the whole broadcast
   to ``Ω(k^2)``; and a *deterministic* tie-break would synchronize every
   saturated node onto the same resend cycle, making a receiver that
   missed one message wait a full ``k``-cycle for every neighbour to come
   back around simultaneously.  Different messages stream through the layer
   schedule back to back — message ``m+1`` does not wait for message
   ``m`` to finish its ``D``-round journey, which is what lets ``k``
   messages cost less than ``k`` sequential single-message broadcasts.

3. **Source pumping.**  The source transmits in every owned slot without a
   coin: layer 0 is a singleton by definition (only the source is at
   distance 0), so there is no contention to back off from, and
   probabilistic injection would otherwise cap the whole broadcast at one
   message per ``wave_spacing / E[2^-j]`` rounds regardless of ``k``.

4. **Piggybacked requests.**  Every data transmission carries, besides its
   payload, the transmitter's lowest *missing* message index (``-1`` once
   it holds everything).  Any holder of that message that overhears the
   request — settled nodes listen whenever they are not transmitting —
   marks it *requested*, and selection serves requested messages first
   (least-sent-first within each class).  A request persists until it is
   *observably* served — the holder hears that message delivered cleanly
   nearby, or hears a ``want`` that moved past it (the want is the lowest
   missing index, so everything below it is demonstrably held) — rather
   than being consumed by the holder's own transmission, which under a
   synchronized decay cycle would burn the flag on the early collided
   slots and leave the productive singleton slot carrying a random
   duplicate.  Stale flags are harmless: live requesters re-announce with
   every firing.  This is the radio-native cure for the duplicate problem
   that otherwise dominates for large ``k``: blind senders near saturation
   deliver a novel message only once per ``~k`` receipts (a
   coupon-collector tail), while a piggybacked request turns the
   straggler's wait into one round trip through its own layer slot.
   Requests are a priority boost, never a mute, so no receiver can be
   starved by a wrong or stale request.

Messages travel as ``(index, payload, want)`` triples so a receiver can
tell which of the ``k`` messages a clean receipt carries (the index plays
the role of the sequence tag any real multi-message protocol attaches,
and ``want`` is the piggybacked request); the
:data:`~repro.sim.beepwave.WAVE_PULSE` sentinel still marks a content-free
pulse.  A node is *informed* once it holds **all** ``k`` messages — the
completion predicate the batch engine shares with the single-message
protocols.

:class:`MultiMessageArrayProtocol` runs the whole network at once; drive
it with ``run_broadcast("multimessage", ..., options={"k_messages": k})``.
The per-node reference form the tests keep reproduces it coin for coin.
The protocol requires collision detection (the wave stalls without it).
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.beepwave import WAVE_PULSE
from repro.sim.core.array_protocol import (
    ArrayContext,
    BroadcastArrayProtocol,
    CoinDeck,
    RoundPlan,
    register_array_protocol,
)
from repro.sim.core.channel import ChannelRound
from repro.sim.runners import BroadcastSpec, register_broadcast_spec

__all__ = ["MultiMessageArrayProtocol"]


def _check_message_and_k(message: Any, k_messages: Any) -> int:
    if message is WAVE_PULSE:
        raise ConfigurationError(
            "WAVE_PULSE is reserved for synchronization pulses and cannot be "
            "the broadcast message"
        )
    if not isinstance(k_messages, int) or isinstance(k_messages, bool) or k_messages < 1:
        raise ConfigurationError(
            f"k_messages must be a positive integer, got {k_messages!r}"
        )
    return k_messages


@register_array_protocol("multimessage")
class MultiMessageArrayProtocol(BroadcastArrayProtocol):
    """Whole-network k-message broadcast as array state.

    Relay pulses take precedence over layer slots, exactly one backoff
    coin is drawn per owned slot of a node holding >= 1 message, and
    least-sent-first selection bumps send counts only on an actual
    transmission.  The source starts holding all ``k`` messages; with
    ``k_messages=1`` the protocol reproduces GHK slot for slot and coin
    for coin.
    """

    node_state = (
        "informed",
        "informed_round",
        "known",
        "message_round",
        "wave_distance",
        "_pulse_sent",
        "_slots_contended",
        "_send_count",
        "_requested",
        "_coins",
        "_tx_index",
        "_tx_want",
    )

    def __init__(self, message: Any = "broadcast", k_messages: int = 1) -> None:
        super().__init__(message)
        self.k_messages = _check_message_and_k(message, k_messages)

    def fusion_key(self) -> Hashable | None:
        key = super().fusion_key()
        return None if key is None else (key, self.k_messages)

    def setup(self, ctx: ArrayContext) -> None:
        super().setup(ctx)
        if not ctx.collision_detection:
            raise ConfigurationError(
                "MultiMessageArrayProtocol requires collision detection: without "
                "it the synchronization beep wave stalls at the first contended hop"
            )
        self.spacing = ctx.params.wave_spacing
        self.backoff_slots = ctx.params.ghk_backoff_slots(ctx.n_bound)
        self._init_broadcast_state(ctx)  # informed == "holds all k messages"
        n, k = ctx.n_nodes, self.k_messages
        self.known = np.zeros((n, k), dtype=bool)
        self.known[ctx.source, :] = True
        self.message_round = np.full((n, k), -1, dtype=np.int64)
        self.message_round[ctx.source, :] = 0
        self.wave_distance = np.full(n, -1, dtype=np.int64)
        self.wave_distance[ctx.source] = 0
        self._pulse_sent = np.zeros(n, dtype=bool)
        self._slots_contended = np.zeros(n, dtype=np.int64)
        self._send_count = np.zeros((n, k), dtype=np.int64)
        self._requested = np.zeros((n, k), dtype=bool)
        self._coins = CoinDeck(ctx.streams)
        #: which message index each transmitter carries in the round being
        #: resolved (-1 for a content-free pulse); receivers index it by
        #: sender id.
        self._tx_index = np.full(n, -1, dtype=np.int64)
        #: each transmitter's piggybacked request in the round being
        #: resolved (-1 = missing nothing); receivers index it by sender id.
        self._tx_want = np.full(n, -1, dtype=np.int64)

    def act(self, round_index: int) -> RoundPlan:
        r = round_index
        unsynced = self.wave_distance < 0
        relay = ~unsynced & ~self._pulse_sent & (r >= self.wave_distance)
        self._pulse_sent |= relay
        settled = ~unsynced & ~relay
        holds_any = self.known.any(axis=1)
        transmit = relay.copy()
        self._tx_index.fill(-1)
        relayers = np.nonzero(relay & holds_any)[0]
        if relayers.size:
            self._tx_index[relayers] = self._select_least_sent(relayers)
        # Layer slots: r > d and r ≡ d (mod spacing); unsynced rows hold -1
        # but are masked out by `settled`.
        slot = (
            settled
            & holds_any
            & (r > self.wave_distance)
            & ((r - self.wave_distance) % self.spacing == 0)
        )
        # Layer 0 is the source alone (no other node learns distance 0):
        # it pumps without a coin.
        sources = np.flatnonzero(slot & (self.wave_distance == 0))
        if sources.size:
            slot[sources] = False
            transmit[sources] = True
            self._tx_index[sources] = self._select_least_sent(sources)
        owners = np.nonzero(slot)[0]
        if owners.size:
            j = self._slots_contended[owners] % self.backoff_slots
            self._slots_contended[owners] += 1
            fire = self._coins.draw(owners) < np.power(2.0, -j.astype(np.float64))
            firing = owners[fire]
            if firing.size:
                transmit[firing] = True
                self._tx_index[firing] = self._select_least_sent(firing)
        # Piggyback each payload carrier's lowest missing index.
        self._tx_want.fill(-1)
        carriers = np.nonzero(self._tx_index >= 0)[0]
        if carriers.size:
            missing = ~self.known[carriers]
            self._tx_want[carriers] = np.where(
                missing.any(axis=1), np.argmax(missing, axis=1), -1
            )
        # Listen whenever not transmitting: missing messages may arrive from
        # any neighbouring layer, and overheard requests steer selection.
        listen = unsynced | (settled & ~transmit)
        return RoundPlan(transmit=transmit, listen=listen)

    def _select_least_sent(self, nodes: np.ndarray) -> np.ndarray:
        """Per-node requested-first, least-sent selection, random ties, counted.

        The pool is each node's held-and-requested messages, falling back to all held messages when
        nothing is requested; candidates are the pool entries with the
        minimal send count; a node with >= 2 candidates draws one tie-break
        coin from its private stream (nodes with a unique candidate draw
        nothing, so ``k_messages=1`` draws no selection coins at all).  The
        chosen transmissions are tallied; request flags survive until
        observably served (see module docstring).
        """
        held = self.known[nodes]
        requested = held & self._requested[nodes]
        pool = np.where(requested.any(axis=1)[:, None], requested, held)
        masked = np.where(
            pool, self._send_count[nodes], np.iinfo(np.int64).max
        )
        candidates = masked == masked.min(axis=1, keepdims=True)
        num_candidates = candidates.sum(axis=1)
        pick = np.zeros(nodes.size, dtype=np.int64)
        tied = num_candidates > 1
        if tied.any():
            coins = self._coins.draw(nodes[tied])
            pick[tied] = (coins * num_candidates[tied]).astype(np.int64)
        # The pick-th candidate column per row: first column where the
        # candidate cumulative count exceeds pick.
        chosen = np.argmax(candidates.cumsum(axis=1) > pick[:, None], axis=1)
        self._send_count[nodes, chosen] += 1
        return chosen

    def on_feedback(self, round_index: int, channel: ChannelRound) -> None:
        r = round_index
        # Beep: any non-silent outcome (collision detection is guaranteed
        # by setup), fixing the layer of every first-time hearer.
        beep = channel.clean | channel.collided
        newly_synced = beep & (self.wave_distance < 0)
        self.wave_distance[newly_synced] = r + 1
        # Message receipt: a clean transmission carrying a payload index.
        receipt = channel.clean & (self._tx_index[channel.senders] >= 0)
        receivers = np.nonzero(receipt)[0]
        if not receivers.size:
            return
        senders = channel.senders[receivers]
        indices = self._tx_index[senders]
        fresh = ~self.known[receivers, indices]
        fresh_receivers, fresh_indices = receivers[fresh], indices[fresh]
        if fresh_receivers.size:
            self.known[fresh_receivers, fresh_indices] = True
            self.message_round[fresh_receivers, fresh_indices] = r
            completed = fresh_receivers[self.known[fresh_receivers].all(axis=1)]
            if completed.size:
                self.informed[completed] = True
                self.informed_round[completed] = r
        # The heard message was just delivered in each receiver's
        # neighbourhood: its request, if any, is served.
        self._requested[receivers, indices] = False
        # Overheard wants: everything below a want is demonstrably held by
        # the transmitter, so those requests are settled; the want itself
        # is live demand for receivers that hold it.
        wants = self._tx_want[senders]
        columns = np.arange(self.k_messages, dtype=np.int64)
        self._requested[receivers] &= columns[None, :] >= wants[:, None]
        wanted = wants >= 0
        want_receivers, want_indices = receivers[wanted], wants[wanted]
        holds_want = self.known[want_receivers, want_indices]
        self._requested[want_receivers[holds_want], want_indices[holds_want]] = True

    def result_fields(self) -> dict[str, Any]:
        # Per-node BFS layers (-1 where the wave never arrived) and per-node
        # tuples of per-message arrival rounds (-1 while missing).
        return {
            "wave_distances": tuple(self.wave_distance.tolist()),
            "message_rounds": tuple(tuple(row) for row in self.message_round.tolist()),
        }


MULTI_MESSAGE_SPEC = register_broadcast_spec(
    BroadcastSpec(
        name="multimessage",
        label="k-message GHK",
        array_factory=MultiMessageArrayProtocol,
        budget_for=lambda params, net, bound, options: params.ghk_multi_message_rounds(
            net.eccentricity(), bound, options.get("k_messages", 1)
        ),
        collision_detection=True,
        option_names=frozenset({"k_messages"}),
    )
)
