"""Collision-detection broadcast of ``k`` messages over one beep wave.

One protocol covers both of the paper's collision-detection broadcasts.
At ``k = 1`` its bound for ``k`` messages with unknown topology and
collision detection, ``O(D + k log n + log^6 n)``, is its single-message
bound ``O(D + log^6 n)``, and here too single-message broadcast (the
``"ghk"`` spec) is the ``k = 1`` case of the ``k``-message pipeline (the
``"multimessage"`` spec, ``options={"k_messages": k}``).  The paper proves
``O(D + k log n + log^2 n)`` only with *known* topology.  This protocol is
a simplification, not the paper's algorithm: one sync beep wave, then
per-layer Decay in mod-3 slots.  Its round budgets
(:meth:`ProtocolParams.ghk_broadcast_rounds` at ``k = 1`` and
:meth:`ProtocolParams.ghk_multi_message_rounds`) are calibrated formulas
shaped like ``O(D + log^2 n)`` and ``O(D + k log n + log^2 n)``, not
proved bounds: where every hop is contended (a chain of cliques of size
``s``) single-message broadcast measures ``Θ(D log s)`` — see ROADMAP
item 2.  Decay's bound is ``O((D + log n) log n)``.

1. **Wave synchronization.**  With collision detection a listener tells
   *something was sent* from *nothing was sent* even when the something is
   garbled, so a transmission is a **beep**.  The source beeps in round 0
   and every node that hears its first beep in round ``r`` (necessarily
   from hop distance ``r``) relays it once in round ``r + 1``: the wave
   advances one hop per round however many relays collide, and teaches
   every node its BFS layer ``d`` (``wave_distance``).  Without detection a
   collision is silence and the wave stalls wherever two relays overlap,
   so the protocol assumes detecting receivers: it always reads a
   collision as a beep.  A relay holding a message carries it on its
   pulse, so wherever the wavefront is locally uncontended (one relay per
   receiver: paths, rings, bridges, cluster heads) the wave itself
   delivers at one hop per round; a relay holding nothing sends a
   content-free pulse.

2. **Layered slot schedule, one message per owned slot.**  After the wave,
   layer ``d`` owns round ``t`` iff ``t ≡ d (mod 3)``
   (:data:`~repro.params.WAVE_SPACING`).  With that period a listener in
   layer ``d + 1`` only ever hears layer-``d`` transmitters in layer
   ``d``'s slots, so the schedule removes all cross-layer collisions and
   progress pipelines at one slot per hop instead of one ``Θ(log n)``
   Decay phase per hop.  Within a layer, a node holding at least one
   message resolves the residual contention with decay backoff: it
   transmits with probability ``2^-(j mod B)`` in its ``j``-th owned
   slot, ``B = Θ(log n)``
   (:meth:`ProtocolParams.ghk_backoff_slots`), so some slot has roughly one
   expected transmitter whatever the layer's population.  When its coin
   fires it transmits **one** message: the held message it has transmitted
   the *fewest* times so far, breaking ties uniformly at random.
   Least-sent-first is what makes the pipeline pay: a freshly received
   message preempts everything the node has already forwarded, so in
   steady state nearly every firing pushes the frontier, while older
   messages still recycle once counts equalize — a receiver that lost a
   transmission to a same-layer collision gets it again.  Blind
   round-robin over held messages would instead spend only ``1/k`` of each
   hop's firings usefully, degrading the whole broadcast to ``Ω(k^2)``;
   and a *deterministic* tie-break would synchronize every saturated node
   onto the same resend cycle, making a receiver that missed one message
   wait a full ``k``-cycle for every neighbour to come back around
   simultaneously.  Different messages stream through the layer schedule
   back to back — message ``m+1`` does not wait for message ``m`` to
   finish its ``D``-round journey, which is what lets ``k`` messages cost
   less than ``k`` sequential single-message broadcasts.

3. **Source pumping** (``k > 1``).  The source transmits in every owned
   slot without a coin: layer 0 is a singleton by definition (only the
   source is at distance 0), so there is no contention to back off from,
   and probabilistic injection would otherwise cap the whole broadcast at
   one message per ``WAVE_SPACING / E[2^-j]`` rounds regardless of ``k``.
   With one message that cap does not bind, and the source backs off like
   every other holder.

4. **Piggybacked requests** (``k > 1``).  Every data transmission carries,
   besides its payload, the transmitter's lowest *missing* message index
   (``-1`` once it holds everything).  Any holder of that message that
   overhears the request — settled nodes listen whenever they are not
   transmitting — marks it *requested*, and selection serves requested
   messages first (least-sent-first within each class).  A request
   persists until it is *observably* served — the holder hears that
   message delivered cleanly nearby, or hears a ``want`` that moved past
   it (the want is the lowest missing index, so everything below it is
   demonstrably held) — rather than being consumed by the holder's own
   transmission, which under a synchronized decay cycle would burn the
   flag on the early collided slots and leave the productive singleton
   slot carrying a random duplicate.  Stale flags are harmless: live
   requesters re-announce with every firing.  This is the radio-native
   cure for the duplicate problem that otherwise dominates for large
   ``k``: blind senders near saturation deliver a novel message only once
   per ``~k`` receipts (a coupon-collector tail), while a piggybacked
   request turns the straggler's wait into one round trip through its own
   layer slot.  Requests are a priority boost, never a mute, so no
   receiver can be starved by a wrong or stale request.  With one message
   every carrier holds everything, so there is nothing to request, and a
   settled node listens only while it holds nothing.

Messages travel as ``(index, payload, want)`` triples so a receiver can
tell which of the ``k`` messages a clean receipt carries (the index plays
the role of the sequence tag any real multi-message protocol attaches,
and ``want`` is the piggybacked request).  A node is *informed* once it
holds **all** ``k`` messages — the completion predicate the batch engine
shares with Decay.

:class:`MultiMessageArrayProtocol` runs the whole network at once; the
per-node reference form the tests keep reproduces it coin for coin.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.params import WAVE_SPACING
from repro.sim.core.array_protocol import (
    ArrayContext,
    BroadcastArrayProtocol,
    CoinDeck,
    RoundPlan,
)
from repro.sim.core.channel import ChannelRound

__all__ = ["MultiMessageArrayProtocol"]


def _check_k(k_messages: Any) -> int:
    if not isinstance(k_messages, int) or isinstance(k_messages, bool) or k_messages < 1:
        raise ConfigurationError(
            f"k_messages must be a positive integer, got {k_messages!r}"
        )
    return k_messages


class MultiMessageArrayProtocol(BroadcastArrayProtocol):
    """Whole-network k-message broadcast as array state.

    Relay pulses take precedence over layer slots, exactly one backoff
    coin is drawn per owned slot of a node holding >= 1 message (except
    the pumping source when ``k > 1``), and least-sent-first selection
    (``k > 1``) bumps send counts only on an actual transmission.  The source starts
    holding all ``k`` messages; ``k_messages=1`` is single-message GHK.
    """

    name = "multimessage"
    node_state = (
        "informed",
        "informed_round",
        "known",
        "message_round",
        "wave_distance",
        "_wave_phase",
        "_holds_any",
        "_pulse_sent",
        "_slots_contended",
        "_send_count",
        "_requested",
        "_coins",
        "_tx_index",
        "_tx_want",
    )

    def __init__(self, k_messages: int = 1) -> None:
        self.k_messages = _check_k(k_messages)

    def fusion_key(self) -> Hashable | None:
        key = super().fusion_key()
        return None if key is None else (key, self.k_messages)

    def setup(self, ctx: ArrayContext) -> None:
        super().setup(ctx)
        self.backoff_slots = ctx.params.ghk_backoff_slots(ctx.n_bound)
        self._init_broadcast_state(ctx)  # informed == "holds all k messages"
        n, k = ctx.n_nodes, self.k_messages
        # Per-message bookkeeping (arrival rounds, send counts, requests)
        # is read only when k > 1; at k = 1 it has zero columns, keeping
        # the node axis that fusion and compaction index.
        per_message = k if k > 1 else 0
        self.known = np.zeros((n, k), dtype=bool)
        self.known[ctx.source, :] = True
        self.message_round = np.full((n, per_message), -1, dtype=np.int64)
        self.message_round[ctx.source, :] = 0
        self.wave_distance = np.full(n, -1, dtype=np.int64)
        self.wave_distance[ctx.source] = 0
        #: ``wave_distance % WAVE_SPACING`` (-1 while unsynced), set with it.
        self._wave_phase = self.wave_distance.astype(np.int8)
        #: ``known.any(axis=1)``, kept up to date on every fresh receipt.
        self._holds_any = self.known.any(axis=1)
        self._pulse_sent = np.zeros(n, dtype=bool)
        self._slots_contended = np.zeros(n, dtype=np.int64)
        self._send_count = np.zeros((n, per_message), dtype=np.int64)
        self._requested = np.zeros((n, per_message), dtype=bool)
        self._coins = CoinDeck(ctx.streams)
        #: which message index each transmitter carries in the round being
        #: resolved (-1 for a content-free pulse); receivers index it by
        #: sender id.
        self._tx_index = np.full(n, -1, dtype=np.int64)
        #: each payload carrier's piggybacked request in the round being
        #: resolved (-1 = missing nothing; stale where ``_tx_index`` is -1);
        #: receivers index it by sender id.
        self._tx_want = np.full(n if k > 1 else (n, 0), -1, dtype=np.int64)

    def act(self, round_index: int) -> RoundPlan:
        r = round_index
        pipelined = self.k_messages > 1
        unsynced = self.wave_distance < 0
        relay = ~unsynced & ~self._pulse_sent & (r >= self.wave_distance)
        self._pulse_sent |= relay
        settled = ~unsynced & ~relay
        holds_any = self._holds_any
        transmit = relay.copy()
        self._tx_index.fill(-1)
        relayers = np.nonzero(relay & holds_any)[0]
        if relayers.size:
            self._load(relayers)
        # Layer slots: r > d and r ≡ d (mod WAVE_SPACING); unsynced rows hold -1
        # but are masked out by `settled`.
        slot = (
            settled
            & holds_any
            & (r > self.wave_distance)
            & (self._wave_phase == r % WAVE_SPACING)
        )
        if pipelined:
            # Layer 0 is the source alone (no other node learns distance 0):
            # it pumps without a coin.
            sources = np.flatnonzero(slot & (self.wave_distance == 0))
            if sources.size:
                slot[sources] = False
                transmit[sources] = True
                self._load(sources)
        owners = np.nonzero(slot)[0]
        if owners.size:
            j = self._slots_contended[owners] % self.backoff_slots
            self._slots_contended[owners] += 1
            fire = self._coins.draw(owners) < np.power(2.0, -j.astype(np.float64))
            firing = owners[fire]
            if firing.size:
                transmit[firing] = True
                self._load(firing)
        # Listen whenever not transmitting: missing messages may arrive from
        # any neighbouring layer, and overheard requests steer selection.
        # With one message a holder has nothing left to hear.
        listen = unsynced | (settled & ~(transmit if pipelined else holds_any))
        return RoundPlan(transmit=transmit, listen=listen)

    def _load(self, nodes: np.ndarray) -> None:
        """Put one held message and the piggybacked request on each transmitter.

        Selection is per-node requested-first, least-sent, random ties: the
        pool is each node's held-and-requested messages, falling back to
        all held messages when nothing is requested; candidates are the
        pool entries with the minimal send count; a node with >= 2
        candidates draws one tie-break coin from its private stream (nodes
        with a unique candidate draw nothing, so ``k_messages=1`` draws no
        selection coins at all).  The chosen transmissions are tallied;
        request flags survive until observably served (see module
        docstring).  The request is the node's lowest missing index, -1 for
        a node holding everything.
        """
        if self.k_messages == 1:
            # One message: nothing to choose or request, so send counts and
            # requests are never read.
            self._tx_index[nodes] = 0
            return
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
        self._tx_index[nodes] = chosen
        self._tx_want[nodes] = np.where(self.informed[nodes], -1, np.argmax(~held, axis=1))

    def on_feedback(self, round_index: int, channel: ChannelRound) -> None:
        r = round_index
        # Beep: any non-silent outcome (collision detection is guaranteed
        # by setup), fixing the layer of every first-time hearer.
        beep = channel.clean | channel.collided
        newly_synced = beep & (self.wave_distance < 0)
        self.wave_distance[newly_synced] = r + 1
        self._wave_phase[newly_synced] = (r + 1) % WAVE_SPACING
        # Message receipt: a clean transmission carrying a payload index.
        heard = np.flatnonzero(channel.clean)
        heard_indices = self._tx_index[channel.senders[heard]]
        receipt = heard_indices >= 0
        if not receipt.any():
            return
        receivers, indices = heard[receipt], heard_indices[receipt]
        fresh = ~self.known[receivers, indices]
        fresh_receivers, fresh_indices = receivers[fresh], indices[fresh]
        if fresh_receivers.size:
            self.known[fresh_receivers, fresh_indices] = True
            if self.k_messages > 1:
                self.message_round[fresh_receivers, fresh_indices] = r
            self._holds_any[fresh_receivers] = True
            completed = fresh_receivers[self.known[fresh_receivers].all(axis=1)]
            if completed.size:
                self.informed[completed] = True
                self.informed_round[completed] = r
        if self.k_messages == 1:
            return  # one message: nothing is ever requested
        # The heard message was just delivered in each receiver's
        # neighbourhood: its request, if any, is served.
        self._requested[receivers, indices] = False
        # Overheard wants: everything below a want is demonstrably held by
        # the transmitter, so those requests are settled; the want itself
        # is live demand for receivers that hold it.
        wants = self._tx_want[channel.senders[receivers]]
        columns = np.arange(self.k_messages, dtype=np.int64)
        self._requested[receivers] &= columns[None, :] >= wants[:, None]
        wanted = wants >= 0
        want_receivers, want_indices = receivers[wanted], wants[wanted]
        holds_want = self.known[want_receivers, want_indices]
        self._requested[want_receivers[holds_want], want_indices[holds_want]] = True

    def result_fields(self) -> dict[str, Any]:
        # Per-node BFS layers (-1 where the wave never arrived) and, for
        # k > 1, per-node tuples of per-message arrival rounds (-1 while
        # missing); at k = 1 those only repeat ``informed_rounds``.
        fields: dict[str, Any] = {"wave_distances": tuple(self.wave_distance.tolist())}
        if self.k_messages > 1:
            fields["message_rounds"] = tuple(
                tuple(row) for row in self.message_round.tolist()
            )
        return fields

