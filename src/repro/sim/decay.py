"""The Decay single-message broadcast protocol.

Decay (Bar-Yehuda, Goldreich, Itai 1992) is the contention-resolution
primitive the paper builds on: time is divided into phases of
``decay_phase_length`` rounds; at the start of each phase every informed
node becomes *active* and transmits the message, and after each transmission
it stays active for the next round with probability 1/2.  An uninformed
listener with ``d >= 1`` informed neighbours hears exactly one of them in
some round of the phase with constant probability, so running
``Theta(D + log n)`` phases delivers the message to every node w.h.p. —
``O((D + log n) log n)`` rounds in total, the bound the paper's
collision-detection algorithms improve upon.

Nodes that become informed mid-phase stay silent until the next phase
boundary, matching the analysis.  The protocol never uses collision
detection: it reads only clean receipts, so a collision is silence to it.

:class:`DecayArrayProtocol` holds every node's state as arrays and is
driven by the array engines; run it with ``run_broadcast("decay", ...)``.
Each transmitter draws its coin from its own private stream, so the
per-node reference form the tests keep reproduces its traces bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.sim.core.array_protocol import (
    ArrayContext,
    BroadcastArrayProtocol,
    CoinDeck,
    RoundPlan,
)
from repro.sim.core.channel import ChannelRound

__all__ = ["DecayArrayProtocol"]


class DecayArrayProtocol(BroadcastArrayProtocol):
    """Whole-network Decay: all nodes' state as arrays, one act() per round.

    Phase boundaries re-activate every informed node; each transmitter
    then draws one coin per round from its private stream to decide
    whether it stays active for the next round.
    """

    name = "decay"
    node_state = ("informed", "informed_round", "_active", "_coins")

    def setup(self, ctx: ArrayContext) -> None:
        super().setup(ctx)
        self.phase_length = ctx.params.decay_phase_length(ctx.n_bound)
        self._init_broadcast_state(ctx)
        self._active = np.zeros(ctx.n_nodes, dtype=bool)
        self._coins = CoinDeck(ctx.streams)

    def act(self, round_index: int) -> RoundPlan:
        if round_index % self.phase_length == 0:
            np.copyto(self._active, self.informed)
        transmit = self.informed & self._active
        listen = ~self.informed
        transmitters = np.nonzero(transmit)[0]
        if transmitters.size:
            self._active[transmitters] = self._coins.draw(transmitters) < 0.5
        return RoundPlan(transmit=transmit, listen=listen)

    def on_feedback(self, round_index: int, channel: ChannelRound) -> None:
        # Every Decay transmission carries the payload, so any clean receipt
        # informs the listener.
        newly = channel.clean & ~self.informed
        if newly.any():
            self.informed |= newly
            self.informed_round[newly] = round_index

