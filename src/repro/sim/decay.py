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
detection, so it behaves identically with and without it.

:class:`DecayArrayProtocol` holds every node's state as arrays and is
driven by the array engines; run it with ``run_broadcast("decay", ...)``.
Each transmitter draws its coin from its own private stream, so the
per-node reference form the tests keep reproduces its traces bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.core.array_protocol import (
    ArrayContext,
    BroadcastArrayProtocol,
    CoinDeck,
    RoundPlan,
    register_array_protocol,
)
from repro.sim.core.channel import ChannelRound
from repro.sim.core.stats import SimResult
from repro.sim.runners import BroadcastRun, BroadcastSpec, register_broadcast_spec

__all__ = ["DecayArrayProtocol", "DecayResult"]


@register_array_protocol("decay")
class DecayArrayProtocol(BroadcastArrayProtocol):
    """Whole-network Decay: all nodes' state as arrays, one act() per round.

    Phase boundaries re-activate every informed node; each transmitter
    then draws one coin per round from its private stream to decide
    whether it stays active for the next round.
    """

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


@dataclass(frozen=True)
class DecayResult:
    """Outcome of one successful ``run_broadcast("decay", ...)``."""

    network: str
    n: int
    seed: int
    budget: int
    #: rounds executed until every node was informed.
    rounds_to_delivery: int
    #: per-node round at which the message arrived (0 for the source).
    informed_rounds: tuple[int, ...]
    #: rounds per Decay phase in this run.
    phase_length: int
    sim: SimResult

    @property
    def phases_to_delivery(self) -> int:
        return -(-self.rounds_to_delivery // self.phase_length)


def _decay_array_result(run: BroadcastRun) -> DecayResult:
    return DecayResult(
        network=run.network.name,
        n=run.network.n,
        seed=run.seed,
        budget=run.budget,
        rounds_to_delivery=run.sim.rounds_run,
        informed_rounds=run.protocol.informed_rounds(),
        phase_length=run.params.decay_phase_length(run.n_bound),
        sim=run.sim,
    )


DECAY_SPEC = register_broadcast_spec(
    BroadcastSpec(
        name="decay",
        label="Decay",
        array_factory=DecayArrayProtocol,
        budget_for=lambda params, net, bound, options: params.decay_broadcast_rounds(
            net.eccentricity(), bound
        ),
        default_collision_detection=False,
        requires_collision_detection=False,
        build_result=_decay_array_result,
    )
)
