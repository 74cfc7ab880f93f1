"""The paper's collision-detection broadcast (GHK), built on beep waves.

The protocol layers two mechanisms on the :mod:`repro.sim.beepwave`
primitive to beat Decay's ``O((D + log n) log n)`` bound:

1. **Wave synchronization.**  A single beep wave sweeps the network in
   ``D`` rounds and teaches every node its BFS layer ``d``
   (``wave_distance``).  The source's pulse — and every relay pulse sent
   by a node that already holds the message — carries the *actual
   broadcast message* as its payload, so wherever the wavefront is locally
   uncontended (one relay per receiver: paths, rings, bridges, cluster
   heads) the message is delivered by the wave itself at one hop per
   round.  Only receivers whose pulse arrived as a collision still need
   the second mechanism.

2. **Layered slot schedule with decay backoff.**  After the wave has
   passed, round ``t`` belongs to layer ``d ≡ t (mod wave_spacing)``.
   With a spacing of at least 3, a listener in layer ``d + 1`` can only
   ever hear layer-``d`` transmitters during layer ``d``'s slots — the
   schedule removes *all* cross-layer collisions, which is what lets
   progress pipeline at one slot per hop instead of one ``Θ(log n)``
   Decay phase per hop.  Within a layer, informed nodes resolve residual
   same-layer contention Decay-style: in its ``k``-th owned slot since
   becoming informed, a node transmits the message with probability
   ``2^-(k mod B)`` where ``B = Θ(log n)`` slots
   (:meth:`ProtocolParams.ghk_backoff_slots`), so some slot has roughly
   one expected transmitter no matter the layer's informed population.

This is a simplification of the paper, not its algorithm: one sync beep
wave, then per-layer Decay in mod-3 slots.  The paper proves
``O(D + log^6 n)`` rounds for single-message broadcast with collision
detection (and, for ``k`` messages, ``O(D + k log n + log^2 n)`` with
known topology and ``O(D + k log n + log^6 n)`` with unknown topology and
collision detection).  The round budget
(:meth:`ProtocolParams.ghk_broadcast_rounds`) is a calibrated formula
shaped like ``O(D + log^2 n)``, not the paper's bound, and no bound is
proved for this protocol: where every hop is contended (a chain of
cliques of size ``s``) it measures ``Θ(D log s)`` — see ROADMAP item 2.
Decay's bound is ``O((D + log n) log n)``.

The protocol is *only correct with collision detection* (the wave stalls
without it), so ``run_broadcast("ghk", ...)`` and :class:`GHKArrayProtocol`
reject collision-blind channels with :class:`ConfigurationError`.

:class:`GHKArrayProtocol` runs the whole network at once; the per-node
reference form the tests keep reproduces it coin for coin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.beepwave import WAVE_PULSE
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

__all__ = ["GHKArrayProtocol", "GHKResult"]


@register_array_protocol("ghk")
class GHKArrayProtocol(BroadcastArrayProtocol):
    """Whole-network GHK: wave, layer slots, and backoff as array state.

    Relay pulses take precedence over layer slots, backoff coins are drawn
    only by informed nodes in their owned slots, and a node can learn its
    layer and the message from the same clean pulse.
    """

    node_state = (
        "informed",
        "informed_round",
        "wave_distance",
        "_pulse_sent",
        "_slots_since_informed",
        "_coins",
        "_tx_has_message",
    )

    def __init__(self, message: Any = "broadcast") -> None:
        super().__init__(message)
        if message is WAVE_PULSE:
            raise ConfigurationError(
                "WAVE_PULSE is reserved for synchronization pulses and "
                "cannot be the broadcast message"
            )

    def setup(self, ctx: ArrayContext) -> None:
        super().setup(ctx)
        if not ctx.collision_detection:
            raise ConfigurationError(
                "GHKArrayProtocol requires collision detection: without it "
                "the synchronization beep wave stalls at the first contended hop"
            )
        self.spacing = ctx.params.wave_spacing
        self.backoff_slots = ctx.params.ghk_backoff_slots(ctx.n_bound)
        self._init_broadcast_state(ctx)
        self.wave_distance = np.full(ctx.n_nodes, -1, dtype=np.int64)
        self.wave_distance[ctx.source] = 0
        self._pulse_sent = np.zeros(ctx.n_nodes, dtype=bool)
        self._slots_since_informed = np.zeros(ctx.n_nodes, dtype=np.int64)
        self._coins = CoinDeck(ctx.streams)
        #: which transmitters carried the real message (vs a bare pulse)
        #: in the round being resolved; receivers index it by sender id.
        self._tx_has_message = np.zeros(ctx.n_nodes, dtype=bool)

    def act(self, round_index: int) -> RoundPlan:
        r = round_index
        unsynced = self.wave_distance < 0
        relay = ~unsynced & ~self._pulse_sent & (r >= self.wave_distance)
        self._pulse_sent |= relay
        settled = ~unsynced & ~relay
        transmit = relay.copy()
        # Layer slots: r > d and r ≡ d (mod spacing); unsynced rows hold -1
        # but are masked out by `settled`.
        slot = (
            settled
            & self.informed
            & (r > self.wave_distance)
            & ((r - self.wave_distance) % self.spacing == 0)
        )
        owners = np.nonzero(slot)[0]
        if owners.size:
            k = self._slots_since_informed[owners] % self.backoff_slots
            self._slots_since_informed[owners] += 1
            fire = self._coins.draw(owners) < np.power(2.0, -k.astype(np.float64))
            transmit[owners[fire]] = True
        listen = unsynced | (settled & ~self.informed)
        np.copyto(self._tx_has_message, transmit & self.informed)
        return RoundPlan(transmit=transmit, listen=listen)

    def on_feedback(self, round_index: int, channel: ChannelRound) -> None:
        r = round_index
        # Beep: any non-silent outcome (collision detection is guaranteed
        # by setup), fixing the layer of every first-time hearer.
        beep = channel.clean | channel.collided
        newly_synced = beep & (self.wave_distance < 0)
        self.wave_distance[newly_synced] = r + 1
        # Message receipt: a clean transmission whose sender piggybacked the
        # payload — possibly in the very round the wave arrived.
        newly_informed = (
            channel.clean & ~self.informed & self._tx_has_message[channel.senders]
        )
        if newly_informed.any():
            self.informed |= newly_informed
            self.informed_round[newly_informed] = r

    def wave_distances(self) -> tuple[int, ...]:
        """Per-node BFS layers as plain ints (-1 where the wave never arrived)."""
        return tuple(self.wave_distance.tolist())


@dataclass(frozen=True)
class GHKResult:
    """Outcome of one successful ``run_broadcast("ghk", ...)``."""

    network: str
    n: int
    seed: int
    budget: int
    #: rounds executed until every node was informed.
    rounds_to_delivery: int
    #: per-node round at which the message arrived (0 for the source).
    informed_rounds: tuple[int, ...]
    #: per-node BFS layer as learned from the sync wave.
    wave_distances: tuple[int, ...]
    #: layer-slot reuse period used by this run.
    wave_spacing: int
    sim: SimResult


def _ghk_array_result(run: BroadcastRun) -> GHKResult:
    protocol = run.protocol
    if not isinstance(protocol, GHKArrayProtocol):
        raise SimulationError(
            f"GHK result requested for {type(protocol).__name__}, "
            "not a GHKArrayProtocol run"
        )
    return GHKResult(
        network=run.network.name,
        n=run.network.n,
        seed=run.seed,
        budget=run.budget,
        rounds_to_delivery=run.sim.rounds_run,
        informed_rounds=protocol.informed_rounds(),
        wave_distances=protocol.wave_distances(),
        wave_spacing=run.params.wave_spacing,
        sim=run.sim,
    )


GHK_SPEC = register_broadcast_spec(
    BroadcastSpec(
        name="ghk",
        label="GHK",
        array_factory=GHKArrayProtocol,
        budget_for=lambda params, net, bound, options: params.ghk_broadcast_rounds(
            net.eccentricity(), bound
        ),
        default_collision_detection=True,
        requires_collision_detection=True,
        build_result=_ghk_array_result,
    )
)
