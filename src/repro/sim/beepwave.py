"""The beep-wave synchronization layer (Section 2 of the paper).

With collision detection a listening node can tell *something was sent*
apart from *nothing was sent* even when the something is garbled — a
collision is as informative as a clean packet.  That 1-bit channel turns a
transmission into a **beep**, and beeps propagate as a **wave**: the source
beeps in round 0, and every node that detects its first beep in round
``r`` (necessarily from hop distance ``r``) re-beeps in round ``r + 1``.
The wave therefore advances exactly one hop per round, regardless of how
many nodes beep simultaneously, and teaches every node its exact BFS
distance from the source — a distributed round/phase synchronization
primitive that collision-*blind* radios fundamentally lack (without
detection the wave stalls wherever two relays overlap).

The layer exports:

* :data:`WAVE_PULSE` — the sentinel payload of a pure synchronization
  pulse.  Pulses may be transmitted with any payload (receivers that only
  detect a collision never see it), so protocols stacked on the wave are
  free to piggyback real data on their pulses; the sentinel marks a pulse
  that carries none, and the broadcasts reject it as a message.
* :class:`BeepWaveArrayProtocol` / :func:`run_beep_wave` — the
  single-wave protocol on its own, used to test the layer and to measure
  distances.  A beep is any non-silent outcome under collision detection.

:mod:`repro.sim.ghk_broadcast` builds the paper's broadcast on top of the
wave, adding a layered slot schedule: layer ``d`` owns the rounds
``round ≡ d (mod spacing)``, and with a spacing of at least 3 its repeat
slots never collide with the forward wave from layer ``d - 1`` or the
backward echo from layer ``d + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim.core.array_protocol import (
    ArrayContext,
    ArrayProtocol,
    RoundPlan,
    register_array_protocol,
)
from repro.sim.core.batch import ArrayEngine
from repro.sim.core.channel import ChannelRound
from repro.sim.core.stats import SimResult
from repro.sim.topology import RadioNetwork

__all__ = [
    "WAVE_PULSE",
    "BeepWaveArrayProtocol",
    "BeepWaveResult",
    "run_beep_wave",
]


class _WavePulse:
    """Singleton payload of a content-free synchronization pulse."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "WAVE_PULSE"


#: The payload a node transmits when it beeps without data to piggyback.
WAVE_PULSE = _WavePulse()


@register_array_protocol("beepwave")
class BeepWaveArrayProtocol(ArrayProtocol):
    """Propagate one synchronization beep wave and learn BFS distances.

    Every node listens until its first beep, records ``wave_distance`` as
    that round plus one, relays the pulse exactly once in round
    ``wave_distance``, and then sleeps; ``wave_distance == -1`` stands in
    for "not yet reached".  Under collision detection the learned
    distances are the exact BFS layers; without it the wave stalls (or
    detours) wherever two relays collide, which :func:`run_beep_wave`
    lets you demonstrate.  The protocol is coin-free.
    """

    node_state = ("wave_distance", "pulse_sent")

    def setup(self, ctx: ArrayContext) -> None:
        super().setup(ctx)
        self.collision_detection = ctx.collision_detection
        self.wave_distance = np.full(ctx.n_nodes, -1, dtype=np.int64)
        self.wave_distance[ctx.source] = 0
        self.pulse_sent = np.zeros(ctx.n_nodes, dtype=bool)

    def act(self, round_index: int) -> RoundPlan:
        listen = self.wave_distance < 0
        transmit = ~listen & ~self.pulse_sent & (round_index >= self.wave_distance)
        self.pulse_sent |= transmit
        return RoundPlan(transmit=transmit, listen=listen)

    def on_feedback(self, round_index: int, channel: ChannelRound) -> None:
        # The CD beep predicate: anything but silence proves a neighbour
        # transmitted.  Without collision detection a collision is perceived
        # as silence, so only clean receipts count.
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


@dataclass(frozen=True)
class BeepWaveResult:
    """Outcome of one successful :func:`run_beep_wave`."""

    network: str
    n: int
    seed: int
    budget: int
    rounds_run: int
    #: per-node distance learned from the wave (0 for the source).  Equal to
    #: the true BFS layers whenever collision detection is on.
    wave_distances: tuple[int, ...]
    sim: SimResult


def run_beep_wave(
    network: RadioNetwork,
    params: ProtocolParams | None = None,
    *,
    seed: int = 0,
    collision_detection: bool = True,
    n_bound: int | None = None,
    budget: int | None = None,
    trace: bool = False,
) -> BeepWaveResult:
    """Run one synchronization wave from the network's source.

    Runs until every node has learned a distance and relayed the pulse, or
    the round budget (default: the deterministic
    :meth:`ProtocolParams.beepwave_rounds` for the source eccentricity)
    expires, in which case :class:`BroadcastFailure` is raised carrying the
    unsynchronized node set.  Pass ``collision_detection=False`` to watch
    the wave stall on any topology where relays collide.
    """
    params = params if params is not None else ProtocolParams.paper()
    if budget is None:
        budget = params.beepwave_rounds(network.eccentricity())
    protocol = BeepWaveArrayProtocol()
    engine = ArrayEngine(
        network,
        protocol,
        seed=seed,
        collision_detection=collision_detection,
        params=params,
        n_bound=n_bound,
        trace=trace,
    )
    sim = engine.run(budget, stop_when=lambda _: protocol.done())
    unsynced = protocol.unsynchronized()
    if unsynced:
        raise BroadcastFailure(
            f"beep wave on {network.name} (seed={seed}) left {len(unsynced)} of "
            f"{network.n} nodes unsynchronized after {budget} rounds"
            + ("" if collision_detection else " (collision detection was off)"),
            unsynced,
            sim=sim,
            budget=budget,
        )
    return BeepWaveResult(
        network=network.name,
        n=network.n,
        seed=seed,
        budget=budget,
        rounds_run=sim.rounds_run,
        wave_distances=protocol.wave_distances(),
        sim=sim,
    )
