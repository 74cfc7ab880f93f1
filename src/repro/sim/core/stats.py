"""Omniscient per-round and per-run statistics records.

These are the ground-truth observables of a simulation — what actually
happened on the channel, independent of what any node could perceive.
Every :class:`~repro.sim.core.batch.ArrayEngine` run emits these record
types, whichever protocol, backend or batch shape produced it, which is
what makes the equivalence suites a plain ``==`` over traces.

Two telemetry records live alongside them:

* :class:`TrafficTotals` — per-node channel-usage counters (transmissions,
  clean receptions, collisions heard, awake slots), the paper's implicit
  cost model made first-class.  Streamed as O(n) counters in the round
  loop, so every run carries them at no asymptotic cost, and
  bitwise-identical across the channel backends (the masks they sum
  are).
* :class:`RunTelemetry` — wall-clock observables (rounds/sec, per-phase
  kernel timers).  Deliberately *not* part of :class:`SimResult`: wall
  time differs between runs that are otherwise bitwise identical, so it
  must never participate in equivalence comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FaultTotals",
    "RoundStats",
    "RunTelemetry",
    "SimResult",
    "TrafficTotals",
    "conservation_violation",
]


@dataclass(frozen=True)
class RoundStats:
    """Omniscient record of one round (ground truth, not node knowledge)."""

    round_index: int
    transmitters: tuple[int, ...]
    #: (receiver, sender) pairs that cleanly received this round.
    deliveries: tuple[tuple[int, int], ...]
    #: listening nodes with >= 2 transmitting neighbours, regardless of
    #: whether the run models collision detection.
    collisions: tuple[int, ...]

    def as_row(self) -> dict:
        """One JSON-ready row — the single serialization of a round.

        Both the demo's prose trace and its ``--json`` trace render this
        row, so the two outputs cannot drift apart.
        """
        return {
            "round": self.round_index,
            "transmitters": list(self.transmitters),
            "deliveries": [list(pair) for pair in self.deliveries],
            "collisions": list(self.collisions),
        }


@dataclass(frozen=True)
class TrafficTotals:
    """Per-node channel-usage totals over one run window.

    The energy model is *awake slots*: a node pays one unit for every
    round it has its radio on (transmitting or listening); sleeping is
    free.  ``awake_slots[v] == transmissions[v] + listening rounds`` since
    radios are half-duplex (transmit and listen are disjoint per round).
    """

    #: rounds in which each node transmitted.
    transmissions: tuple[int, ...]
    #: rounds in which each node cleanly received a message.
    receptions: tuple[int, ...]
    #: rounds in which each node heard >= 2 neighbours (ground truth,
    #: whether or not the run models collision detection).
    collisions_heard: tuple[int, ...]
    #: rounds in which each node had its radio on (energy cost model).
    awake_slots: tuple[int, ...]

    @property
    def energy(self) -> int:
        """Total awake slots across all nodes — the run's energy cost."""
        return sum(self.awake_slots)

    def as_dict(self) -> dict:
        """JSON-ready payload (per-node lists plus the energy total)."""
        return {
            "transmissions": list(self.transmissions),
            "receptions": list(self.receptions),
            "collisions_heard": list(self.collisions_heard),
            "awake_slots": list(self.awake_slots),
            "energy": self.energy,
        }


@dataclass(frozen=True)
class FaultTotals:
    """Injected-fault totals over one run window (see :mod:`repro.sim.faults`).

    Populated only when the run carries a non-empty
    :class:`~repro.sim.faults.FaultSchedule`; fault-free runs keep
    ``SimResult.faults`` as ``None`` so equivalence comparisons against
    schedule-less runs stay a plain ``==``.
    """

    #: clean receptions converted to perceived silence by message loss.
    dropped_receptions: int
    #: listener-rounds spent inside an active jammer's coverage (each one
    #: perceived as a collision).
    jammed_listens: int
    #: node-rounds spent crashed (radio off, no awake slots accrued).
    crashed_node_rounds: int
    #: edge flips applied to the time-varying adjacency.
    edge_flips_applied: int

    def as_dict(self) -> dict:
        return {
            "dropped_receptions": self.dropped_receptions,
            "jammed_listens": self.jammed_listens,
            "crashed_node_rounds": self.crashed_node_rounds,
            "edge_flips_applied": self.edge_flips_applied,
        }


@dataclass(frozen=True)
class RunTelemetry:
    """Wall-clock observables of an engine's execution so far.

    Kept off :class:`SimResult` on purpose: two runs can be bitwise
    identical in every simulation observable yet differ here, so timing
    must never leak into equivalence comparisons.
    """

    #: rounds executed (across all instances, for a batch).
    rounds: int
    #: wall-clock seconds spent inside the engine's run loop.
    wall_seconds: float
    #: seconds per round-loop phase: ``act`` (protocol action collection),
    #: ``channel`` (kernel resolution), ``feedback`` (protocol feedback +
    #: counters).  Their sum is slightly below ``wall_seconds`` (loop
    #: overhead, early-stop predicates).
    phase_seconds: dict[str, float]

    @property
    def rounds_per_sec(self) -> float | None:
        return self.rounds / self.wall_seconds if self.wall_seconds > 0 else None

    def as_dict(self) -> dict:
        rps = self.rounds_per_sec
        return {
            "rounds": self.rounds,
            "wall_seconds": round(self.wall_seconds, 6),
            "rounds_per_sec": round(rps, 1) if rps is not None else None,
            "phase_seconds": {k: round(v, 6) for k, v in self.phase_seconds.items()},
        }


@dataclass(frozen=True)
class SimResult:
    """Outcome of one engine run."""

    rounds_run: int
    stopped_early: bool
    total_transmissions: int
    total_deliveries: int
    total_collisions: int
    #: per-round records; empty unless the engine was built with ``trace=True``.
    history: tuple[RoundStats, ...] = field(default=())
    #: per-node traffic/energy totals; always populated by the engines
    #: (``None`` only on hand-built results).  The scalar totals above are
    #: the sums of these counters by construction.
    traffic: TrafficTotals | None = None
    #: injected-fault totals; ``None`` unless the run carried a non-empty
    #: fault schedule (so fault-free results compare ``==`` regardless of
    #: whether an empty schedule object was attached).
    faults: FaultTotals | None = None


def conservation_violation(result: SimResult) -> str | None:
    """The first conservation law ``result`` violates, or ``None``.

    The laws every engine-built :class:`SimResult` upholds by construction:
    the scalar totals are the sums of the per-node traffic rows, no node
    received or heard more than it had listening slots for (awake minus
    transmissions, radios being half-duplex), and a fully traced window's
    :class:`RoundStats` sum to the same totals.  Kept next to the record
    types so the law definitions cannot drift from them; the runtime
    sanitizer (:mod:`repro.analysis.simsan`) applies this to every frozen
    result under check id ``conserve.energy``.
    """
    traffic = result.traffic
    if traffic is None:
        return None
    pairs = (
        ("total_transmissions", result.total_transmissions, traffic.transmissions),
        ("total_deliveries", result.total_deliveries, traffic.receptions),
        ("total_collisions", result.total_collisions, traffic.collisions_heard),
    )
    for name, scalar, rows in pairs:
        if scalar != sum(rows):
            return f"{name}={scalar} != sum of per-node rows {sum(rows)}"
    for node, (tx, rx, coll, awake) in enumerate(
        zip(
            traffic.transmissions,
            traffic.receptions,
            traffic.collisions_heard,
            traffic.awake_slots,
        )
    ):
        if tx > awake:
            return f"node {node} transmitted {tx} rounds but was awake only {awake}"
        if rx + coll > awake - tx:
            return (
                f"node {node} heard {rx + coll} outcomes in {awake - tx} "
                f"listening slots"
            )
    if result.history and len(result.history) == result.rounds_run:
        tx_sum = sum(len(stats.transmitters) for stats in result.history)
        rx_sum = sum(len(stats.deliveries) for stats in result.history)
        coll_sum = sum(len(stats.collisions) for stats in result.history)
        for name, scalar, traced in (
            ("total_transmissions", result.total_transmissions, tx_sum),
            ("total_deliveries", result.total_deliveries, rx_sum),
            ("total_collisions", result.total_collisions, coll_sum),
        ):
            if scalar != traced:
                return f"{name}={scalar} != traced RoundStats sum {traced}"
    return None
