"""The runtime sanitizer harness: per-round invariant checking for engines.

A :class:`Sanitizer` is attached by an
:class:`~repro.sim.core.batch.ArrayEngine` when the run opts in
(``sanitize=True``, or ``REPRO_SANITIZE=1`` in the environment) and is
invoked from the engine's round hooks:

* at plan time — kernel-boundary contracts (mask dtypes/shapes, the
  half-duplex disjointness precondition, crashed radios forced off);
* at channel time, on the **raw** kernel output before fault perception —
  operand size consistency plus the differential backend check
  (:mod:`repro.analysis.simsan.differential`), which recomputes the round
  on a reference :class:`~repro.sim.core.channel.DenseOperand` and
  compares bitwise;
* after counters — the engine's streaming traffic counters against an
  independently accumulated shadow copy, and the fault layer's dropped
  receptions against the receptions the round actually offered;
* at result time — the conservation laws of every frozen
  :class:`~repro.sim.core.stats.SimResult`
  (:func:`~repro.sim.core.stats.conservation_violation`).

Every violation raises a structured :class:`~repro.errors.SanitizerError`
carrying the check id, round, seed, backend, and topology — enough for
``python -m repro.analysis.simsan.bisect`` to replay the run and
binary-search differential mismatches to their first divergent round.

The harness holds no reference to the engine; the engine passes each
hook exactly the arrays it is about to act on, so a sanitized run checks
what actually executed, not a parallel reconstruction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.simsan.checks import (
    cache_discipline_violation,
    crashed_plan_violation,
    mask_contract_violation,
)
from repro.analysis.simsan.differential import DifferentialChecker
from repro.errors import SanitizerError
from repro.sim.core.stats import SimResult, conservation_violation
from repro.sim.rng import stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core.array_protocol import RoundPlan
    from repro.sim.core.channel import ChannelRound, KernelOperand
    from repro.sim.faults import FaultState
    from repro.sim.topology import RadioNetwork

__all__ = [
    "CHECKS",
    "CheckInfo",
    "Sanitizer",
    "SanitizerConfig",
    "sanitize_from_env",
]

#: Environment variable that opts whole processes (e.g. a pytest run) into
#: sanitized execution; engines built with ``sanitize=None`` consult it.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: Spawn key of the sanitizer's private sampling stream — domain-separated
#: from the topology generators (keys 1 and 2) and the fault sampler (key
#: 3); the run's own coins are keyed and use no stream, so sampled
#: differential rows never perturb the run under check.
_SANITIZER_STREAM_KEY = 4


def sanitize_from_env(environ: dict[str, str] | None = None) -> bool:
    """Whether ``REPRO_SANITIZE`` opts this process into sanitized runs.

    ``1``/``true``/``yes``/``on`` (case-insensitive) enable; unset, empty,
    ``0``/``false``/``no``/``off`` disable.  The single authoritative
    parser — the engines, the bench-record stamp, and the perf gate all
    call this, so "was the sanitizer on?" has one answer everywhere.
    """
    env = os.environ if environ is None else environ
    value = env.get(SANITIZE_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


@dataclass(frozen=True)
class CheckInfo:
    """One registered sanitizer check: its id and what it asserts."""

    id: str
    description: str


#: The registered check suite; ids are what :class:`SanitizerError.check`
#: carries and what the README's check table documents.
CHECKS: tuple[CheckInfo, ...] = (
    CheckInfo("kernel.mask-shape", "plan masks are boolean vectors of shape (n,)"),
    CheckInfo("kernel.disjoint", "transmit and listen are disjoint (half-duplex)"),
    CheckInfo("kernel.operand-n", "the round's kernel operand matches the network size"),
    CheckInfo("conserve.crash-energy", "crashed nodes neither transmit nor listen"),
    CheckInfo("conserve.traffic", "engine traffic counters equal an independent shadow recount"),
    CheckInfo("conserve.loss-bound", "dropped receptions never exceed the receptions offered"),
    CheckInfo("conserve.energy", "frozen results uphold the totals/energy conservation laws"),
    CheckInfo("cache.readonly", "cached topology arrays are frozen (writeable=False)"),
    CheckInfo("diff.counts", "active-backend neighbour counts match the dense reference"),
    CheckInfo("diff.feedback", "active clean/collided/silent masks match the dense reference"),
    CheckInfo("diff.senders", "active sender ids match the dense reference at clean listeners"),
)


@dataclass(frozen=True)
class SanitizerConfig:
    """Tuning knobs of one sanitized run (the defaults suit tests and CI)."""

    #: run the cross-backend differential check (the expensive family).
    differential: bool = True
    #: up to this many nodes the differential check recomputes the *full*
    #: round on a dense reference operand; above it, sampled rows only.
    full_diff_max_n: int = 2048
    #: listener rows re-derived per round in sampled differential mode.
    diff_sample_rows: int = 64
    #: verify cached topology arrays are frozen at attach time.
    check_caches: bool = True


#: Traffic-accumulator row indices, structurally fixed by the engine's
#: ``(4, n)`` counter layout (transmissions, clean receptions, collisions
#: heard, awake slots).  Redeclared here rather than imported because the
#: engine module imports this one.
_TX, _RX, _COLL, _AWAKE = range(4)
_TRAFFIC_ROWS = ("transmissions", "receptions", "collisions_heard", "awake_slots")


class Sanitizer:
    """Per-engine runtime invariant checker (see module docstring).

    One instance is owned by exactly one engine; the batch engine gives
    each of its per-item engines its own sanitizer, so fused groups are
    checked instance-by-instance on the de-batched rows each instance
    actually consumed.
    """

    def __init__(
        self,
        config: SanitizerConfig,
        *,
        network: "RadioNetwork",
        operand: "KernelOperand",
        seed: int,
    ) -> None:
        self.config = config
        self._n = network.n
        self._seed = seed
        self._backend: str = operand.backend
        self._topology = network.name
        self._shadow = np.zeros((4, network.n), dtype=np.int64)
        self._last_dropped = 0
        self._offered = 0
        self._diff: DifferentialChecker | None = None
        self._diff_version = 0
        if config.check_caches:
            # The dense adjacency is only materialized (and therefore only
            # checked) when this run's backend already built it — freezing
            # checks must not force an n² allocation onto a sparse run.
            problem = cache_discipline_violation(
                network, check_dense=self._backend == "dense"
            )
            if problem is not None:
                self._fail("cache.readonly", problem, round_index=-1)
        if operand.n != network.n:
            self._fail(
                "kernel.operand-n",
                f"kernel operand is sized {operand.n}, network has {network.n} nodes",
                round_index=-1,
            )
        if config.differential:
            indptr, indices = network.csr()
            self._diff = DifferentialChecker(
                indptr,
                indices,
                full_max_n=config.full_diff_max_n,
                sample_rows=config.diff_sample_rows,
                rng=stream(seed, _SANITIZER_STREAM_KEY),
            )

    def _fail(
        self,
        check: str,
        message: str,
        *,
        round_index: int,
        details: dict | None = None,
    ) -> None:
        raise SanitizerError(
            message,
            check=check,
            round_index=round_index,
            seed=self._seed,
            backend=self._backend,
            topology=self._topology,
            details=details,
        )

    # ------------------------------------------------------------------ #
    # Engine hooks, in round order
    # ------------------------------------------------------------------ #
    def on_begin_round(
        self,
        round_index: int,
        plan: "RoundPlan",
        crashed: np.ndarray | None,
    ) -> None:
        """Kernel-boundary contracts of the finalized plan, pre-resolution."""
        finding = mask_contract_violation(self._n, plan.transmit, plan.listen)
        if finding is not None:
            check, message = finding
            self._fail(check, message, round_index=round_index)
        if crashed is not None:
            problem = crashed_plan_violation(plan.transmit, plan.listen, crashed)
            if problem is not None:
                self._fail(
                    "conserve.crash-energy", problem, round_index=round_index
                )

    def on_channel(
        self,
        round_index: int,
        plan: "RoundPlan",
        channel: "ChannelRound",
        operand: "KernelOperand",
        fault_state: "FaultState | None",
    ) -> None:
        """Checks on the raw kernel output, before fault perception."""
        if operand.n != self._n:
            self._fail(
                "kernel.operand-n",
                f"round operand is sized {operand.n}, network has {self._n} nodes",
                round_index=round_index,
            )
        self._offered = int(np.count_nonzero(channel.clean))
        diff = self._diff
        if diff is None:
            return
        if fault_state is not None:
            version = fault_state.adjacency_version
            if version != self._diff_version:
                diff.refresh(*fault_state.current_csr())
                self._diff_version = version
        finding = diff.check(plan.transmit, plan.listen, channel)
        if finding is not None:
            check, message, details = finding
            self._fail(check, message, round_index=round_index, details=details)

    def on_round_complete(
        self,
        round_index: int,
        plan: "RoundPlan",
        channel: "ChannelRound",
        traffic: np.ndarray,
        fault_counters: np.ndarray | None,
    ) -> None:
        """Conservation checks after the engine updated its counters.

        ``channel`` is the *perceived* round (fault rewrites applied) —
        the same masks the engine just accumulated — and ``traffic`` the
        engine's live ``(4, n)`` counter array; the shadow copy here is
        accumulated from the masks independently, so any skew between the
        two (a corrupted counter, a miscounted mask) surfaces with the
        exact round it first appeared.
        """
        shadow = self._shadow
        shadow[_TX] += plan.transmit
        shadow[_RX] += channel.clean
        shadow[_COLL] += channel.collided
        shadow[_AWAKE] += plan.transmit | plan.listen
        if not np.array_equal(shadow, traffic):
            row, node = np.argwhere(shadow != traffic)[0]
            self._fail(
                "conserve.traffic",
                f"{_TRAFFIC_ROWS[int(row)]} counter of node {int(node)} is "
                f"{int(traffic[row, node])}, shadow recount says "
                f"{int(shadow[row, node])}",
                round_index=round_index,
                details={
                    "row": _TRAFFIC_ROWS[int(row)],
                    "node": int(node),
                    "engine": int(traffic[row, node]),
                    "shadow": int(shadow[row, node]),
                },
            )
        if fault_counters is not None:
            dropped = int(fault_counters[0])  # FaultState counter row _DROPPED
            delta = dropped - self._last_dropped
            if delta > self._offered or delta < 0:
                self._fail(
                    "conserve.loss-bound",
                    f"loss dropped {delta} receptions in a round that offered "
                    f"{self._offered}",
                    round_index=round_index,
                    details={"dropped": delta, "offered": self._offered},
                )
            self._last_dropped = dropped

    def on_result(self, round_index: int, result: SimResult) -> None:
        """Conservation laws of a frozen result window."""
        problem = conservation_violation(result)
        if problem is not None:
            self._fail("conserve.energy", problem, round_index=round_index)
