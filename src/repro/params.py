"""Protocol parameters shared by every algorithm in the library.

The paper states all phase lengths asymptotically (``Θ(log n)`` rounds per
Decay phase, ``Θ(log n)`` layer slots per GHK backoff cycle, ...).  The hidden
constants do not affect the asymptotic claims but completely determine the
wall-clock cost of simulating the protocols, so every one of them is an
explicit, documented knob on :class:`ProtocolParams`.

Two presets are provided:

* :meth:`ProtocolParams.paper` — constants chosen so that the
  with-high-probability lemmas of the paper hold comfortably in simulation
  (this is the default).
* :meth:`ProtocolParams.fast` — small constants used by the test-suite and
  by large benchmark sweeps; the asymptotic *shape* of every experiment is
  unchanged, only the probability of an individual protocol run failing is
  slightly higher.

All quantities are derived from the public upper bound ``n_bound`` on the
network size that every node knows (Section 1.1 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["ProtocolParams", "log2_ceil"]


def log2_ceil(value: int) -> int:
    """Return ``ceil(log2(value))`` for a positive integer, and at least 1.

    The paper uses ``⌈log2 n⌉`` as the basic phase-length unit; for very
    small networks (n <= 2) we clamp to 1 so that phases are never empty.
    """
    if value < 1:
        raise ConfigurationError(f"log2_ceil requires a positive value, got {value}")
    return max(1, math.ceil(math.log2(max(2, value))))


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable constants of the protocols.

    Every factor multiplies the ``⌈log2 n⌉`` base unit (or is a plain
    multiplicative slack) and has a paper-faithful default.
    """

    #: Rounds per Decay phase, as a multiple of ``⌈log2 n⌉`` (paper: exactly 1).
    decay_phase_factor: float = 1.0
    #: Number of Decay phases needed for a w.h.p. guarantee, as a multiple of
    #: ``⌈log2 n⌉`` (paper: Θ(log n)).
    decay_whp_factor: float = 2.0
    #: Multiplicative slack applied to broadcast round budgets, e.g. the
    #: ``λ`` of Lemma 3.3 / Theorem 1.2.
    schedule_slack: float = 4.0
    #: Extra additive rounds granted to every broadcast budget; keeps tiny
    #: instances (D = 0 or 1) from being starved by integer truncation.
    schedule_slack_additive: int = 32
    #: Rounds between successive pipelined beep waves, which is also the
    #: layer-slot reuse period of the collision-detection broadcast.  Must be
    #: >= 3: with period 3 a node can tell its own layer's slot apart from
    #: both the forward wave (layer d-1) and the backward echo (layer d+1),
    #: so waves never interfere (Section 2 of the paper).
    wave_spacing: int = 3
    #: Length of one GHK contention-backoff cycle, in layer slots, as a
    #: multiple of ``⌈log2 n⌉`` (the decay-within-a-layer analogue of a
    #: Decay phase).
    ghk_backoff_factor: float = 1.0
    #: Backoff cycles budgeted per message in the k-message pipeline.  A
    #: dense layer delivers roughly one message per synchronized decay
    #: cycle, and the productive tail of a cycle resolves only a constant
    #: fraction of the time, so the per-message slot cost is a small
    #: constant number of cycles — this is that hidden constant.
    multi_message_pipeline_factor: float = 3.0
    #: Channel-kernel backend: ``"auto"`` picks dense, sparse, or bitpacked
    #: per topology by density threshold and size floors (below);
    #: ``"dense"``/``"sparse"``/``"bitpacked"`` force one path.  The
    #: backends are bitwise-identical on every run (same traces, same round
    #: counts); the choice only affects speed and memory, so it lives here
    #: as an execution knob, not a protocol constant.
    channel_backend: str = "auto"
    #: In ``"auto"`` mode, use the sparse CSR backend when the adjacency
    #: density ``2·edges / n²`` is at or below this threshold; denser graphs
    #: keep the BLAS matmul, which wins when most of the matrix is nonzero.
    sparse_density_threshold: float = 0.25
    #: In ``"auto"`` mode, never go sparse below this network size: small
    #: matmuls are so cheap (especially batched) that the CSR kernel's
    #: fixed per-call overhead (a dozen small numpy calls, ~40–60 µs)
    #: loses even on very sparse graphs.  Measured for the transmitter-
    #: driven CSR kernel with 5% of radios transmitting (grid, gnp and
    #: unit-disk, batch 1 and 8, one 2.1 GHz Xeon vCPU): dense still wins
    #: at n ≤ 256 and sparse wins from n = 512, so 1024 is conservative;
    #: the floor is kept until a benchmark workload covers n = 256–1024.
    sparse_min_n: int = 1024
    #: In ``"auto"`` mode, graphs too dense for the CSR backend switch from
    #: the float64 matmul to the bit-packed popcount kernel at or above
    #: this size: same Θ(n²) work but 64 adjacency entries per uint64 word,
    #: so the operand is ~64× smaller and the kernel clears the dense
    #: memory wall (n = 16384 at the 1 GiB ceiling).  Below the floor the
    #: BLAS matmul's per-call overhead is lower and dense stays.
    bitpacked_min_n: int = 4096
    #: Multiplicative slack applied to the default round budget when a run
    #: carries a non-empty fault schedule (message loss and jamming slow
    #: delivery; crashes and outages stall it).  1.0 means faulted runs
    #: keep the paper budget — degradation under that budget is exactly
    #: what the robustness bench measures — while a caller studying
    #: eventual delivery can grant headroom without touching the clean
    #: budget rules.
    fault_budget_slack: float = 1.0

    def __post_init__(self) -> None:
        # Invalid constants must fail at construction, not deep inside a
        # run.  ``replace`` re-runs this, so ``with_overrides`` and the
        # presets are covered automatically.
        self.validate()

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @classmethod
    def paper(cls) -> "ProtocolParams":
        """Constants sized so the w.h.p. lemmas hold comfortably."""
        return cls()

    @classmethod
    def fast(cls) -> "ProtocolParams":
        """Small constants for tests and large sweeps (same asymptotics)."""
        return cls(
            decay_phase_factor=1.0,
            decay_whp_factor=1.0,
            schedule_slack=3.0,
            schedule_slack_additive=24,
        )

    def with_overrides(self, **kwargs: Any) -> "ProtocolParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def log_n(self, n_bound: int) -> int:
        """``⌈log2 n⌉`` for the public size bound."""
        return log2_ceil(n_bound)

    def decay_phase_length(self, n_bound: int) -> int:
        """Rounds in one Decay phase (paper: ``⌈log2 n⌉``)."""
        return max(1, math.ceil(self.decay_phase_factor * self.log_n(n_bound)))

    def decay_whp_phases(self, n_bound: int) -> int:
        """Number of Decay phases used whenever the paper says Θ(log n)."""
        return max(1, math.ceil(self.decay_whp_factor * self.log_n(n_bound)))

    def decay_whp_rounds(self, n_bound: int) -> int:
        """Rounds of Decay for a w.h.p. delivery (Θ(log^2 n))."""
        return self.decay_whp_phases(n_bound) * self.decay_phase_length(n_bound)

    def ghk_backoff_slots(self, n_bound: int) -> int:
        """Layer slots in one GHK contention-backoff cycle (Θ(log n))."""
        return max(1, math.ceil(self.ghk_backoff_factor * self.log_n(n_bound)))

    def ghk_broadcast_rounds(self, diameter: int, n_bound: int) -> int:
        """Round budget for the collision-detection broadcast.

        A calibrated formula shaped like ``O(D + log^2 n)``, not the paper's
        ``O(D + log^6 n)`` bound and not a proved bound for the implemented
        simplification (:mod:`repro.sim.multi_message` at ``k = 1``).  The
        sync wave costs ``D`` rounds, each layer slot recurs every
        ``wave_spacing`` rounds, and the worst single layer's contention is
        budgeted ``O(log^2 n)`` slots; the usual multiplicative and additive
        slack absorbs the partially-pipelined remainder.  It is smaller than
        :meth:`ghk_multi_message_rounds` at ``k = 1``, which also budgets
        the pipeline's per-message slots.
        """
        if diameter < 0:
            raise ConfigurationError(f"diameter must be non-negative, got {diameter}")
        slots = diameter + self.ghk_backoff_slots(n_bound) * self.decay_whp_phases(n_bound)
        rounds = math.ceil(self.schedule_slack * self.wave_spacing * slots)
        return int(rounds) + self.schedule_slack_additive

    def ghk_multi_message_rounds(
        self, diameter: int, n_bound: int, k_messages: int = 1
    ) -> int:
        """Round budget for the k-message broadcast.

        A calibrated formula shaped like ``O(D + k log n + log^2 n)``, the
        paper's bound for *known* topology; with unknown topology and
        collision detection the paper proves ``O(D + k log n + log^6 n)``,
        and the implemented simplification (see
        :mod:`repro.sim.multi_message`) has no proved bound.  The sync wave
        costs ``D`` rounds, each layer then pushes its ``k`` messages
        through its owned slots (one message per slot, ``Θ(log n)`` slots
        of decay backoff per message), and the worst single layer's
        residual contention is budgeted ``O(log^2 n)`` slots — all
        pipelined across layers, so the slot terms add instead of
        multiplying by ``D``.
        """
        if diameter < 0:
            raise ConfigurationError(f"diameter must be non-negative, got {diameter}")
        if not isinstance(k_messages, int) or k_messages < 1:
            raise ConfigurationError(
                f"k_messages must be a positive integer, got {k_messages!r}"
            )
        backoff = self.ghk_backoff_slots(n_bound)
        per_message = self.multi_message_pipeline_factor * k_messages * backoff
        slots = diameter + per_message + backoff * self.decay_whp_phases(n_bound)
        rounds = math.ceil(self.schedule_slack * self.wave_spacing * slots)
        return int(rounds) + self.schedule_slack_additive

    def decay_broadcast_rounds(self, diameter: int, n_bound: int) -> int:
        """Round budget for plain Decay broadcast: ``O((D + log n) log n)``.

        Decay (without collision detection) needs ``Θ(D + log n)`` phases of
        ``⌈log2 n⌉`` rounds; this applies the usual multiplicative and
        additive slack so the w.h.p. event comfortably fits the budget.
        """
        if diameter < 0:
            raise ConfigurationError(f"diameter must be non-negative, got {diameter}")
        phases = diameter + self.decay_whp_phases(n_bound)
        rounds = math.ceil(self.schedule_slack * phases) * self.decay_phase_length(n_bound)
        return int(rounds) + self.schedule_slack_additive

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any parameter is non-positive."""
        positive_fields = [
            "decay_phase_factor",
            "decay_whp_factor",
            "schedule_slack",
            "ghk_backoff_factor",
            "multi_message_pipeline_factor",
            "fault_budget_slack",
        ]
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"ProtocolParams.{name} must be positive")
        if self.schedule_slack_additive < 0:
            raise ConfigurationError("schedule_slack_additive must be non-negative")
        if not isinstance(self.wave_spacing, int) or self.wave_spacing < 3:
            raise ConfigurationError(
                "wave_spacing must be an integer >= 3 (adjacent pipelined waves "
                f"interfere below 3), got {self.wave_spacing!r}"
            )
        if self.channel_backend not in ("auto", "dense", "sparse", "bitpacked"):
            raise ConfigurationError(
                "channel_backend must be 'auto', 'dense', 'sparse' or "
                f"'bitpacked', got {self.channel_backend!r}"
            )
        if not 0.0 <= self.sparse_density_threshold <= 1.0:
            raise ConfigurationError(
                "sparse_density_threshold must be in [0, 1], "
                f"got {self.sparse_density_threshold!r}"
            )
        if not isinstance(self.sparse_min_n, int) or self.sparse_min_n < 0:
            raise ConfigurationError(
                "sparse_min_n must be a non-negative integer, "
                f"got {self.sparse_min_n!r}"
            )
        if not isinstance(self.bitpacked_min_n, int) or self.bitpacked_min_n < 0:
            raise ConfigurationError(
                "bitpacked_min_n must be a non-negative integer, "
                f"got {self.bitpacked_min_n!r}"
            )
