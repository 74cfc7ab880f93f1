"""Protocol parameters shared by every algorithm in the library.

The paper states all phase lengths asymptotically (``Θ(log n)`` rounds per
Decay phase, ``Θ(log n)`` layer slots per GHK backoff cycle, ...).  The hidden
constants do not affect the asymptotic claims but completely determine the
wall-clock cost of simulating the protocols.  A Decay phase and a GHK backoff
cycle are exactly ``⌈log2 n⌉`` long, and the pipelined waves use the fixed
constants :data:`WAVE_SPACING` and :data:`PIPELINE_CYCLES_PER_MESSAGE`.
:class:`ProtocolParams` holds only what callers vary: the w.h.p. phase
count and the budget slack, which differ between the presets, and the
channel backend.

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

__all__ = ["PIPELINE_CYCLES_PER_MESSAGE", "WAVE_SPACING", "ProtocolParams", "log2_ceil"]

#: Rounds between successive pipelined beep waves, which is also the
#: layer-slot reuse period of the collision-detection broadcast.  With
#: period 3 a node can tell its own layer's slot apart from both the
#: forward wave (layer d-1) and the backward echo (layer d+1), so waves
#: never interfere (Section 2 of the paper).
WAVE_SPACING = 3

#: Backoff cycles budgeted per message in the k-message pipeline.  A dense
#: layer delivers roughly one message per synchronized decay cycle, and the
#: productive tail of a cycle resolves only a constant fraction of the
#: time, so the per-message slot cost is a small constant number of cycles
#: — this is that hidden constant.
PIPELINE_CYCLES_PER_MESSAGE = 3


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
    """The protocol constants that callers vary, and the channel backend.

    ``decay_whp_factor`` multiplies the ``⌈log2 n⌉`` base unit, the two
    slacks widen every round budget; each has a paper-faithful default.
    """

    #: Number of Decay phases needed for a w.h.p. guarantee, as a multiple of
    #: ``⌈log2 n⌉`` (paper: Θ(log n)).
    decay_whp_factor: float = 2.0
    #: Multiplicative slack applied to broadcast round budgets, e.g. the
    #: ``λ`` of Lemma 3.3 / Theorem 1.2.
    schedule_slack: float = 4.0
    #: Extra additive rounds granted to every broadcast budget; keeps tiny
    #: instances (D = 0 or 1) from being starved by integer truncation.
    schedule_slack_additive: int = 32
    #: Channel-kernel backend: ``"auto"`` picks dense, sparse, or bitpacked
    #: per topology by the density threshold and size floors of
    #: :func:`repro.sim.core.batch.resolve_channel_backend`;
    #: ``"dense"``/``"sparse"``/``"bitpacked"`` force one path.  The
    #: backends are bitwise-identical on every run (same traces, same round
    #: counts); the choice only affects speed and memory, so it lives here
    #: as an execution knob, not a protocol constant.
    channel_backend: str = "auto"

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
        return cls(decay_whp_factor=1.0, schedule_slack=3.0, schedule_slack_additive=24)

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
        return self.log_n(n_bound)

    def decay_whp_phases(self, n_bound: int) -> int:
        """Number of Decay phases used whenever the paper says Θ(log n)."""
        return max(1, math.ceil(self.decay_whp_factor * self.log_n(n_bound)))

    def ghk_backoff_slots(self, n_bound: int) -> int:
        """Layer slots in one GHK contention-backoff cycle (``⌈log2 n⌉``)."""
        return self.log_n(n_bound)

    def ghk_broadcast_rounds(self, diameter: int, n_bound: int) -> int:
        """Round budget for the collision-detection broadcast.

        A calibrated formula shaped like ``O(D + log^2 n)``, not the paper's
        ``O(D + log^6 n)`` bound and not a proved bound for the implemented
        simplification (:mod:`repro.sim.multi_message` at ``k = 1``).  The
        sync wave costs ``D`` rounds, each layer slot recurs every
        :data:`WAVE_SPACING` rounds, and the worst single layer's contention is
        budgeted ``O(log^2 n)`` slots; the usual multiplicative and additive
        slack absorbs the partially-pipelined remainder.  It is smaller than
        :meth:`ghk_multi_message_rounds` at ``k = 1``, which also budgets
        the pipeline's per-message slots.
        """
        if diameter < 0:
            raise ConfigurationError(f"diameter must be non-negative, got {diameter}")
        slots = diameter + self.ghk_backoff_slots(n_bound) * self.decay_whp_phases(n_bound)
        rounds = math.ceil(self.schedule_slack * WAVE_SPACING * slots)
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
        per_message = PIPELINE_CYCLES_PER_MESSAGE * k_messages * backoff
        slots = diameter + per_message + backoff * self.decay_whp_phases(n_bound)
        rounds = math.ceil(self.schedule_slack * WAVE_SPACING * slots)
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
        """Raise :class:`ConfigurationError` on any out-of-range parameter."""
        for name in ("decay_whp_factor", "schedule_slack"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"ProtocolParams.{name} must be a positive finite number, got {value!r}"
                )
        additive = self.schedule_slack_additive
        if not isinstance(additive, int) or isinstance(additive, bool) or additive < 0:
            raise ConfigurationError(
                f"schedule_slack_additive must be a non-negative integer, got {additive!r}"
            )
        if self.channel_backend not in ("auto", "dense", "sparse", "bitpacked"):
            raise ConfigurationError(
                "channel_backend must be 'auto', 'dense', 'sparse' or "
                f"'bitpacked', got {self.channel_backend!r}"
            )
