"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  More specific subclasses are
raised by the simulator, the graphs and the analysis layer so that test
suites and callers can assert on precise failure modes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.core.stats import SimResult

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "TopologyError",
    "BroadcastFailure",
    "AnalysisError",
    "SanitizerError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when parameters or protocol configuration are invalid."""


class SimulationError(ReproError):
    """Raised when the round-based simulation engine is misused.

    Examples: registering two protocols for one node, running a simulator
    that already finished, or a protocol returning an invalid action.
    """


class TopologyError(ReproError):
    """Raised for invalid network topologies (disconnected graphs, missing
    source node, non-positive sizes, and similar)."""


class BroadcastFailure(ReproError):
    """Raised when a broadcast run finished without delivering the
    message(s) to every node (the "with high probability" event failed or
    the round budget was too small).

    ``sim`` carries the failed run's
    :class:`~repro.sim.core.stats.SimResult`, so callers (e.g. the demo's
    ``--trace``) can inspect the rounds that *were* executed, and
    ``budget`` the round budget the run exhausted, so failure consumers
    can report the same fields a success result exposes.
    """

    def __init__(
        self,
        message: str,
        undelivered: tuple[int, ...] = (),
        *,
        sim: SimResult,
        budget: int,
    ) -> None:
        super().__init__(message)
        self.undelivered = tuple(undelivered)
        self.sim = sim
        self.budget = budget


class AnalysisError(ReproError):
    """Raised by the analysis/sweep harness on malformed experiment input."""


class SanitizerError(SimulationError):
    """Raised by the runtime sanitizer (:mod:`repro.analysis.simsan`) when a
    live run violates one of its registered invariants.

    A :class:`SimulationError`, so a caller sees the same error class for
    a broken run with the sanitizer on or off — the sanitizer only adds
    the round and the structured fields below.  The batch engine's item
    attribution re-wraps only ``act()`` and kernel errors, never a
    sanitizer hook, so a finding surfaces verbatim.

    ``check`` is the registered check id (e.g. ``"diff.counts"``,
    ``"conserve.traffic"``); ``round_index``/``seed``/``backend``/
    ``topology`` localize the violating round; ``details`` carries
    check-specific context (mismatching nodes, expected/actual values)
    as plain JSON-able data.  A ``diff.*`` error's details also hold the
    round's packed plan masks and adjacency version: the repro bundle
    ``python -m repro.analysis.simsan.bisect`` writes from it.
    """

    def __init__(
        self,
        message: str,
        *,
        check: str,
        round_index: int,
        seed: int,
        backend: str,
        topology: str,
        details: dict | None = None,
    ) -> None:
        super().__init__(
            f"[{check}] {message} (round={round_index}, seed={seed}, "
            f"backend={backend}, topology={topology})"
        )
        self.check = check
        self.round_index = round_index
        self.seed = seed
        self.backend = backend
        self.topology = topology
        self.details = dict(details) if details else {}
