"""Individual sanitizer checks: pure functions over the arrays in flight.

Each check returns ``None`` when the invariant holds, or a human-readable
description of the violation (plus the check id where one function covers
several); raising the structured :class:`~repro.errors.SanitizerError` is
the harness's job (:mod:`repro.analysis.simsan.core`), which owns the
run context (seed, topology, backend, round).  Keeping the predicates
free of that context makes them directly unit-testable on hand-built
arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.topology import RadioNetwork

__all__ = [
    "cache_discipline_violation",
    "crashed_plan_violation",
    "mask_contract_violation",
]


def mask_contract_violation(
    n: int, transmit: np.ndarray, listen: np.ndarray
) -> tuple[str, str] | None:
    """Kernel-boundary contract of one plan: ``(check_id, message)`` or ``None``.

    Covers ``kernel.mask-shape`` (boolean dtype, exact ``(n,)`` shape —
    the per-engine hooks always see de-batched masks) and
    ``kernel.disjoint`` (the half-duplex precondition).  The kernel
    enforces disjointness itself, but by then the engine is mid-round;
    the sanitizer checks at plan time so the violation is attributed to
    the round that *produced* the masks.
    """
    for label, mask in (("transmit", transmit), ("listen", listen)):
        if mask.dtype != np.bool_:
            return (
                "kernel.mask-shape",
                f"{label} mask must be boolean, got dtype {mask.dtype}",
            )
        if mask.shape != (n,):
            return (
                "kernel.mask-shape",
                f"{label} mask must have shape ({n},), got {mask.shape}",
            )
    overlap = transmit & listen
    if overlap.any():
        node = int(np.flatnonzero(overlap)[0])
        return (
            "kernel.disjoint",
            f"node {node} both transmits and listens (radios are half-duplex)",
        )
    return None


def crashed_plan_violation(
    transmit: np.ndarray, listen: np.ndarray, crashed: np.ndarray
) -> str | None:
    """Crashed radios are off: no transmit, no listen, hence no awake slot.

    The engine applies the crash mask to the plan before the kernel, and
    the awake counter sums exactly these masks — so a crashed node that
    still appears here would both act and accrue energy inside its
    :class:`~repro.sim.faults.NodeCrash` window.
    """
    awake_while_crashed = crashed & (transmit | listen)
    if awake_while_crashed.any():
        node = int(np.flatnonzero(awake_while_crashed)[0])
        action = "transmits" if transmit[node] else "listens"
        return f"crashed node {node} still {action} inside its down window"
    return None


def cache_discipline_violation(
    network: "RadioNetwork", *, check_dense: bool
) -> str | None:
    """Cached topology arrays must be frozen (numpy's read-only flag).

    The CSR neighbour arrays (and, when ``check_dense``, the dense
    adjacency matrix) are cached on the network and shared by every
    engine, operand, and fault state built from it — a writeable cache is
    one silent in-place edit away from divergent physics between runs.
    The dense matrix is checked only if it is already materialized: this
    check never forces the Θ(n²) build, nor counts as a use of it.
    """
    indptr, indices = network.csr()
    for label, arr in (("csr indptr", indptr), ("csr indices", indices)):
        if arr.flags.writeable:
            return f"cached {label} array is writeable (expected writeable=False)"
    dense = network.cached_adjacency() if check_dense else None
    if dense is not None and dense.flags.writeable:
        return "cached adjacency matrix is writeable (expected writeable=False)"
    return None
