"""Output checks on every broadcast instance, and the observables digest.

Each instance must be delivered within its budget, no node may learn the
message sooner than the channel allows (one hop per round), and the
per-node traffic rows must sum to the scalar totals.  The digest hashes
every simulated observable of a pass, so two passes of the same inputs —
traced or not — must print the same one.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import BroadcastFailure
from repro.sim.core.stats import conservation_violation
from repro.sim.topology import RadioNetwork

__all__ = ["Verdict", "check_pass", "digest"]


@dataclass
class Verdict:
    """Outcome of checking one pass's instances."""

    attempted: int
    #: instances that were undelivered or failed an output check.
    failed: int
    #: one line per failed instance.
    problems: list[str]


def _bfs_distances(network: RadioNetwork) -> np.ndarray:
    dist = np.empty(network.n, dtype=np.int64)
    for depth, layer in enumerate(network.bfs_layers()):
        dist[list(layer)] = depth
    return dist


def _instance_problem(network: RadioNetwork, dist: np.ndarray, result: Any) -> str | None:
    """The first output check ``result`` violates, or ``None``."""
    if result.rounds_to_delivery > result.budget:
        return f"delivered in {result.rounds_to_delivery} rounds > budget {result.budget}"
    informed = np.asarray(result.informed_rounds, dtype=np.int64)
    if informed.shape != (network.n,):
        return f"informed_rounds has shape {informed.shape}, expected ({network.n},)"
    if informed[network.source] != 0:
        return f"source informed at round {informed[network.source]}, not 0"
    # Round indices start at 0, so a node d hops away can hear the message
    # in round d - 1 at the earliest, and nobody after the last round run.
    early = np.flatnonzero(informed + 1 < dist)
    if early.size:
        v = int(early[0])
        return f"node {v} informed at round {informed[v]} but is {dist[v]} hops away"
    if network.n > 1 and informed.max() >= result.rounds_to_delivery:
        return f"a node informed at round {informed.max()} of {result.rounds_to_delivery}"
    return conservation_violation(result.sim)


def check_pass(
    instance_networks: Sequence[RadioNetwork], results: Sequence[Any]
) -> Verdict:
    """Check every instance of one pass (networks in result order)."""
    distances: dict[int, np.ndarray] = {}
    failed = 0
    problems: list[str] = []
    for index, (network, result) in enumerate(zip(instance_networks, results)):
        if isinstance(result, BroadcastFailure):
            failed += 1
            problems.append(f"instance {index}: undelivered after {result.budget} rounds")
            continue
        if id(network) not in distances:
            distances[id(network)] = _bfs_distances(network)
        problem = _instance_problem(network, distances[id(network)], result)
        if problem is not None:
            failed += 1
            problems.append(f"instance {index}: {problem}")
    return Verdict(attempted=len(results), failed=failed, problems=problems)


def digest(results: Sequence[Any]) -> str:
    """sha256 over every simulated observable of a pass's results, in order."""
    h = hashlib.sha256()
    for result in results:
        if isinstance(result, BroadcastFailure):
            observed: Any = ("failure", result.undelivered, result.budget, result.sim)
        else:
            observed = result
        h.update(repr(observed).encode())
    return h.hexdigest()
