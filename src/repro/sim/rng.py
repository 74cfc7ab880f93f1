"""Seeded, per-node random streams.

Every source of randomness in a simulation run is derived from one integer
seed through :class:`numpy.random.SeedSequence` spawning, so a run is fully
reproducible: same seed, same topology, same protocol code => bit-identical
round-by-round behaviour.  Each node owns an independent stream (nodes in a
radio network cannot share coins), and the engine owns one extra stream for
anything that is not attributable to a single node.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SeededStreams", "node_streams", "stream"]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return one generator for ``seed``, domain-separated by ``key``.

    Different ``key`` tuples under the same seed yield statistically
    independent streams; topology generators use this so that building a
    graph never consumes the coins the protocol run will use.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def node_streams(seed: int, count: int) -> tuple[np.random.Generator, ...]:
    """Return ``count`` independent generators derived from ``seed``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    children = np.random.SeedSequence(seed).spawn(count)
    return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


class SeededStreams:
    """The full complement of streams used by one :class:`~repro.sim.core.batch.ArrayEngine` run.

    ``nodes[i]`` is node *i*'s private stream; ``engine`` is reserved for the
    simulator itself (e.g. future adversarial channel noise) so that adding
    engine-side randomness never perturbs node-side coin flips.
    """

    def __init__(self, seed: int, n_nodes: int) -> None:
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        root = np.random.SeedSequence(seed)
        children = root.spawn(n_nodes + 1)
        self.seed = seed
        self.engine = np.random.Generator(np.random.PCG64(children[0]))
        self.nodes = tuple(np.random.Generator(np.random.PCG64(c)) for c in children[1:])

    def __len__(self) -> int:
        return len(self.nodes)
