"""Per-node reference forms of the graph routines the library keeps as CSR arrays.

:class:`~repro.sim.topology.RadioNetwork` stores its adjacency only as CSR
and runs one compiled breadth-first traversal over it; the fault layer
tracks edge flips as a sorted directed-key array.  The forms here are the
plain per-node versions those replaced — a FIFO-queue BFS over neighbour
lists, and one mutable neighbour set per node — kept as independent checks.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.sim.topology import RadioNetwork

__all__ = ["NeighborSetMirror", "deque_bfs_layers"]


def deque_bfs_layers(
    neighbors: Sequence[Sequence[int]], root: int
) -> tuple[tuple[int, ...], ...]:
    """Nodes grouped by hop distance from ``root``, in FIFO discovery order."""
    dist = [-1] * len(neighbors)
    dist[root] = 0
    queue = deque([root])
    layers: list[list[int]] = [[root]]
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                if dist[v] == len(layers):
                    layers.append([])
                layers[dist[v]].append(v)
                queue.append(v)
    return tuple(tuple(layer) for layer in layers)


class NeighborSetMirror:
    """A network's adjacency as one mutable neighbour set per node."""

    def __init__(self, network: RadioNetwork) -> None:
        self.n = network.n
        self.sets = [set(network.neighbors(v)) for v in range(network.n)]

    def flip(self, u: int, v: int) -> None:
        """Toggle the undirected edge ``{u, v}``."""
        if v in self.sets[u]:
            self.sets[u].discard(v)
            self.sets[v].discard(u)
        else:
            self.sets[u].add(v)
            self.sets[v].add(u)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The sets as CSR arrays, each row ascending."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(nbrs) for nbrs in self.sets], out=indptr[1:])
        indices = np.fromiter(
            (w for nbrs in self.sets for w in sorted(nbrs)),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        return indptr, indices

    def jam_cover(self, jammers: Sequence[int]) -> np.ndarray:
        """Every node in some jammer's closed neighbourhood."""
        cover = np.zeros(self.n, dtype=bool)
        for node in jammers:
            cover[node] = True
            cover[list(self.sets[node])] = True
        return cover
