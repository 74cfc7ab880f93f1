"""Radio-network topologies.

A :class:`RadioNetwork` is an undirected, connected graph with a designated
broadcast source.  The engine only ever sees the adjacency structure; all
the generators below exist so that protocols can be exercised on the graph
families the paper's guarantees must survive: long paths (diameter-bound),
stars and cliques (contention-bound), grids and unit-disk graphs (the
geometric radio setting), sparse random graphs, and "dumbbell" graphs whose
narrow bridge stresses progress through a single bottleneck edge.

Every generator validates its output (connected, source present, no self
loops) and is deterministic given its seed.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import TopologyError
from repro.sim.rng import stream

__all__ = [
    "RadioNetwork",
    "line",
    "ring",
    "star",
    "grid2d",
    "gnp",
    "dumbbell",
    "unit_disk",
    "from_spec",
    "TOPOLOGY_NAMES",
]


class RadioNetwork:
    """An undirected connected graph plus a broadcast source node.

    Construction validates the structure once; afterwards the instance is
    immutable and caches the derived views the engine and the budgets need
    (dense adjacency matrix, BFS layers, eccentricity, diameter).
    """

    def __init__(
        self,
        neighbors: Sequence[Iterable[int]],
        *,
        source: int = 0,
        name: str = "custom",
    ) -> None:
        n = len(neighbors)
        if n < 1:
            raise TopologyError("a RadioNetwork needs at least one node")
        if not 0 <= source < n:
            raise TopologyError(f"source {source} out of range for {n} nodes")
        adj: list[tuple[int, ...]] = []
        for u, nbrs in enumerate(neighbors):
            seen = set()
            for v in nbrs:
                v = int(v)
                if v == u:
                    raise TopologyError(f"self-loop at node {u}")
                if not 0 <= v < n:
                    raise TopologyError(f"edge ({u}, {v}) out of range for {n} nodes")
                seen.add(v)
            adj.append(tuple(sorted(seen)))
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                if u not in adj[v]:
                    raise TopologyError(f"edge ({u}, {v}) is not symmetric")
        self._neighbors = tuple(adj)
        self._n = n
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._finalize(source, name)

    @classmethod
    def from_edges(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        *,
        source: int = 0,
        name: str = "custom",
    ) -> "RadioNetwork":
        """Build a network from an undirected edge list, fully vectorized.

        Each ``(u[i], v[i])`` pair contributes the edge in both directions;
        duplicate pairs are deduplicated.  Provides the same guarantees as
        the list-of-neighbours constructor (range, self-loop, connectivity
        validation) but with array operations and no per-node Python loop
        or n×n intermediate — this is the constructor the sparse-native
        random generators use at large n.
        """
        if n < 1:
            raise TopologyError("a RadioNetwork needs at least one node")
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise TopologyError(
                f"edge endpoint arrays must have matching length, got "
                f"{u.size} and {v.size}"
            )
        if u.size:
            endpoints = np.concatenate([u, v])
            out_of_range = (endpoints < 0) | (endpoints >= n)
            if out_of_range.any():
                bad = int(endpoints[out_of_range][0])
                raise TopologyError(f"edge endpoint {bad} out of range for {n} nodes")
            loops = u == v
            if loops.any():
                raise TopologyError(
                    f"self-loop at node {int(u[np.nonzero(loops)[0][0]])}"
                )
        # Encode directed pairs as u*n + v; sorting puts them in CSR order
        # (row-major, ascending neighbours) and dropping each key equal to
        # its predecessor deduplicates.  Same result as np.unique, whose
        # hash-based path is many times slower on these int64 keys.
        enc = np.sort(np.concatenate([u * n + v, v * n + u]))
        fresh = np.ones(enc.size, dtype=bool)
        np.not_equal(enc[1:], enc[:-1], out=fresh[1:])
        enc = enc[fresh]
        rows, cols = np.divmod(enc, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        net = object.__new__(cls)
        net._n = n
        net._neighbors = tuple(
            tuple(row.tolist()) for row in np.split(cols, indptr[1:-1])
        )
        indptr.setflags(write=False)
        cols.setflags(write=False)
        net._csr = (indptr, cols)
        net._finalize(source, name)
        return net

    def _finalize(self, source: int, name: str) -> None:
        """Shared constructor tail: caches, source check, connectivity check."""
        n = self._n
        if not 0 <= source < n:
            raise TopologyError(f"source {source} out of range for {n} nodes")
        self._source = source
        self._name = name
        self._adjacency: np.ndarray | None = None
        self._adjacency_key: bytes | None = None
        self._layers: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._diameter: int | None = None
        if n > 1:
            reached = sum(len(layer) for layer in self.bfs_layers(source))
            if reached != n:
                raise TopologyError(
                    f"graph is disconnected: {n - reached} of {n} nodes "
                    f"unreachable from source {source}"
                )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return self._n

    @property
    def source(self) -> int:
        return self._source

    @property
    def name(self) -> str:
        return self._name

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._neighbors) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 matrix, cached; the engine's channel kernel.

        The returned array is the cache itself, marked read-only: a caller
        mutating it would silently corrupt every later run (and the batch
        engine's topology grouping), so writes raise ``ValueError``.
        """
        if self._adjacency is None:
            mat = np.zeros((self._n, self._n), dtype=np.int8)
            for u, nbrs in enumerate(self._neighbors):
                for v in nbrs:
                    mat[u, v] = 1
            mat.setflags(write=False)
            self._adjacency = mat
        return self._adjacency

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached CSR neighbour arrays ``(indptr, indices)``, read-only int64.

        ``indices[indptr[v]:indptr[v+1]]`` lists node ``v``'s neighbours in
        ascending order.  This is the sparse channel backend's operand;
        it is built straight from the neighbour lists, so requesting it
        never materializes the dense n×n matrix.  Both arrays are the cache
        itself, marked read-only for the same reason as
        :meth:`adjacency_matrix`.
        """
        if self._csr is None:
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum([len(nbrs) for nbrs in self._neighbors], out=indptr[1:])
            indices = np.fromiter(
                (w for nbrs in self._neighbors for w in nbrs),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def adjacency_key(self) -> bytes:
        """Cached byte serialization of the CSR structure — a hashable topology key.

        The batch engine groups same-topology instances by this key; basing
        it on the CSR arrays (with the node count prefixed to keep the
        encoding unambiguous) keeps it O(edges) and dense-matrix-free, so
        grouping huge sparse graphs never allocates n² bytes.
        """
        if self._adjacency_key is None:
            indptr, indices = self.csr()
            self._adjacency_key = (
                np.int64(self._n).tobytes() + indptr.tobytes() + indices.tobytes()
            )
        return self._adjacency_key

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #
    def bfs_layers(self, root: int | None = None) -> tuple[tuple[int, ...], ...]:
        """Nodes grouped by hop distance from ``root`` (default: the source).

        ``layers[d]`` holds every node at distance exactly ``d``; unreachable
        nodes (only possible during construction) are absent.
        """
        root = self._source if root is None else root
        if not 0 <= root < self._n:
            raise TopologyError(f"root {root} out of range for {self._n} nodes")
        if root in self._layers:
            return self._layers[root]
        dist = [-1] * self._n
        dist[root] = 0
        queue = deque([root])
        layers: list[list[int]] = [[root]]
        while queue:
            u = queue.popleft()
            for v in self._neighbors[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    if dist[v] == len(layers):
                        layers.append([])
                    layers[dist[v]].append(v)
                    queue.append(v)
        result = tuple(tuple(layer) for layer in layers)
        self._layers[root] = result
        return result

    def eccentricity(self, root: int | None = None) -> int:
        """Largest hop distance from ``root`` (default: the source)."""
        return len(self.bfs_layers(root)) - 1

    def diameter(self) -> int:
        """Exact diameter via BFS from every node (cached; n is small)."""
        if self._diameter is None:
            self._diameter = max(self.eccentricity(v) for v in range(self._n))
        return self._diameter

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RadioNetwork(name={self._name!r}, n={self._n}, "
            f"edges={self.num_edges}, source={self._source})"
        )


# ---------------------------------------------------------------------- #
# Deterministic families
# ---------------------------------------------------------------------- #
def _check_size(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise TopologyError(f"need at least {minimum} nodes, got {n}")


def line(n: int, *, source: int = 0) -> RadioNetwork:
    """Path 0 - 1 - ... - (n-1); the diameter-stress topology."""
    _check_size(n)
    nbrs = [[] for _ in range(n)]
    for u in range(n - 1):
        nbrs[u].append(u + 1)
        nbrs[u + 1].append(u)
    return RadioNetwork(nbrs, source=source, name=f"line-{n}")


def ring(n: int, *, source: int = 0) -> RadioNetwork:
    """Cycle on ``n`` nodes (n >= 3)."""
    _check_size(n, 3)
    nbrs = [[(u - 1) % n, (u + 1) % n] for u in range(n)]
    return RadioNetwork(nbrs, source=source, name=f"ring-{n}")


def star(n: int, *, source: int = 0) -> RadioNetwork:
    """Node 0 is the hub, nodes 1..n-1 are leaves; the contention-stress case."""
    _check_size(n, 2)
    nbrs = [list(range(1, n))] + [[0] for _ in range(n - 1)]
    return RadioNetwork(nbrs, source=source, name=f"star-{n}")


def grid2d(
    rows: int | None = None,
    cols: int | None = None,
    *,
    n: int | None = None,
    source: int = 0,
) -> RadioNetwork:
    """4-neighbour grid.

    Either pass explicit ``rows``/``cols``, or pass ``n`` alone to get a
    near-square grid truncated to exactly ``n`` nodes in row-major order —
    truncation keeps the graph connected.
    """
    if n is not None:
        if rows is not None or cols is not None:
            raise TopologyError("pass either rows/cols or n, not both")
        _check_size(n)
        rows = max(1, int(math.isqrt(n)))
        cols = math.ceil(n / rows)
    else:
        if rows is None:
            raise TopologyError("grid2d needs rows/cols or n")
        cols = rows if cols is None else cols
        if rows < 1 or cols < 1:
            raise TopologyError(f"grid needs positive dimensions, got {rows}x{cols}")
        n = rows * cols
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for idx in range(n):
        r, c = divmod(idx, cols)
        for dr, dc in ((0, 1), (1, 0)):
            rr, cc = r + dr, c + dc
            jdx = rr * cols + cc
            if rr < rows and cc < cols and jdx < n:
                nbrs[idx].append(jdx)
                nbrs[jdx].append(idx)
    return RadioNetwork(nbrs, source=source, name=f"grid-{rows}x{cols}-n{n}")


def dumbbell(clique_size: int, bridge_length: int = 4, *, source: int = 0) -> RadioNetwork:
    """Two cliques of ``clique_size`` nodes joined by a path of ``bridge_length`` nodes.

    High contention inside the clusters, single-edge bottleneck between
    them — the hardest mix for a contention-resolution broadcast.
    """
    if clique_size < 2:
        raise TopologyError(f"clique_size must be >= 2, got {clique_size}")
    if bridge_length < 0:
        raise TopologyError(f"bridge_length must be >= 0, got {bridge_length}")
    n = 2 * clique_size + bridge_length
    nbrs: list[set[int]] = [set() for _ in range(n)]
    left = range(0, clique_size)
    right = range(clique_size + bridge_length, n)
    for grp in (left, right):
        for u in grp:
            for v in grp:
                if u < v:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
    chain = [clique_size - 1, *range(clique_size, clique_size + bridge_length), clique_size + bridge_length]
    for u, v in zip(chain, chain[1:]):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return RadioNetwork(
        [sorted(s) for s in nbrs],
        source=source,
        name=f"dumbbell-{clique_size}+{bridge_length}+{clique_size}",
    )


# ---------------------------------------------------------------------- #
# Random families
# ---------------------------------------------------------------------- #
_RANDOM_TRIES = 50


def _sample_distinct(
    rng: np.random.Generator, population: int, count: int
) -> np.ndarray:
    """A uniform ``count``-subset of ``range(population)``, as a sorted array.

    Vectorized rejection sampling: draw with replacement in passes and keep
    the first ``count`` distinct values — first-appearance order is exactly
    the sequential draw-until-new process, so the kept set is a uniform
    ``count``-subset.  Rejection hits the coupon-collector tail when
    ``count`` approaches ``population``, so dense requests sample the
    *complement* instead (a uniform complement yields a uniform subset);
    either way the cost stays O(min(count, population - count)) draws.
    """
    if 2 * count > population:
        dropped = _sample_distinct(rng, population, population - count)
        keep = np.ones(population, dtype=bool)
        keep[dropped] = False
        return np.nonzero(keep)[0]
    picked = np.empty(0, dtype=np.int64)
    while picked.size < count:
        need = count - picked.size
        draw = rng.integers(0, population, size=need + (need >> 2) + 16)
        merged = np.concatenate([picked, draw])
        _, first_seen = np.unique(merged, return_index=True)
        picked = merged[np.sort(first_seen)][:count]
    return np.sort(picked)


def gnp(n: int, p: float, *, seed: int = 0, source: int = 0, max_tries: int = _RANDOM_TRIES) -> RadioNetwork:
    """Erdős–Rényi G(n, p), resampled until connected (or :class:`TopologyError`).

    Edge-sampled: the edge count is drawn from ``Binomial(C(n,2), p)`` and
    then that many distinct vertex pairs are sampled uniformly — the same
    G(n, p) distribution as per-pair Bernoulli coins, but Θ(n + edges)
    memory instead of an n×n Bernoulli matrix, so sparse graphs scale past
    the dense wall.  (The per-seed graphs differ from the dense sampler
    this replaced; the pinned regressions were updated accordingly.)
    """
    _check_size(n)
    if not 0.0 <= p <= 1.0:
        raise TopologyError(f"edge probability must be in [0, 1], got {p}")
    if not 0 <= source < n:
        raise TopologyError(f"source {source} out of range for {n} nodes")
    total_pairs = n * (n - 1) // 2
    # rowstart[a] = number of pairs (i, j) with i < j and i < a, i.e. the
    # linearized-index offset where row a's pairs begin.
    firsts = np.arange(n, dtype=np.int64)
    rowstart = firsts * (2 * n - firsts - 1) // 2
    for attempt in range(max_tries):
        rng = stream(seed, 1, attempt)
        edge_count = (
            total_pairs if p == 1.0 else int(rng.binomial(total_pairs, p))
        )
        if edge_count == total_pairs:
            picked = np.arange(total_pairs, dtype=np.int64)  # complete graph
        else:
            picked = _sample_distinct(rng, total_pairs, edge_count)
        i = np.searchsorted(rowstart, picked, side="right") - 1
        j = picked - rowstart[i] + i + 1
        try:
            net = RadioNetwork.from_edges(
                n, i, j, source=source, name=f"gnp-{n}-p{p:.3g}"
            )
        except TopologyError:
            continue
        return net
    raise TopologyError(
        f"G({n}, {p}) was disconnected in {max_tries} attempts; increase p"
    )


def _close_pairs(pts: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Directed index pairs ``(i, j)``, ``i != j``, within ``radius`` of each other.

    Cell binning: points are bucketed into a grid of radius-sized cells, so
    any two points within ``radius`` sit in the same or in adjacent cells.
    Sorting points by cell id makes each of the three cell *columns* around
    a point one contiguous run, so candidate pairs come out of three
    vectorized range expansions instead of the all-pairs delta tensor.
    The distance predicate is evaluated with the same expression shape
    (dx² + dy² <= r²) as the dense version, keeping seeds-to-graph
    behaviour bit-identical.
    """
    n = pts.shape[0]
    cells = max(1, math.ceil(1.0 / radius))
    cx = np.minimum((pts[:, 0] / radius).astype(np.int64), cells - 1)
    cy = np.minimum((pts[:, 1] / radius).astype(np.int64), cells - 1)
    cid = cx * cells + cy
    order = np.argsort(cid, kind="stable")
    cid_sorted = cid[order]
    lo_row = cx * cells + np.maximum(cy - 1, 0)
    hi_row = cx * cells + np.minimum(cy + 1, cells - 1)
    all_left: list[np.ndarray] = []
    all_right: list[np.ndarray] = []
    r_sq = radius * radius
    for dx in (-1, 0, 1):
        shift = dx * cells
        # Out-of-range columns encode to ids below 0 or above cells²-1, so
        # searchsorted collapses them to empty ranges with no special case.
        lo = np.searchsorted(cid_sorted, lo_row + shift, side="left")
        hi = np.searchsorted(cid_sorted, hi_row + shift, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            continue
        left = np.repeat(np.arange(n, dtype=np.int64), counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        right = order[np.arange(total, dtype=np.int64) - offsets + np.repeat(lo, counts)]
        keep = left != right
        dxs = pts[left, 0] - pts[right, 0]
        dys = pts[left, 1] - pts[right, 1]
        keep &= (dxs * dxs + dys * dys) <= r_sq
        all_left.append(left[keep])
        all_right.append(right[keep])
    if not all_left:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(all_left), np.concatenate(all_right)


def unit_disk(
    n: int,
    radius: float,
    *,
    seed: int = 0,
    source: int = 0,
    max_tries: int = _RANDOM_TRIES,
) -> RadioNetwork:
    """Unit-disk graph: ``n`` points in the unit square, edge iff distance <= radius.

    Cell-binned (:func:`_close_pairs`): only points in the same or adjacent
    radius-sized cells are compared, so building the graph costs
    Θ(n + candidate pairs) instead of the ~3·n² float64 the all-pairs delta
    tensor used to peak at.  The point sampling, edge predicate, and
    retry-until-connected semantics are unchanged, so every seed maps to
    exactly the same graph as the all-pairs version.
    """
    _check_size(n)
    if radius <= 0:
        raise TopologyError(f"radius must be positive, got {radius}")
    if not 0 <= source < n:
        raise TopologyError(f"source {source} out of range for {n} nodes")
    for attempt in range(max_tries):
        rng = stream(seed, 2, attempt)
        pts = rng.random((n, 2))
        left, right = _close_pairs(pts, radius)
        try:
            net = RadioNetwork.from_edges(
                n, left, right, source=source, name=f"udg-{n}-r{radius:.3g}"
            )
        except TopologyError:
            continue
        return net
    raise TopologyError(
        f"unit-disk({n}, r={radius}) was disconnected in {max_tries} attempts; "
        "increase the radius"
    )


# ---------------------------------------------------------------------- #
# Name-based construction (CLI / sweeps)
# ---------------------------------------------------------------------- #
TOPOLOGY_NAMES = ("line", "ring", "star", "grid", "gnp", "dumbbell", "unit_disk")


def from_spec(
    name: str,
    n: int,
    *,
    seed: int = 0,
    source: int = 0,
    p: float | None = None,
    radius: float | None = None,
) -> RadioNetwork:
    """Build a topology by family name with sensible defaults.

    ``p`` defaults to ``min(1, 4 ln n / n)`` (safely above the connectivity
    threshold) and ``radius`` to ``sqrt(8 ln n / (pi n))`` for the same
    reason.  ``dumbbell`` splits ``n`` into two cliques plus a 4-node bridge.
    """
    if name == "line":
        return line(n, source=source)
    if name == "ring":
        return ring(n, source=source)
    if name == "star":
        return star(n, source=source)
    if name == "grid":
        return grid2d(n=n, source=source)
    if name == "gnp":
        if p is None:
            p = min(1.0, 4.0 * math.log(max(2, n)) / n)
        return gnp(n, p, seed=seed, source=source)
    if name == "dumbbell":
        bridge = min(4, max(0, n - 4))
        clique = (n - bridge) // 2
        if clique < 2:
            raise TopologyError(f"dumbbell needs n >= 4, got {n}")
        return dumbbell(clique, n - 2 * clique, source=source)
    if name == "unit_disk":
        if radius is None:
            radius = math.sqrt(8.0 * math.log(max(2, n)) / (math.pi * n))
        return unit_disk(n, radius, seed=seed, source=source)
    raise TopologyError(f"unknown topology {name!r}; choose from {TOPOLOGY_NAMES}")
