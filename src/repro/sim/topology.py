"""Radio-network topologies.

A :class:`RadioNetwork` is an undirected, connected graph with a designated
broadcast source.  The engine only ever sees the adjacency structure; all
the generators below exist so that protocols can be exercised on the graph
families the paper's guarantees must survive: long paths (diameter-bound),
stars and cliques (contention-bound), grids and unit-disk graphs (the
geometric radio setting), sparse random graphs, and "dumbbell" graphs whose
narrow bridge stresses progress through a single bottleneck edge.

The adjacency is held in exactly one form, read-only CSR arrays, built by
one vectorized builder (sort the directed edge keys ``u*n + v``, drop
duplicates, count rows); both constructors and every generator go through
it, so no per-node Python object is materialized at build time.  Every
generator validates its output (connected, source present, no self loops)
and is deterministic given its seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro.errors import TopologyError
from repro.sim.rng import stream

__all__ = [
    "RadioNetwork",
    "csr_from_keys",
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


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted with duplicates dropped.

    Sorting and dropping each key equal to its predecessor gives the same
    result as ``np.unique``, whose hash-based path is many times slower on
    these int64 keys.
    """
    keys = np.sort(keys)
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def csr_from_keys(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR ``(indptr, indices)`` from sorted, distinct keys ``u*n + v``.

    Sorted directed-edge keys are already in CSR order (row-major,
    ascending neighbours), so the column of each key is its index entry
    and the row counts give ``indptr``.
    """
    rows, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


class RadioNetwork:
    """An undirected connected graph plus a broadcast source node.

    The only stored adjacency is the CSR pair from :meth:`csr`;
    :meth:`neighbors`, :meth:`degree`, :attr:`num_edges`,
    :meth:`adjacency_matrix` and :meth:`adjacency_key` are derived from
    it.  Construction validates the structure once; afterwards the
    instance is immutable and caches the derived views the engine and
    the budgets reuse (dense matrix, topology key, BFS layers, diameter).
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
        rows = [list(nbrs) for nbrs in neighbors]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        v = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum())
        )
        u = np.repeat(np.arange(n, dtype=np.int64), lengths)
        bad = (u == v) | (v < 0) | (v >= n)
        if bad.any():
            first = int(np.argmax(bad))
            a, b = int(u[first]), int(v[first])
            if a == b:
                raise TopologyError(f"self-loop at node {a}")
            raise TopologyError(f"edge ({a}, {b}) out of range for {n} nodes")
        keys = _sorted_distinct(u * n + v)
        # Symmetric iff the reversed keys are the same set.  Both arrays
        # hold the same number of distinct keys, so a mismatch always
        # leaves some forward key without its reverse; reporting the first
        # one in key order names the first (u, v) in row-major order.
        src, dst = np.divmod(keys, n)
        reverse = np.sort(dst * n + src)
        if not np.array_equal(keys, reverse):
            at = np.minimum(np.searchsorted(reverse, keys), keys.size - 1)
            first = int(np.argmax(reverse[at] != keys))
            raise TopologyError(
                f"edge ({int(src[first])}, {int(dst[first])}) is not symmetric"
            )
        self._adopt(n, keys, source, name)

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
        validation) with array operations only and no n×n intermediate;
        every generator in this module builds through it.
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
        keys = _sorted_distinct(np.concatenate([u * n + v, v * n + u]))
        net = object.__new__(cls)
        net._adopt(n, keys, source, name)
        return net

    def _adopt(self, n: int, keys: np.ndarray, source: int, name: str) -> None:
        """Shared constructor tail: CSR from the keys, source and connectivity checks."""
        if not 0 <= source < n:
            raise TopologyError(f"source {source} out of range for {n} nodes")
        self._n = n
        self._csr = csr_from_keys(n, keys)
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
        """Node ``v``'s neighbours in ascending order (a fresh tuple per call)."""
        indptr, indices = self._csr
        return tuple(indices[indptr[v] : indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        indptr = self._csr[0]
        return int(indptr[v + 1] - indptr[v])

    @property
    def num_edges(self) -> int:
        return int(self._csr[0][-1]) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 matrix, cached; the dense channel backend's operand.

        Scattered from the CSR in one vectorized assignment.  The returned
        array is the cache itself, marked read-only: a caller mutating it
        would silently corrupt every later run (and the batch engine's
        topology grouping), so writes raise ``ValueError``.
        """
        if self._adjacency is None:
            indptr, indices = self._csr
            mat = np.zeros((self._n, self._n), dtype=np.int8)
            mat[np.repeat(np.arange(self._n), np.diff(indptr)), indices] = 1
            mat.setflags(write=False)
            self._adjacency = mat
        return self._adjacency

    def cached_adjacency(self) -> np.ndarray | None:
        """The dense matrix if :meth:`adjacency_matrix` has built it, else ``None``.

        Never builds it: checks of the cache (the sanitizer's) must not
        force a Θ(n²) allocation or count as a use.
        """
        return self._adjacency

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR neighbour arrays ``(indptr, indices)``, read-only int64.

        ``indices[indptr[v]:indptr[v+1]]`` lists node ``v``'s neighbours in
        ascending order.  This is the network's one stored adjacency (and
        the sparse channel backend's operand), so requesting it is free and
        never materializes the dense n×n matrix.  Both arrays are marked
        read-only for the same reason as :meth:`adjacency_matrix`.
        """
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

        ``layers[d]`` holds every node at distance exactly ``d``, in the
        order a FIFO breadth-first search discovers them (frontier order,
        then ascending neighbour id); unreachable nodes (only possible
        during construction) are absent.
        """
        root = self._source if root is None else root
        if not 0 <= root < self._n:
            raise TopologyError(f"root {root} out of range for {self._n} nodes")
        if root not in self._layers:
            # One layer-synchronous loop over the CSR as Python lists.
            # Per-frontier numpy calls would cost more than they save:
            # there can be n layers of one node each (a line).
            indptr, indices = self._csr
            ptr, nbr = indptr.tolist(), indices.tolist()
            seen = bytearray(self._n)
            seen[root] = 1
            frontier = [root]
            layers: list[tuple[int, ...]] = []
            while frontier:
                layers.append(tuple(frontier))
                nxt: list[int] = []
                for u in frontier:
                    for v in nbr[ptr[u] : ptr[u + 1]]:
                        if not seen[v]:
                            seen[v] = 1
                            nxt.append(v)
                frontier = nxt
            self._layers[root] = tuple(layers)
        return self._layers[root]

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
    u = np.arange(n - 1, dtype=np.int64)
    return RadioNetwork.from_edges(n, u, u + 1, source=source, name=f"line-{n}")


def ring(n: int, *, source: int = 0) -> RadioNetwork:
    """Cycle on ``n`` nodes (n >= 3)."""
    _check_size(n, 3)
    u = np.arange(n, dtype=np.int64)
    return RadioNetwork.from_edges(n, u, (u + 1) % n, source=source, name=f"ring-{n}")


def star(n: int, *, source: int = 0) -> RadioNetwork:
    """Node 0 is the hub, nodes 1..n-1 are leaves; the contention-stress case."""
    _check_size(n, 2)
    leaves = np.arange(1, n, dtype=np.int64)
    return RadioNetwork.from_edges(
        n, np.zeros_like(leaves), leaves, source=source, name=f"star-{n}"
    )


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
    idx = np.arange(n, dtype=np.int64)
    across = idx[(idx % cols != cols - 1) & (idx + 1 < n)]
    down = idx[idx + cols < n]
    return RadioNetwork.from_edges(
        n,
        np.concatenate([across, down]),
        np.concatenate([across + 1, down + cols]),
        source=source,
        name=f"grid-{rows}x{cols}-n{n}",
    )


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
    right = clique_size + bridge_length  # first node of the second clique
    a, b = np.triu_indices(clique_size, 1)
    # clique_size - 1 -> bridge nodes -> right: the only way across.
    chain = np.arange(clique_size - 1, right + 1, dtype=np.int64)
    return RadioNetwork.from_edges(
        n,
        np.concatenate([a, a + right, chain[:-1]]),
        np.concatenate([b, b + right, chain[1:]]),
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
    """Index pairs ``(i, j)`` within ``radius`` of each other, each unordered pair once.

    Cell binning: points are bucketed into a grid of radius-sized cells, so
    any two points within ``radius`` sit in the same or in adjacent cells.
    Sorting the points by cell id ``cx * cells + cy`` makes every column a
    contiguous run, so a point's *forward* cells are two contiguous runs of
    the sorted order: the later points of its own cell together with the
    cell above it, then the three cells of the next column.  Pairing each
    point with its forward runs visits every pair of the 3×3 neighbourhood
    exactly once, in two vectorized range expansions.  The predicate
    ``dx*dx + dy*dy <= r*r`` is the all-pairs one and is sign-symmetric in
    IEEE arithmetic (``a - b`` is exactly ``-(b - a)``), so evaluating it in
    one orientation keeps every seed's graph bit-identical.
    """
    n = pts.shape[0]
    cells = max(1, math.ceil(1.0 / radius))
    cx = np.minimum((pts[:, 0] / radius).astype(np.int64), cells - 1)
    cy = np.minimum((pts[:, 1] / radius).astype(np.int64), cells - 1)
    cid = cx * cells + cy
    order = np.argsort(cid, kind="stable")
    cid, cx, cy = cid[order], cx[order], cy[order]
    xs, ys = pts[order, 0], pts[order, 1]
    at = np.arange(n, dtype=np.int64)
    # Run 1: own cell after this point, through the cell above (when the
    # column has one).  Run 2: rows cy-1..cy+1 of the next column; past the
    # last column those ids exceed every cell id, so the run is empty.
    own_hi = np.searchsorted(cid, cid + (cy < cells - 1), side="right")
    nxt = (cx + 1) * cells
    next_lo = np.searchsorted(cid, nxt + np.maximum(cy - 1, 0), side="left")
    next_hi = np.searchsorted(cid, nxt + np.minimum(cy + 1, cells - 1), side="right")
    lo = np.concatenate([at + 1, next_lo])
    counts = np.concatenate([own_hi, next_hi]) - lo
    total = int(counts.sum())
    left = np.repeat(np.concatenate([at, at]), counts)
    right = np.arange(total, dtype=np.int64) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    dxs = xs[left] - xs[right]
    dys = ys[left] - ys[right]
    keep = (dxs * dxs + dys * dys) <= radius * radius
    return order[left[keep]], order[right[keep]]


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
    radius-sized cells are compared, each pair once, so building the graph costs
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
