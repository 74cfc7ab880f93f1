"""Property tests: the CSR-native ``RadioNetwork`` against per-node references.

* ``_close_pairs`` (forward-cell enumeration, each unordered pair once)
  plus ``from_edges`` equals the all-pairs unit-disk graph, ``cells == 1``
  and points on cell boundaries or in the clamped last cell included;
* ``bfs_layers`` equals the FIFO-queue BFS of ``oracles.graph``, layer
  order included, and ``diameter`` its largest eccentricity;
* ``neighbors``/``degree``/``num_edges``/``adjacency_matrix`` are views of
  ``csr()``, and every stored array stays read-only;
* the neighbour-list constructor builds the same CSR as ``from_edges`` and
  rejects asymmetric input naming the first bad edge in row-major order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.graph import deque_bfs_layers
from repro.errors import TopologyError
from repro.sim.topology import RadioNetwork, _close_pairs


def _all_pairs(pts: np.ndarray, radius: float) -> np.ndarray:
    """The reference unit-disk adjacency: every pair, dense."""
    delta = pts[:, None, :] - pts[None, :, :]
    close = (delta**2).sum(axis=2) <= radius * radius
    np.fill_diagonal(close, False)
    return close


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 400),
    radius=st.floats(0.02, 1.5),
    seed=st.integers(0, 2**32 - 1),
    snap=st.booleans(),
)
@example(n=1, radius=0.5, seed=0, snap=False)
@example(n=60, radius=1.5, seed=1, snap=False)  # cells == 1
@example(n=60, radius=1.0, seed=2, snap=True)  # cells == 1, points at x = 1 - ulp
@example(n=200, radius=0.1, seed=3, snap=True)  # boundaries and the last cell
@example(n=300, radius=0.3, seed=4, snap=True)  # 1 / 0.3 is not an integer
def test_forward_cell_pairs_match_the_all_pairs_reference(n, radius, seed, snap):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    if snap:
        # Move some coordinates onto cell boundaries k * radius and some to
        # the largest double below 1, which bins into the clamped last cell.
        picks = rng.random((n, 2))
        on_edge = np.minimum(np.floor(pts / radius) * radius, np.nextafter(1.0, 0.0))
        pts = np.where(picks < 0.3, on_edge, pts)
        pts = np.where(picks > 0.9, np.nextafter(1.0, 0.0), pts)
    left, right = _close_pairs(pts, radius)
    assert not (left == right).any()
    lo, hi = np.minimum(left, right), np.maximum(left, right)
    keys = np.sort(lo * n + hi)
    assert not (keys[1:] == keys[:-1]).any(), "a pair was emitted twice"
    close = _all_pairs(pts, radius)
    ref_u, ref_v = np.nonzero(np.triu(close))
    assert keys.tolist() == (ref_u * n + ref_v).tolist()

    nbrs = [np.nonzero(row)[0].tolist() for row in close]
    reached = sum(map(len, deque_bfs_layers(nbrs, 0)))
    try:
        net = RadioNetwork.from_edges(n, left, right)
    except TopologyError:
        assert reached < n
        return
    indptr, indices = net.csr()
    assert indptr.tolist() == [0, *np.cumsum(close.sum(axis=1)).tolist()]
    assert indices.tolist() == np.nonzero(close)[1].tolist()


@st.composite
def connected_graphs(draw, max_n=40):
    """A random connected graph as (n, u, v): a random spanning tree plus extras."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    extra = draw(st.lists(pair, max_size=2 * n)) if n > 1 else []
    u = [order[p] for p in parents] + [a for a, _ in extra]
    v = [order[i] for i in range(1, n)] + [b for _, b in extra]
    return n, u, v


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.data())
def test_bfs_layers_match_the_deque_oracle(graph, data):
    n, u, v = graph
    net = RadioNetwork.from_edges(n, u, v)
    nbrs = [net.neighbors(w) for w in range(n)]
    root = data.draw(st.integers(0, n - 1))
    assert net.bfs_layers(root) == deque_bfs_layers(nbrs, root)
    assert net.bfs_layers() == deque_bfs_layers(nbrs, net.source)
    assert net.diameter() == max(len(deque_bfs_layers(nbrs, w)) - 1 for w in range(n))


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_derived_views_agree_with_csr(graph):
    n, u, v = graph
    net = RadioNetwork.from_edges(n, u, v)
    indptr, indices = net.csr()
    assert indptr.dtype == indices.dtype == np.int64
    assert net.num_edges * 2 == indices.size == indptr[-1]
    mat = net.adjacency_matrix()
    for w in range(n):
        row = indices[indptr[w] : indptr[w + 1]]
        assert net.neighbors(w) == tuple(row.tolist())
        assert net.degree(w) == row.size
        assert np.nonzero(mat[w])[0].tolist() == row.tolist()
    assert (mat == mat.T).all()
    for array in (indptr, indices, mat):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0  # simlint: disable=SL004


def _first_asymmetric_edge(rows):
    """The old constructor's check: first (u, v), row-major, with u not in rows[v]."""
    adj = [sorted(set(r)) for r in rows]
    for a, nbrs in enumerate(adj):
        for b in nbrs:
            if a not in adj[b]:
                return a, b
    return None


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_n=20), st.data())
def test_list_constructor_matches_from_edges_and_names_asymmetry(graph, data):
    n, u, v = graph
    by_edges = RadioNetwork.from_edges(n, u, v)
    rows = [list(by_edges.neighbors(w)) for w in range(n)]
    # Shuffle and duplicate entries: the constructor sorts and dedups.
    for row in rows:
        row.extend(data.draw(st.lists(st.sampled_from(row), max_size=2)) if row else [])
        row.reverse()
    by_lists = RadioNetwork(rows)
    assert by_lists.adjacency_key() == by_edges.adjacency_key()
    # Drop some directed entries: asymmetric unless nothing was dropped.
    drops = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    for w in drops:
        if rows[w]:
            rows[w] = rows[w][1:]
    bad = _first_asymmetric_edge(rows)
    if bad is None:
        return
    with pytest.raises(TopologyError, match=rf"edge \({bad[0]}, {bad[1]}\) is not symmetric"):
        RadioNetwork(rows)
