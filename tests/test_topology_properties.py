"""Property tests: the CSR-native ``RadioNetwork`` against per-node references.

* ``_close_pairs`` (y-sorted strip sweep, each unordered pair once) plus
  ``from_edges`` equals the all-pairs unit-disk graph, one strip
  (``radius >= 1``), points on strip boundaries or in the clamped last
  strip, equal y values and pairs exactly ``radius`` apart included;
* ``csr_from_keys`` equals the ``divmod`` + ``bincount`` reference, rows
  with no keys included, and ``_sorted_distinct`` equals the int64
  ``np.unique`` at each edge of its narrow sort dtype;
* ``bfs_layers`` and ``eccentricity`` equal the FIFO-queue BFS of
  ``oracles.graph``, layer order included, on graphs deep enough that the
  pointer doubling behind them runs many passes, and ``diameter`` its
  largest eccentricity without caching a traversal per root;
* ``neighbors``/``degree``/``num_edges``/``adjacency_matrix`` are views of
  ``csr()``, and every cached accessor's arrays (``csr``,
  ``adjacency_matrix``, ``bfs_order``) are read-only;
* the neighbour-list constructor builds the same CSR as ``from_edges`` and
  rejects asymmetric input naming the first bad edge in row-major order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.graph import deque_bfs_layers
from repro.errors import TopologyError
from repro.sim.topology import RadioNetwork, _close_pairs, _sorted_distinct, csr_from_keys, line


def _all_pairs(pts: np.ndarray, radius: float) -> np.ndarray:
    """The reference unit-disk adjacency: every pair, dense."""
    delta = pts[:, None, :] - pts[None, :, :]
    close = (delta**2).sum(axis=2) <= radius * radius
    np.fill_diagonal(close, False)
    return close


def _assert_pairs_match_the_all_pairs_reference(pts: np.ndarray, radius: float) -> None:
    n = pts.shape[0]
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


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 400),
    radius=st.floats(0.02, 1.5),
    seed=st.integers(0, 2**32 - 1),
    snap=st.booleans(),
)
@example(n=1, radius=0.5, seed=0, snap=False)
@example(n=60, radius=1.5, seed=1, snap=False)  # one strip
@example(n=60, radius=1.0, seed=2, snap=True)  # one strip, points at y = 1 - ulp above y = 0
@example(n=200, radius=0.1, seed=3, snap=True)  # boundaries and the last strip
@example(n=300, radius=0.3, seed=4, snap=True)  # 1 / 0.3 is not an integer
def test_forward_cell_pairs_match_the_all_pairs_reference(n, radius, seed, snap):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    if snap:
        # Move some coordinates onto strip boundaries k * radius and some to
        # the largest double below 1, which bins into the clamped last strip.
        picks = rng.random((n, 2))
        on_edge = np.minimum(np.floor(pts / radius) * radius, np.nextafter(1.0, 0.0))
        pts = np.where(picks < 0.3, on_edge, pts)
        pts = np.where(picks > 0.9, np.nextafter(1.0, 0.0), pts)
    _assert_pairs_match_the_all_pairs_reference(pts, radius)


_TOP = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize(
    ("points", "radius"),
    [
        pytest.param(
            [(x, 0.5) for x in np.linspace(0.0, 1.0, 41)] + [(0.3, 0.5), (0.3, 0.5)],
            0.05,
            id="equal-y-on-a-row",
        ),
        pytest.param([(0.3, 0.25)] * 4 + [(0.7, 0.25)] * 3, 0.4, id="coincident-points"),
        pytest.param(
            [(0.0, 0.0), (0.0, _TOP), (_TOP, 0.0), (_TOP, _TOP), (0.5, 0.5)],
            1.0,
            id="one-strip-radius-1",
        ),
        pytest.param(
            [(0.0, 0.0), (_TOP, _TOP), (0.0, _TOP), (0.2, 0.9)], 1.5, id="one-strip-radius-1.5"
        ),
        # 3/16, 4/16 and 5/16 square exactly: a 3-4-5 triangle is exactly
        # radius long, here across a strip boundary, in both y orders.
        pytest.param(
            [(0.25, 0.5), (0.4375, 0.75), (0.25, 0.75), (0.4375, 0.5)],
            0.3125,
            id="exactly-radius-across-strips",
        ),
        pytest.param(
            [(0.125, 0.25), (0.125, 0.5), (0.375, 0.25)], 0.25, id="exactly-radius-on-an-axis"
        ),
        pytest.param(
            [(_TOP, _TOP), (_TOP, 0.95), (0.95, _TOP), (_TOP, 0.0), (0.0, _TOP)],
            0.05,
            id="one-ulp-below-1",
        ),
        # dy within radius, but the rounded keys of the last strip are
        # further apart than radius (and than radius·(1 + 1e-9) at the
        # smaller radius): the window needs slack of a few key ulps.
        pytest.param(
            [(_TOP, 0.024803201918761533), (_TOP, 0.04480320191876153)],
            0.02,
            id="key-rounding",
        ),
        pytest.param(
            [(_TOP, 0.23608200639766455), (_TOP, 0.23610752814949562)],
            2.5521751831074538e-05,
            id="key-rounding-tiny-radius",
        ),
    ],
)
def test_strip_sweep_edge_cases_match_the_all_pairs_reference(points, radius):
    _assert_pairs_match_the_all_pairs_reference(np.array(points, dtype=np.float64), radius)


def _csr_reference(n: int, keys: np.ndarray) -> tuple[list[int], list[int]]:
    rows, indices = np.divmod(keys, n)
    return [0, *np.cumsum(np.bincount(rows, minlength=n)).tolist()], indices.tolist()


@st.composite
def sorted_distinct_keys(draw):
    """``(n, keys)``: sorted distinct keys below ``n*n``, some rows left empty."""
    n = draw(st.integers(1, 40))
    keys = draw(st.sets(st.integers(0, n * n - 1), max_size=4 * n))
    empty = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return n, np.array(sorted(k for k in keys if k // n not in empty), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(sorted_distinct_keys())
@example(graph=(1, np.empty(0, dtype=np.int64)))
@example(graph=(5, np.empty(0, dtype=np.int64)))
@example(graph=(1, np.array([0], dtype=np.int64)))
@example(graph=(4, np.array([6, 7, 9, 11], dtype=np.int64)))  # rows 0 and 3 empty
@example(graph=(5, np.array([1, 4, 20, 24], dtype=np.int64)))  # rows 1-3 empty
def test_csr_from_keys_matches_the_divmod_reference(graph):
    n, keys = graph
    indptr, indices = csr_from_keys(n, keys)
    assert indptr.dtype == indices.dtype == np.int32
    assert (indptr.tolist(), indices.tolist()) == _csr_reference(n, keys)
    assert not indptr.flags.writeable and not indices.flags.writeable


@pytest.mark.parametrize(
    ("n", "dtype"), [(256, np.uint16), (65536, np.uint32), (65537, np.uint64)]
)
def test_sorted_distinct_matches_int64_unique_at_each_dtype_edge(n, dtype):
    assert np.min_scalar_type(n * n - 1) == dtype
    u = np.arange(n - 1, dtype=np.int64)
    # The line's directed keys in reverse order, duplicated, plus the
    # extreme keys 0 and n*n - 1 that the narrow dtype must still hold.
    keys = np.concatenate([(u + 1) * n + u, u * n + u + 1, [n * n - 1, 0, n * n - 1]])[::-1]
    keys = np.concatenate([keys, keys[::3]])
    got = _sorted_distinct(keys, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(keys))
    net = line(n)
    indptr, indices = net.csr()
    expected = _csr_reference(n, np.unique(np.concatenate([u * n + u + 1, (u + 1) * n + u])))
    assert (indptr.tolist(), indices.tolist()) == expected


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


@st.composite
def path_graphs(draw, min_n=300, max_n=600):
    """A path through a random node order plus span-2 chords: every BFS depth > 64.

    A root anywhere on the path is at least ``(n - 1) / 2`` positions from
    one end, and a chord skips one position, so that end is more than
    ``min_n / 4`` hops away.
    """
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    chords = draw(st.lists(st.integers(0, n - 3), max_size=n // 4))
    u = [order[i] for i in range(n - 1)] + [order[i] for i in chords]
    v = [order[i + 1] for i in range(n - 1)] + [order[i + 2] for i in chords]
    return n, u, v


_PATH = list(range(299))
_CLIQUE_U, _CLIQUE_V = np.triu_indices(12, 1)
#: Two 12-cliques joined through a 6-node bridge (nodes 11..18, then 18..29).
_DUMBBELL = (
    30,
    [*_CLIQUE_U.tolist(), *(_CLIQUE_U + 18).tolist(), *range(11, 18)],
    [*_CLIQUE_V.tolist(), *(_CLIQUE_V + 18).tolist(), *range(12, 19)],
)


def _assert_bfs_matches_the_oracle(graph, pick):
    n, u, v = graph
    net = RadioNetwork.from_edges(n, u, v)
    nbrs = [net.neighbors(w) for w in range(n)]
    root = pick % n
    expected = deque_bfs_layers(nbrs, root)
    assert net.bfs_layers(root) == expected
    assert net.eccentricity(root) == len(expected) - 1
    order, offsets = net.bfs_order(root)
    assert order.tolist() == [w for layer in expected for w in layer]
    assert offsets.tolist() == np.cumsum([0, *map(len, expected[:-1])]).tolist()
    assert net.bfs_layers() == deque_bfs_layers(nbrs, net.source)


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.integers(0, 2**16))
@example(graph=(300, _PATH, [w + 1 for w in _PATH]), pick=150)  # a path rooted mid-path
@example(graph=(300, _PATH, [w + 1 for w in _PATH]), pick=299)  # 299 layers of one node
@example(graph=_DUMBBELL, pick=0)
@example(graph=_DUMBBELL, pick=14)  # rooted on the bridge
@example(graph=(1, [], []), pick=0)
def test_bfs_layers_match_the_deque_oracle(graph, pick):
    _assert_bfs_matches_the_oracle(graph, pick)


@settings(max_examples=50, deadline=None)
@given(path_graphs(), st.integers(0, 2**16))
def test_bfs_layers_match_the_deque_oracle_on_deep_paths(graph, pick):
    _assert_bfs_matches_the_oracle(graph, pick)


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
@example(graph=_DUMBBELL)
def test_diameter_matches_the_oracle_and_caches_at_most_the_source(graph):
    n, u, v = graph
    net = RadioNetwork.from_edges(n, u, v)
    nbrs = [net.neighbors(w) for w in range(n)]
    assert net.diameter() == max(len(deque_bfs_layers(nbrs, w)) - 1 for w in range(n))
    assert set(net._orders) <= {net.source}
    assert not net._layers


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_derived_views_agree_with_csr(graph):
    n, u, v = graph
    net = RadioNetwork.from_edges(n, u, v)
    indptr, indices = net.csr()
    assert indptr.dtype == indices.dtype == np.int32
    assert net.num_edges * 2 == indices.size == indptr[-1]
    mat = net.adjacency_matrix()
    for w in range(n):
        row = indices[indptr[w] : indptr[w + 1]]
        assert net.neighbors(w) == tuple(row.tolist())
        assert net.degree(w) == row.size
        assert np.nonzero(mat[w])[0].tolist() == row.tolist()
    assert (mat == mat.T).all()
    order, offsets = net.bfs_order(0)
    for array in (indptr, indices, mat, order, offsets):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


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
