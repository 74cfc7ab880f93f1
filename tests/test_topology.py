"""Tests for RadioNetwork and the topology generators."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.sim import topology
from repro.sim.topology import (
    RadioNetwork,
    dumbbell,
    from_spec,
    gnp,
    grid2d,
    line,
    ring,
    star,
    unit_disk,
)


def assert_valid(net: RadioNetwork):
    """Structural invariants every generator must satisfy."""
    mat = net.adjacency_matrix()
    assert mat.shape == (net.n, net.n)
    assert (mat == mat.T).all(), "adjacency must be symmetric"
    assert (np.diag(mat) == 0).all(), "no self-loops"
    assert sum(len(layer) for layer in net.bfs_layers()) == net.n, "connected"
    assert 0 <= net.source < net.n


class TestRadioNetwork:
    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            RadioNetwork([])

    def test_rejects_bad_source(self):
        with pytest.raises(TopologyError):
            RadioNetwork([[1], [0]], source=5)

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            RadioNetwork([[0, 1], [0]])

    def test_rejects_asymmetric_edges(self):
        with pytest.raises(TopologyError, match="not symmetric"):
            RadioNetwork([[1], []])

    def test_rejects_disconnected(self):
        with pytest.raises(TopologyError, match="disconnected"):
            RadioNetwork([[1], [0], [3], [2]])

    @pytest.mark.parametrize(("source", "unreachable"), [(0, 3), (6, 5)])
    def test_disconnected_message_counts_the_unreachable_nodes(self, source, unreachable):
        # A path 0-1-2-3-4 and a path 5-6-7: both constructors name how many
        # nodes the source's traversal missed.
        u, v = [0, 1, 2, 3, 5, 6], [1, 2, 3, 4, 6, 7]
        rows = [[] for _ in range(8)]
        for a, b in zip(u, v):
            rows[a].append(b)
            rows[b].append(a)
        message = (
            f"graph is disconnected: {unreachable} of 8 nodes unreachable from source {source}"
        )
        with pytest.raises(TopologyError, match=f"^{message}$"):
            RadioNetwork(rows, source=source)
        with pytest.raises(TopologyError, match=f"^{message}$"):
            RadioNetwork.from_edges(8, u, v, source=source)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(TopologyError):
            RadioNetwork([[7], [0]])

    def test_single_node(self):
        for net in (RadioNetwork([[]]), RadioNetwork.from_edges(1, [], []), line(1)):
            assert net.n == 1
            order, offsets = net.bfs_order()
            assert order.tolist() == [0] and offsets.tolist() == [0]
            assert net.eccentricity() == 0
            assert net.diameter() == 0
            assert net.bfs_layers() == ((0,),)

    def test_bfs_layers_and_distances(self):
        net = line(5)
        layers = net.bfs_layers()
        assert layers == ((0,), (1,), (2,), (3,), (4,))
        assert net.eccentricity() == 4
        assert net.bfs_layers(2) == ((2,), (1, 3), (0, 4))
        assert net.eccentricity(2) == 2
        with pytest.raises(TopologyError, match="root 5 out of range"):
            net.bfs_layers(5)
        with pytest.raises(TopologyError, match="root -1 out of range"):
            net.eccentricity(-1)

    def test_bfs_order_is_cached_read_only_and_builds_no_layers(self):
        net = ring(6)
        order, offsets = net.bfs_order(2)
        assert order.tolist() == [2, 1, 3, 0, 4, 5]
        assert offsets.tolist() == [0, 1, 3, 5]
        assert net.bfs_order(2)[0] is order  # cached, not re-traversed
        for array in (order, offsets):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert net.eccentricity() == 3
        assert not net._layers  # construction and eccentricity read the arrays only
        assert net.bfs_layers(2) == ((2,), (1, 3), (0, 4), (5,))

    def test_line_of_2_pow_16_nodes_has_a_layer_per_node(self):
        net = line(2**16)
        assert net.eccentricity() == 2**16 - 1
        assert len(net.bfs_layers()) == 2**16
        assert net.eccentricity(2**15) == 2**15

    def test_adjacency_matrix_is_read_only(self):
        # The cached matrix is handed out directly; a writable cache would
        # let one careless caller corrupt every later run and the batch
        # engine's topology grouping.
        net = line(5)
        mat = net.adjacency_matrix()
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 1] = 0
        with pytest.raises(ValueError, match="read-only"):
            net.adjacency_matrix()[:] = 1
        # The cache itself is intact.
        assert net.adjacency_matrix()[0, 1] == 1
        assert net.adjacency_matrix()[0, 3] == 0

    def test_adjacency_key_is_csr_based_and_cached(self):
        net = line(5)
        indptr, indices = net.csr()
        expected = (
            np.int64(net.n).tobytes() + indptr.tobytes() + indices.tobytes()
        )
        assert net.adjacency_key() == expected
        assert net.adjacency_key() is net.adjacency_key()  # cached, not rebuilt

    def test_adjacency_key_never_builds_the_dense_matrix(self):
        # The key exists so the batch engine can group huge sparse graphs;
        # deriving it from the matrix would defeat the point at large n.
        net = line(6)
        net.adjacency_matrix = None  # any access would raise
        assert isinstance(net.adjacency_key(), bytes)

    def test_adjacency_key_distinguishes_topologies(self):
        assert line(5).adjacency_key() == line(5).adjacency_key()
        assert line(5).adjacency_key() != ring(5).adjacency_key()

    def test_csr_matches_the_dense_matrix(self):
        for net in (line(7), ring(6), star(5), grid2d(3, 4), dumbbell(3, 2)):
            indptr, indices = net.csr()
            assert indptr[0] == 0 and indptr[-1] == indices.size == 2 * net.num_edges
            mat = net.adjacency_matrix()
            for v in range(net.n):
                row = indices[indptr[v] : indptr[v + 1]]
                assert row.tolist() == sorted(np.nonzero(mat[v])[0].tolist())
                assert row.tolist() == list(net.neighbors(v))

    def test_csr_is_read_only_and_cached(self):
        net = line(5)
        indptr, indices = net.csr()
        with pytest.raises(ValueError, match="read-only"):
            indices[0] = 3
        with pytest.raises(ValueError, match="read-only"):
            indptr[0] = 1
        assert net.csr()[0] is indptr  # cached, not rebuilt

    def test_csr_single_node(self):
        indptr, indices = RadioNetwork([[]]).csr()
        assert indptr.tolist() == [0, 0]
        assert indices.size == 0

    def test_list_constructor_symmetry_check_is_not_quadratic(self):
        # The neighbour-list constructor used to test symmetry with
        # `u not in adj[v]` on tuples, O(sum of deg^2): a hub of degree
        # 2^15 took tens of seconds.  The key-array check is O(m log m).
        n = 1 << 15
        rows = [list(range(1, n))] + [[0]] * (n - 1)
        net = RadioNetwork(rows, name="hub")
        assert net.adjacency_key() == star(n).adjacency_key()
        assert net.num_edges == n - 1


class TestFromEdges:
    def test_matches_the_neighbor_list_constructor(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        u, v = zip(*edges)
        by_edges = RadioNetwork.from_edges(4, u, v, name="x")
        by_lists = RadioNetwork([[1, 3, 2], [0, 2], [1, 3, 0], [2, 0]], name="x")
        assert by_edges.n == by_lists.n
        assert all(
            by_edges.neighbors(i) == by_lists.neighbors(i) for i in range(4)
        )
        assert by_edges.adjacency_key() == by_lists.adjacency_key()
        assert (by_edges.adjacency_matrix() == by_lists.adjacency_matrix()).all()

    def test_duplicate_and_reversed_edges_are_deduplicated(self):
        net = RadioNetwork.from_edges(3, [0, 1, 1, 2], [1, 0, 2, 1])
        assert net.num_edges == 2
        assert net.neighbors(1) == (0, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(TopologyError, match="at least one node"):
            RadioNetwork.from_edges(0, [], [])
        with pytest.raises(TopologyError, match="matching length"):
            RadioNetwork.from_edges(3, [0, 1], [1])
        with pytest.raises(TopologyError, match="out of range"):
            RadioNetwork.from_edges(3, [0], [7])
        with pytest.raises(TopologyError, match="self-loop at node 1"):
            RadioNetwork.from_edges(3, [0, 1], [1, 1])
        with pytest.raises(TopologyError, match="disconnected"):
            RadioNetwork.from_edges(4, [0, 2], [1, 3])
        with pytest.raises(TopologyError, match="source"):
            RadioNetwork.from_edges(2, [0], [1], source=5)

    @pytest.mark.parametrize("seed", range(5))
    def test_csr_matches_np_unique_on_random_duplicated_edges(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        chain = np.arange(n - 1)  # keeps the graph connected
        extra_u = rng.integers(0, n, size=3 * n)
        extra_v = rng.integers(0, n, size=3 * n)
        keep = extra_u != extra_v
        u = np.concatenate([chain, extra_u[keep], extra_u[keep][: n // 2]])
        v = np.concatenate([chain + 1, extra_v[keep], extra_v[keep][: n // 2]])
        order = rng.permutation(u.size)
        indptr, indices = RadioNetwork.from_edges(n, u[order], v[order]).csr()
        enc = np.unique(np.concatenate([u * n + v, v * n + u]))
        rows, cols = np.divmod(enc, n)
        assert indices.tolist() == cols.tolist()
        assert indptr.tolist() == [0, *np.cumsum(np.bincount(rows, minlength=n)).tolist()]

    def test_no_edges_single_node_is_valid(self):
        net = RadioNetwork.from_edges(1, [], [])
        assert net.n == 1
        assert net.diameter() == 0


class TestGenerators:
    def test_large_star_builds_its_csr(self):
        n = 1 << 15
        net = star(n)
        indptr, indices = net.csr()
        assert indptr.tolist() == [0, *range(n - 1, 2 * n - 1)]
        assert indices.tolist() == [*range(1, n), *[0] * (n - 1)]
        assert net.degree(0) == n - 1 and net.neighbors(n - 1) == (0,)
        assert net.eccentricity() == 1

    @pytest.mark.parametrize(
        ("net", "n", "edges", "diameter"),
        [
            (line(10), 10, 9, 9),
            (ring(10), 10, 10, 5),
            (star(10), 10, 9, 2),
            (grid2d(4, 5), 20, 31, 7),
        ],
    )
    def test_deterministic_families(self, net, n, edges, diameter):
        assert_valid(net)
        assert net.n == n
        assert net.num_edges == edges
        assert net.diameter() == diameter

    def test_grid_truncated_to_n(self):
        net = grid2d(n=11)
        assert_valid(net)
        assert net.n == 11

    def test_grid_truncation_stays_connected_for_every_small_n(self):
        # Property sweep: row-major truncation must keep the grid connected
        # (and exactly n nodes) for every size, not just the perfect squares.
        for n in range(1, 65):
            net = grid2d(n=n)
            assert net.n == n, n
            assert sum(len(layer) for layer in net.bfs_layers()) == n, n

    @pytest.mark.parametrize("n", list(range(4, 21)) + [33, 34, 63, 64])
    def test_from_spec_dumbbell_has_exactly_n_nodes(self, n):
        # Property sweep over odd and even n from the n=4 boundary up: the
        # bridge-length arithmetic must land on exactly n nodes either way.
        net = from_spec("dumbbell", n)
        assert_valid(net)
        assert net.n == n

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_from_spec_dumbbell_small_n_structure(self, n):
        # The bridge = min(4, n-4) / clique = (n-bridge)//2 interplay at the
        # boundary: two 2-cliques plus an (n-4)-node bridge, connected,
        # exactly n nodes, and the cliques really are cliques.
        net = from_spec("dumbbell", n)
        assert_valid(net)
        assert net.n == n
        assert 1 in net.neighbors(0)
        # Far corner is clique-hop + bridge + clique-hop away.
        assert net.eccentricity(0) == (n - 4) + 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_from_spec_dumbbell_below_four_is_a_clear_error(self, n):
        # Below n=4 there is no room for two 2-cliques; the spec must say
        # so instead of emitting a wrong-sized or disconnected graph.
        with pytest.raises(TopologyError, match="dumbbell needs n >= 4"):
            from_spec("dumbbell", n)

    def test_grid_rejects_ambiguous_or_missing_dims(self):
        with pytest.raises(TopologyError, match="not both"):
            grid2d(3, n=9)
        with pytest.raises(TopologyError, match="rows/cols or n"):
            grid2d()

    def test_dumbbell_structure(self):
        net = dumbbell(8, 4)
        assert_valid(net)
        assert net.n == 20
        # clique nodes see each other
        assert net.degree(0) == 7
        # far clique is beyond the bridge
        assert net.eccentricity(0) == 1 + 4 + 1 + 1

    def test_dumbbell_zero_bridge(self):
        net = dumbbell(3, 0)
        assert_valid(net)
        assert net.n == 6

    def test_gnp_connected_and_deterministic(self):
        a = gnp(50, 0.15, seed=3)
        b = gnp(50, 0.15, seed=3)
        assert_valid(a)
        assert a.num_edges == b.num_edges
        assert (a.adjacency_matrix() == b.adjacency_matrix()).all()

    def test_gnp_seed_changes_graph(self):
        a = gnp(50, 0.15, seed=3)
        b = gnp(50, 0.15, seed=4)
        assert not (a.adjacency_matrix() == b.adjacency_matrix()).all()

    def test_gnp_gives_up_when_hopeless(self):
        with pytest.raises(TopologyError, match="disconnected"):
            gnp(30, 0.0, seed=0)

    def test_gnp_bad_source_fails_fast_not_as_disconnection(self):
        # An always-connected graph with an invalid source must report the
        # source problem, not burn retries and claim disconnection.
        with pytest.raises(TopologyError, match="source 999 out of range"):
            gnp(50, 0.9, source=999)

    def test_unit_disk_connected_and_deterministic(self):
        a = unit_disk(40, 0.35, seed=1)
        b = unit_disk(40, 0.35, seed=1)
        assert_valid(a)
        assert (a.adjacency_matrix() == b.adjacency_matrix()).all()

    def test_unit_disk_gives_up_when_hopeless(self):
        with pytest.raises(TopologyError):
            unit_disk(30, 0.001, seed=0)

    @pytest.mark.parametrize(
        ("n", "radius", "seed"),
        [(40, 0.35, 1), (60, 0.25, 3), (7, 1.5, 0), (25, 0.3, 2), (30, 0.28, 7)],
    )
    def test_unit_disk_cell_binning_matches_all_pairs_reference(self, n, radius, seed):
        # The strip-swept generator must keep the exact seeds-to-graph map
        # of the all-pairs version it replaced: same point stream, same
        # retry loop, same float comparison — so reimplement that version
        # here (including retries) and compare adjacency byte-for-byte.
        from repro.sim.rng import stream

        def all_pairs_reference():
            for attempt in range(50):
                rng = stream(seed, 2, attempt)
                pts = rng.random((n, 2))
                delta = pts[:, None, :] - pts[None, :, :]
                close = (delta**2).sum(axis=2) <= radius * radius
                np.fill_diagonal(close, False)
                nbrs = [np.nonzero(close[u])[0].tolist() for u in range(n)]
                try:
                    return RadioNetwork(nbrs, name="ref")
                except TopologyError:
                    continue
            raise AssertionError("reference never connected")

        net = unit_disk(n, radius, seed=seed)
        ref = all_pairs_reference()
        assert (net.adjacency_matrix() == ref.adjacency_matrix()).all()

    def test_gnp_edge_count_tracks_the_expectation(self):
        # Edge sampling must still *be* G(n, p): the binomial edge count
        # concentrates around p·C(n,2) (wide tolerance, deterministic seed).
        n, p = 200, 0.1
        expected = p * n * (n - 1) / 2
        counts = [gnp(n, p, seed=s).num_edges for s in range(5)]
        for count in counts:
            assert 0.8 * expected < count < 1.2 * expected
        assert len(set(counts)) > 1  # seeds actually vary the graph

    def test_gnp_p_one_is_the_complete_graph(self):
        net = gnp(12, 1.0, seed=0)
        assert net.num_edges == 12 * 11 // 2

    def test_gnp_dense_p_stays_fast_via_complement_sampling(self):
        # Rejection sampling alone hits the coupon-collector tail as p -> 1
        # (minutes at n=1000, p=0.99); the complement branch keeps dense
        # requests O(pairs).  Generous wall-clock bound so CI noise never
        # flakes it, but the pre-fix behaviour exceeded it by orders of
        # magnitude.
        import time

        pairs = 300 * 299 // 2
        start = time.perf_counter()
        net = gnp(300, 0.97, seed=0)
        assert time.perf_counter() - start < 5.0
        assert 0.95 * pairs < net.num_edges <= pairs

    @pytest.mark.parametrize("bad_call", [
        lambda: line(0),
        lambda: ring(2),
        lambda: star(1),
        lambda: grid2d(0, 3),
        lambda: dumbbell(1),
        lambda: dumbbell(4, -1),
        lambda: gnp(10, 1.5),
        lambda: unit_disk(10, -0.1),
        lambda: gnp(10, 0.9, source=99),
        lambda: unit_disk(10, 0.9, source=-1),
    ])
    def test_invalid_arguments(self, bad_call):
        with pytest.raises(TopologyError):
            bad_call()


class TestFromSpec:
    @pytest.mark.parametrize("name", topology.TOPOLOGY_NAMES)
    def test_every_family_buildable(self, name):
        net = from_spec(name, 24, seed=0)
        assert_valid(net)
        assert net.n == 24

    def test_unknown_name(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            from_spec("torus", 16)


#: sha256 of ``adjacency_key()`` and of ``repr(bfs_layers(root))`` (from the
#: source and from node n // 2), keyed ``family/n/seed``.  Every family ×
#: n ∈ {64, 1024} × graph seeds 0-7 was recorded from the neighbour-tuple
#: implementation the CSR builder replaced (it covers the benchmark's eight
#: unit-disk graphs n=1024); unit_disk n=4096 seeds 0-1, n=16384 seed 0 and
#: gnp and grid n=4096 seed 0 were recorded from the cell-binned builder, so
#: the builder is pinned at scale too.
PINNED = json.loads(
    (Path(__file__).parent / "fixtures" / "topology_sha256.json").read_text()
)
_PINNED_SEEDS: dict[tuple[str, int], list[int]] = {}
for _key in sorted(PINNED):
    _family, _n, _seed = _key.split("/")
    _PINNED_SEEDS.setdefault((_family, int(_n)), []).append(int(_seed))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    ("family", "n"), sorted(_PINNED_SEEDS), ids=[f"{f}-{n}" for f, n in sorted(_PINNED_SEEDS)]
)
def test_graphs_are_byte_identical_to_the_pinned_table(family, n):
    for seed in _PINNED_SEEDS[family, n]:
        pins = PINNED[f"{family}/{n}/{seed}"]
        net = from_spec(family, n, seed=seed)
        assert _sha(net.adjacency_key()) == pins["adjacency_key"], seed
        assert _sha(repr(net.bfs_layers()).encode()) == pins["bfs_layers_source"], seed
        assert _sha(repr(net.bfs_layers(n // 2)).encode()) == pins["bfs_layers_mid"], seed
