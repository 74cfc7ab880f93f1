"""Unit tests for the pure channel kernel (single-instance and batched)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.core import (
    BitOperand,
    DenseOperand,
    SparseOperand,
    adjacency_operand,
    as_kernel_operand,
    resolve_channel,
    round_stats,
)
from repro.sim.core import channel as channel_module
from repro.sim.core.channel import operand_from_csr
from repro.sim.topology import RadioNetwork, from_spec, gnp, line, star


def _operand(net):
    return adjacency_operand(net.adjacency_matrix())


class TestSingleInstance:
    def test_counts_are_transmitting_neighbour_counts(self):
        net = star(5, source=0)  # hub 0, leaves 1-4
        adj = _operand(net)
        transmit = np.array([False, True, True, False, False])
        listen = ~transmit
        # hub hears both transmitting leaves; each leaf only neighbours the
        # (silent) hub
        ch = resolve_channel(adj, transmit, listen)
        assert ch.counts.tolist() == [2, 0, 0, 0, 0]

    def test_outcome_masks_partition_the_listeners(self):
        net = line(5)  # 0-1-2-3-4
        adj = _operand(net)
        transmit = np.array([True, False, True, False, False])
        listen = np.array([False, True, False, True, False])  # node 4 sleeps
        ch = resolve_channel(adj, transmit, listen)
        # node 1 hears 0 and 2 collide; node 3 cleanly hears 2
        assert ch.collided.tolist() == [False, True, False, False, False]
        assert ch.clean.tolist() == [False, False, False, True, False]
        assert ch.silent.tolist() == [False, False, False, False, False]
        # every listener lands in exactly one mask; non-listeners in none
        union = ch.clean | ch.collided | ch.silent
        assert union.tolist() == listen.tolist()

    def test_senders_identify_the_unique_transmitting_neighbour(self):
        net = line(4)  # 0-1-2-3
        adj = _operand(net)
        transmit = np.array([False, False, True, False])
        listen = np.array([True, True, False, True])
        ch = resolve_channel(adj, transmit, listen)
        assert ch.clean.tolist() == [False, True, False, True]
        assert ch.senders[1] == 2
        assert ch.senders[3] == 2
        # senders are zeroed (not garbage) outside the clean mask, so they
        # are always safe to use as indices
        assert ch.senders[0] == 0
        assert ch.senders[2] == 0

    def test_all_silent_round_has_zero_senders(self):
        net = line(3)
        adj = _operand(net)
        transmit = np.zeros(3, dtype=bool)
        listen = np.ones(3, dtype=bool)
        ch = resolve_channel(adj, transmit, listen)
        assert ch.silent.all()
        assert not ch.clean.any()
        assert ch.senders.tolist() == [0, 0, 0]

    def test_round_stats_materialization(self):
        net = line(4)
        adj = _operand(net)
        transmit = np.array([True, False, True, False])
        listen = np.array([False, True, False, True])
        ch = resolve_channel(adj, transmit, listen)
        stats = round_stats(7, transmit, ch)
        assert stats.round_index == 7
        assert stats.transmitters == (0, 2)
        # node 1 hears 0 and 2 collide; node 3 cleanly hears 2
        assert stats.deliveries == ((3, 2),)
        assert stats.collisions == (1,)
        # everything is plain python ints (traces must compare across paths)
        assert all(isinstance(t, int) for t in stats.transmitters)
        assert all(isinstance(v, int) for pair in stats.deliveries for v in pair)


class TestBatched:
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    def test_batched_resolution_equals_per_row(self, graph_seed):
        net = gnp(20, 0.25, seed=graph_seed)
        adj = _operand(net)
        rng = np.random.default_rng(graph_seed)
        transmit = rng.random((6, 20)) < 0.3
        listen = ~transmit & (rng.random((6, 20)) < 0.7)
        batched = resolve_channel(adj, transmit, listen)
        for i in range(6):
            single = resolve_channel(adj, transmit[i], listen[i])
            row = batched.row(i)
            assert np.array_equal(row.counts, single.counts)
            assert np.array_equal(row.clean, single.clean)
            assert np.array_equal(row.collided, single.collided)
            assert np.array_equal(row.silent, single.silent)
            assert np.array_equal(
                row.senders[single.clean], single.senders[single.clean]
            )

    @pytest.mark.parametrize("backend", ["dense", "sparse", "bitpacked"])
    def test_batched_counts_match_per_row_counts(self, backend):
        # One fused (batch, n) call must equal the rows counted one by one.
        op = operand_from_csr(backend, *from_spec("grid", 16, seed=0).csr())
        rng = np.random.default_rng(0)
        transmit = rng.random((6, op.n)) < 0.5
        batched = op.transmit_counts(op.prepare_transmit(transmit))
        single = np.stack(
            [op.transmit_counts(op.prepare_transmit(row)) for row in transmit]
        )
        assert np.array_equal(batched, single)

    def test_batch_shapes_carry_the_leading_axis(self):
        net = line(5)
        adj = _operand(net)
        transmit = np.zeros((3, 5), dtype=bool)
        transmit[:, 0] = True
        listen = ~transmit
        ch = resolve_channel(adj, transmit, listen)
        assert ch.counts.shape == (3, 5)
        assert ch.clean.shape == (3, 5)
        assert ch.senders.shape == (3, 5)


class TestOperand:
    def test_rejects_non_square_input(self):
        with pytest.raises(SimulationError, match="square"):
            adjacency_operand(np.zeros((3, 4)))

    def test_operand_is_float64_and_exact(self):
        net = star(40, source=0)
        adj = _operand(net)
        assert adj.dtype == np.float64
        transmit = np.zeros(40, dtype=bool)
        transmit[1:] = True  # all 39 leaves transmit at the hub
        listen = ~transmit
        ch = resolve_channel(adj, transmit, listen)
        assert ch.counts[0] == 39

    def test_raw_matrix_normalizes_to_a_dense_operand(self):
        op = as_kernel_operand(line(4).adjacency_matrix())
        assert isinstance(op, DenseOperand)
        assert op.backend == "dense"
        # Already-wrapped operands pass through untouched.
        assert as_kernel_operand(op) is op


class TestSparseOperand:
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    @pytest.mark.parametrize("batched", [False, True])
    def test_sparse_resolution_is_bitwise_identical_to_dense(
        self, graph_seed, batched
    ):
        net = gnp(30, 0.2, seed=graph_seed)
        dense = DenseOperand(net.adjacency_matrix())
        sparse = SparseOperand(*net.csr())
        assert sparse.backend == "sparse"
        rng = np.random.default_rng(graph_seed)
        shape = (7, 30) if batched else (30,)
        transmit = rng.random(shape) < 0.3
        listen = ~transmit & (rng.random(shape) < 0.7)
        a = resolve_channel(dense, transmit, listen)
        b = resolve_channel(sparse, transmit, listen)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.clean, b.clean)
        assert np.array_equal(a.collided, b.collided)
        assert np.array_equal(a.silent, b.silent)
        assert np.array_equal(a.senders, b.senders)
        assert a.counts.dtype == b.counts.dtype
        assert a.senders.dtype == b.senders.dtype

    def test_single_node_graph_resolves_to_silence(self):
        # n=1, no edges: the CSR arrays are empty and every round is silent.
        op = SparseOperand(np.array([0, 0]), np.array([], dtype=np.int64))
        ch = resolve_channel(
            op, np.zeros(1, dtype=bool), np.ones(1, dtype=bool)
        )
        assert ch.silent.tolist() == [True]
        assert ch.senders.tolist() == [0]

    def test_rejects_malformed_csr(self):
        with pytest.raises(SimulationError, match="indptr"):
            SparseOperand(np.array([1, 2]), np.array([0, 1]))  # starts at 1
        with pytest.raises(SimulationError, match="indptr"):
            SparseOperand(np.array([0, 2, 1]), np.array([0]))  # decreasing
        with pytest.raises(SimulationError, match="node ids"):
            SparseOperand(np.array([0, 1, 2]), np.array([0, 5]))  # id >= n


class TestBitOperand:
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    @pytest.mark.parametrize("batched", [False, True])
    def test_bitpacked_resolution_is_bitwise_identical_to_dense(
        self, graph_seed, batched
    ):
        # n=70 straddles a word boundary, so tail-word masking is exercised.
        net = gnp(70, 0.2, seed=graph_seed)
        dense = DenseOperand(net.adjacency_matrix())
        bit = BitOperand(*net.csr())
        assert bit.backend == "bitpacked"
        assert bit.words.shape == (70, 2)
        rng = np.random.default_rng(graph_seed)
        shape = (7, 70) if batched else (70,)
        transmit = rng.random(shape) < 0.3
        listen = ~transmit & (rng.random(shape) < 0.7)
        a = resolve_channel(dense, transmit, listen)
        b = resolve_channel(bit, transmit, listen)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.clean, b.clean)
        assert np.array_equal(a.collided, b.collided)
        assert np.array_equal(a.silent, b.silent)
        assert np.array_equal(a.senders, b.senders)
        assert a.counts.dtype == b.counts.dtype
        assert a.senders.dtype == b.senders.dtype

    def test_lut_fallback_matches_native_popcount(self):
        words = np.random.default_rng(0).integers(
            0, 2**64, size=(11, 5), dtype=np.uint64
        )
        expected = np.array(
            [[bin(int(w)).count("1") for w in row] for row in words],
            dtype=np.uint8,
        )
        assert np.array_equal(channel_module._popcount_lut(words), expected)
        if channel_module.HAVE_BITWISE_COUNT:
            assert np.array_equal(np.bitwise_count(words), expected)

    def test_forced_lut_fallback_resolves_identically(self, monkeypatch):
        # Force the numpy<2 code path regardless of the installed numpy:
        # BitOperand resolves `popcount64` at call time, so patching the
        # module global reroutes every kernel popcount through the LUT.
        monkeypatch.setattr(
            channel_module, "popcount64", channel_module._popcount_lut
        )
        net = gnp(70, 0.25, seed=3)
        dense = DenseOperand(net.adjacency_matrix())
        bit = BitOperand(*net.csr())
        rng = np.random.default_rng(3)
        transmit = rng.random((5, 70)) < 0.3
        listen = ~transmit
        a = resolve_channel(dense, transmit, listen)
        b = resolve_channel(bit, transmit, listen)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.senders, b.senders)

    def test_single_node_graph_resolves_to_silence(self):
        op = BitOperand(np.array([0, 0]), np.array([], dtype=np.int64))
        ch = resolve_channel(
            op, np.zeros(1, dtype=bool), np.ones(1, dtype=bool)
        )
        assert ch.silent.tolist() == [True]
        assert ch.senders.tolist() == [0]

    def test_rejects_malformed_csr(self):
        with pytest.raises(SimulationError, match="indptr"):
            BitOperand(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(SimulationError, match="node ids"):
            BitOperand(np.array([0, 1, 2]), np.array([0, 5]))

    def test_partial_batch_sender_gating(self):
        # Only some batch rows have clean listeners: the per-row gate must
        # still produce exact senders on those rows and zeros elsewhere.
        net = line(6)
        bit = BitOperand(*net.csr())
        dense = DenseOperand(net.adjacency_matrix())
        transmit = np.zeros((3, 6), dtype=bool)
        listen = np.zeros((3, 6), dtype=bool)
        transmit[0, 2] = True          # row 0: clean deliveries at 1 and 3
        listen[0] = ~transmit[0]
        transmit[1, 1] = transmit[1, 3] = True  # row 1: node 2 collides
        listen[1, 2] = True
        # row 2: all silent listeners
        listen[2] = True
        a = resolve_channel(dense, transmit, listen)
        b = resolve_channel(bit, transmit, listen)
        assert np.array_equal(a.senders, b.senders)
        assert b.senders[0, 1] == 2 and b.senders[0, 3] == 2
        assert not b.clean[1].any() and not b.clean[2].any()
        assert (b.senders[1:] == 0).all()


class TestDisjointnessPrecondition:
    """The kernel itself must reject overlapping transmit/listen masks.

    Only the engine used to check, so direct kernel callers (tests, future
    backends, batched paths) silently got wrong physics on overlap.
    """

    @pytest.mark.parametrize("make_op", [
        lambda net: _operand(net),
        lambda net: DenseOperand(net.adjacency_matrix()),
        lambda net: SparseOperand(*net.csr()),
        lambda net: BitOperand(*net.csr()),
    ])
    def test_unbatched_overlap_rejected(self, make_op):
        op = make_op(line(4))
        transmit = np.array([True, False, True, False])
        listen = np.array([False, True, True, False])  # node 2 does both
        with pytest.raises(SimulationError, match="half-duplex.*node 2"):
            resolve_channel(op, transmit, listen)

    @pytest.mark.parametrize("make_op", [
        lambda net: DenseOperand(net.adjacency_matrix()),
        lambda net: SparseOperand(*net.csr()),
        lambda net: BitOperand(*net.csr()),
    ])
    def test_batched_overlap_rejected_with_instance_index(self, make_op):
        op = make_op(line(4))
        transmit = np.zeros((3, 4), dtype=bool)
        listen = np.zeros((3, 4), dtype=bool)
        transmit[:, 0] = True
        listen[:, 1:] = True
        listen[2, 0] = True  # batch row 2, node 0 does both
        with pytest.raises(
            SimulationError, match="half-duplex.*batch row 2.*node 0"
        ):
            resolve_channel(op, transmit, listen)

    def test_shape_mismatches_rejected(self):
        op = DenseOperand(line(4).adjacency_matrix())
        with pytest.raises(SimulationError, match="same shape"):
            resolve_channel(op, np.zeros(4, dtype=bool), np.zeros(3, dtype=bool))
        with pytest.raises(SimulationError, match=r"\(n,\) or \(batch, n\)"):
            resolve_channel(op, np.zeros(5, dtype=bool), np.zeros(5, dtype=bool))


class TestSenderZeroConvention:
    """`senders` is 0 outside `clean` — and a 0 *inside* clean is a real
    delivery from node id 0, so the two cases must stay distinguishable."""

    @pytest.mark.parametrize("make_op", [
        lambda net: DenseOperand(net.adjacency_matrix()),
        lambda net: SparseOperand(*net.csr()),
        lambda net: BitOperand(*net.csr()),
    ])
    def test_clean_delivery_from_node_zero_on_a_star(self, make_op):
        # Hub 0 transmits alone: every leaf is clean with sender id 0,
        # identical to the placeholder value outside the mask — only the
        # clean mask separates them.
        net = star(6, source=0)
        op = make_op(net)
        transmit = np.zeros(6, dtype=bool)
        transmit[0] = True
        listen = ~transmit
        ch = resolve_channel(op, transmit, listen)
        assert ch.clean.tolist() == [False, True, True, True, True, True]
        assert ch.senders.tolist() == [0, 0, 0, 0, 0, 0]
        stats = round_stats(0, transmit, ch)
        assert stats.deliveries == ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0))

    def test_node_zero_delivery_in_a_line_middle(self):
        # Node 0 in the middle of a custom line 1-0-2: both ends hear a
        # clean transmission whose sender id is 0.
        net = RadioNetwork([[1, 2], [0], [0]])
        transmit = np.array([True, False, False])
        listen = np.array([False, True, True])
        ch = resolve_channel(DenseOperand(net.adjacency_matrix()), transmit, listen)
        assert ch.clean.tolist() == [False, True, True]
        assert ch.senders.tolist() == [0, 0, 0]
