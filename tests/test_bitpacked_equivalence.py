"""Bit-packed channel backend: bitwise-identical runs vs dense and sparse.

The bit-packed popcount backend must reproduce the other two backends
*exactly* — same informed sets, same round counts, same channel totals,
same per-round ground-truth traces — on every topology family, every
protocol, mixed-backend batches, and faulted runs whose edge flips force
the packed operand to be rebuilt mid-run.  Plus the packing layer's own
contract: ``pack_mask``/``unpack_mask`` round-trip for every n, including
sizes not divisible by 64 (tail-word masking).
"""

import numpy as np
import pytest

from repro.params import ProtocolParams
from repro.sim import ArrayEngine, BatchEngine, BatchItem, DecayArrayProtocol
from repro.sim.core import (
    BitOperand,
    batch,
    resolve_channel_backend,
    select_kernel_operand,
)
from repro.sim.core.channel import pack_mask, unpack_mask
from repro.sim.faults import EdgeFlip, FaultSchedule
from repro.sim.runners import run_broadcast
from repro.sim.topology import from_spec, gnp, line

FAST = ProtocolParams.fast()
DENSE = FAST.with_overrides(channel_backend="dense")
SPARSE = FAST.with_overrides(channel_backend="sparse")
BITPACKED = FAST.with_overrides(channel_backend="bitpacked")

#: The full topology suite: diameter-bound, contention-bound, geometric,
#: bottleneck, and both random regimes.
FAMILIES = ("line", "ring", "star", "grid", "gnp", "dumbbell", "unit_disk")


def run_three(protocol, family, seed, **kwargs):
    net = from_spec(family, 24, seed=seed)
    return tuple(
        run_broadcast(protocol, net, params, seed=seed, trace=True, **kwargs)
        for params in (DENSE, SPARSE, BITPACKED)
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("protocol", ["decay", "ghk"])
def test_broadcast_backends_are_bitwise_identical(family, seed, protocol):
    dense, sparse, bit = run_three(protocol, family, seed)
    assert bit.rounds_to_delivery == dense.rounds_to_delivery
    assert bit.informed_rounds == dense.informed_rounds
    assert bit.budget == dense.budget
    assert bit.sim.history == dense.sim.history  # per-round ground truth
    assert bit.sim == dense.sim  # channel totals and early-stop flag too
    assert bit == dense  # the full result dataclasses match field-for-field
    assert bit == sparse


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [1, 3])
def test_multimessage_backends_are_bitwise_identical(family, k):
    dense, sparse, bit = run_three(
        "multimessage", family, seed=1, options={"k_messages": k}
    )
    assert bit.rounds_to_delivery == dense.rounds_to_delivery
    assert bit.informed_rounds == dense.informed_rounds
    assert bit.message_rounds == dense.message_rounds
    assert bit.sim.history == dense.sim.history
    assert bit == dense
    assert bit == sparse


class TestFaultedRuns:
    """Edge flips rebuild the operand mid-run; the packed rebuild must keep
    every backend on the same trajectory (same perceived rounds, same
    totals), fault schedule included."""

    #: Two structurally different schedules: pure topology churn, and
    #: churn combined with message loss (which consumes extra randomness).
    SCHEDULES = (
        FaultSchedule(
            edge_flips=(
                EdgeFlip(round_index=2, u=0, v=5),
                EdgeFlip(round_index=4, u=1, v=2),
                EdgeFlip(round_index=7, u=0, v=5),
            )
        ),
        FaultSchedule(
            edge_flips=(
                EdgeFlip(round_index=1, u=3, v=9),
                EdgeFlip(round_index=6, u=3, v=9),
            ),
            loss_rate=0.2,
        ),
    )

    @pytest.mark.parametrize("schedule_index", [0, 1])
    @pytest.mark.parametrize("family", ["grid", "gnp"])
    def test_faulted_runs_are_bitwise_identical(self, schedule_index, family):
        schedule = self.SCHEDULES[schedule_index]
        net = from_spec(family, 24, seed=2)
        results = [
            run_broadcast(
                "ghk", net, params, seed=2, trace=True, faults=schedule
            )
            for params in (DENSE, SPARSE, BITPACKED)
        ]
        dense, sparse, bit = results
        assert bit.sim.history == dense.sim.history
        assert bit.sim == dense.sim
        assert bit == dense
        assert bit == sparse

    def test_flip_rebuilds_a_bitpacked_operand(self):
        schedule = self.SCHEDULES[0]
        engine = ArrayEngine(
            from_spec("grid", 16, seed=0),
            DecayArrayProtocol(),
            params=BITPACKED,
            faults=schedule,
        )
        before = engine.round_operand()
        assert isinstance(before, BitOperand)
        engine.run(5)  # past the round-2 flip
        after = engine.round_operand()
        assert isinstance(after, BitOperand)
        assert after is not before
        assert not np.array_equal(after.words, before.words)


class TestPackRoundTrip:
    """pack/unpack are exact inverses, including tail-word masking."""

    @pytest.mark.parametrize(
        "n", [1, 3, 63, 64, 65, 127, 128, 129, 200, 1000]
    )
    def test_round_trip_all_sizes(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.1, 0.5, 1.0):
            mask = rng.random(n) < density
            words = pack_mask(mask)
            assert words.dtype == np.uint64
            assert words.shape == (-(-n // 64),)
            assert np.array_equal(unpack_mask(words, n), mask)

    @pytest.mark.parametrize("n", [5, 64, 70, 130])
    def test_round_trip_batched(self, n):
        rng = np.random.default_rng(n)
        mask = rng.random((4, n)) < 0.4
        words = pack_mask(mask)
        assert words.shape == (4, -(-n // 64))
        assert np.array_equal(unpack_mask(words, n), mask)

    @pytest.mark.parametrize("n", [1, 65, 127, 190])
    def test_tail_bits_beyond_n_stay_zero(self, n):
        # The packed form must never carry stray bits past n: popcounts
        # would silently overcount neighbours on every AND against them.
        mask = np.ones(n, dtype=bool)
        words = pack_mask(mask)
        if n % 64:
            assert int(words[-1]) >> (n % 64) == 0
        total = int(sum(bin(int(w)).count("1") for w in words))
        assert total == n

    def test_adjacency_packing_matches_pack_mask(self):
        net = gnp(70, 0.3, seed=5)
        op = BitOperand(*net.csr())
        expected = pack_mask(net.adjacency_matrix().astype(bool))
        assert np.array_equal(op.words, expected)


class TestBackendSelection:
    def test_explicit_backend_always_wins(self):
        net = from_spec("grid", 16, seed=0)
        assert resolve_channel_backend(net, BITPACKED) == "bitpacked"

    def test_auto_picks_bitpacked_for_large_dense_graphs(self, monkeypatch):
        # A real gnp(4096, 0.3) takes over a second to build, so lower the
        # bit-packed floor to the sparse one instead.
        dense_net = gnp(1024, 0.3, seed=0)  # density above the 0.25 threshold
        # Below the bitpacked floor the matmul keeps dense-density graphs.
        assert resolve_channel_backend(dense_net, FAST) == "dense"
        monkeypatch.setattr(batch, "BITPACKED_MIN_N", 1024)
        assert resolve_channel_backend(dense_net, FAST) == "bitpacked"
        # Sparse-density graphs still go to the CSR kernel, not bitpacked.
        assert resolve_channel_backend(line(1024), FAST) == "sparse"

    def test_select_builds_the_matching_operand(self):
        net = line(32)
        assert isinstance(select_kernel_operand(net, BITPACKED), BitOperand)

    def test_bitpacked_engine_never_builds_the_dense_matrix(self):
        # Like the CSR backend, the packed operand is built from CSR; any
        # adjacency_matrix() call would reintroduce the n² allocation.
        net = line(32)
        net.adjacency_matrix = None  # any access would raise TypeError
        engine = ArrayEngine(net, DecayArrayProtocol(), params=BITPACKED)
        engine.run(20)
        assert engine.backend == "bitpacked"


class TestBatchMixedBackends:
    def test_mixed_backend_items_do_not_share_an_operand(self):
        net = from_spec("grid", 16, seed=0)
        items = [
            BatchItem(
                network=net,
                protocol=DecayArrayProtocol(),
                budget=200,
                seed=s,
                params=params,
            )
            for s, params in enumerate([DENSE, SPARSE, BITPACKED, BITPACKED])
        ]
        engine = BatchEngine(items)
        backends = [e.backend for e in engine.engines]
        assert backends == ["dense", "sparse", "bitpacked", "bitpacked"]
        # One shared operand per backend, not per item.
        assert len({id(e.kernel_operand) for e in engine.engines}) == 3

    def test_mixed_backend_batch_results_are_identical_per_seed(self):
        net = from_spec("grid", 16, seed=0)
        items = [
            BatchItem(
                network=net,
                protocol=DecayArrayProtocol(),
                budget=200,
                seed=7,
                params=params,
            )
            for params in (DENSE, SPARSE, BITPACKED)
        ]
        dense_out, sparse_out, bit_out = BatchEngine(items).run()
        assert dense_out.completed == sparse_out.completed == bit_out.completed
        assert dense_out.sim == bit_out.sim
        assert sparse_out.sim == bit_out.sim
        assert np.array_equal(
            dense_out.item.protocol.informed_round,
            bit_out.item.protocol.informed_round,
        )
