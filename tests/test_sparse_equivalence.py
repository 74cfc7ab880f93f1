"""Dense vs sparse channel backends: bitwise-identical runs.

The sparse CSR backend must reproduce the dense matmul backend *exactly* —
same informed sets, same round counts, same channel totals, same per-round
ground-truth traces — on every topology family and every protocol, because
backend selection is a speed/memory knob, never a semantics knob.  This is
the contract that lets ``auto`` pick per topology density without anyone
auditing the choice.
"""

import numpy as np
import pytest

from repro.params import ProtocolParams
from repro.sim import ArrayEngine, BatchEngine, BatchItem, DecayArrayProtocol
from repro.sim.core import (
    DenseOperand,
    SparseOperand,
    resolve_channel_backend,
    select_kernel_operand,
)
from repro.sim.core.batch import SPARSE_DENSITY_THRESHOLD, SPARSE_MIN_N
from repro.sim.runners import run_broadcast
from repro.sim.topology import from_spec, gnp, line

FAST = ProtocolParams.fast()
DENSE = FAST.with_overrides(channel_backend="dense")
SPARSE = FAST.with_overrides(channel_backend="sparse")

#: The full topology suite: diameter-bound, contention-bound, geometric,
#: bottleneck, and both random regimes.
FAMILIES = ("line", "ring", "star", "grid", "gnp", "dumbbell", "unit_disk")


def run_both(protocol, family, seed, **kwargs):
    net = from_spec(family, 24, seed=seed)
    dense = run_broadcast(protocol, net, DENSE, seed=seed, trace=True, **kwargs)
    sparse = run_broadcast(protocol, net, SPARSE, seed=seed, trace=True, **kwargs)
    return dense, sparse


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("protocol", ["decay", "ghk"])
def test_broadcast_backends_are_bitwise_identical(family, seed, protocol):
    dense, sparse = run_both(protocol, family, seed)
    assert sparse.rounds_to_delivery == dense.rounds_to_delivery
    assert sparse.informed_rounds == dense.informed_rounds
    assert sparse.budget == dense.budget
    assert sparse.sim.history == dense.sim.history  # per-round ground truth
    assert sparse.sim == dense.sim  # channel totals and early-stop flag too
    assert sparse == dense  # the full result dataclasses match field-for-field


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [1, 3])
def test_multimessage_backends_are_bitwise_identical(family, k):
    dense, sparse = run_both(
        "multimessage", family, seed=1, options={"k_messages": k}
    )
    assert sparse.rounds_to_delivery == dense.rounds_to_delivery
    assert sparse.informed_rounds == dense.informed_rounds
    assert sparse.message_rounds == dense.message_rounds
    assert sparse.sim.history == dense.sim.history
    assert sparse == dense


class TestBackendSelection:
    def test_explicit_backend_always_wins(self):
        net = from_spec("grid", 16, seed=0)
        assert resolve_channel_backend(net, DENSE) == "dense"
        assert resolve_channel_backend(net, SPARSE) == "sparse"

    def test_auto_uses_the_density_threshold(self):
        # At the size floor, density alone decides: a path (density ~2/n)
        # goes sparse, gnp at p = 0.3 (above the 0.25 threshold) stays on
        # the matmul, being below the bit-packed floor.
        assert SPARSE_MIN_N == 1024 and SPARSE_DENSITY_THRESHOLD == 0.25
        assert resolve_channel_backend(line(1024), FAST) == "sparse"
        assert resolve_channel_backend(gnp(1024, 0.3, seed=0), FAST) == "dense"

    def test_auto_keeps_small_networks_dense(self):
        # Below the size floor the matmul wins even on very sparse graphs,
        # so auto stays dense regardless of density.
        assert resolve_channel_backend(line(64), FAST) == "dense"
        assert resolve_channel_backend(line(1023), FAST) == "dense"
        assert resolve_channel_backend(line(1024), FAST) == "sparse"

    def test_select_builds_the_matching_operand(self):
        net = line(32)
        assert isinstance(select_kernel_operand(net, SPARSE), SparseOperand)
        assert isinstance(select_kernel_operand(net, DENSE), DenseOperand)

    def test_engine_exposes_its_backend(self):
        engine = ArrayEngine(line(16), DecayArrayProtocol(), params=SPARSE)
        assert engine.backend == "sparse"
        assert isinstance(engine.kernel_operand, SparseOperand)

    def test_sparse_engine_never_builds_the_dense_matrix(self):
        # The whole point of the CSR backend is staying free of n²
        # allocations; any adjacency_matrix() call would defeat it.
        net = line(32)
        net.adjacency_matrix = None  # any access would raise TypeError
        engine = ArrayEngine(net, DecayArrayProtocol(), params=SPARSE)
        engine.run(20)
        assert engine.backend == "sparse"


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
            for s, params in enumerate([DENSE, SPARSE, DENSE, SPARSE])
        ]
        engine = BatchEngine(items)
        backends = [e.backend for e in engine.engines]
        assert backends == ["dense", "sparse", "dense", "sparse"]
        # One shared operand per backend, not per item.
        assert len({id(e.kernel_operand) for e in engine.engines}) == 2

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
            for params in (DENSE, SPARSE)
        ]
        dense_out, sparse_out = BatchEngine(items).run()
        assert dense_out.completed == sparse_out.completed
        assert dense_out.sim == sparse_out.sim
        assert np.array_equal(
            dense_out.item.protocol.informed_round,
            sparse_out.item.protocol.informed_round,
        )
