"""Property test: the sparse (CSR push) kernel equals the dense kernel bit for bit.

Random small graphs — isolated nodes and edgeless graphs included — with
``(n,)`` and ``(batch, n)`` masks.  Batched draws mix rows with clean
listeners, rows with none, and all-silent rows, so ``resolve_channel``'s
row-subset sender pass runs on the sparse operand too.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sim.core import DenseOperand, SparseOperand, resolve_channel

FIELDS = ("counts", "clean", "collided", "silent", "senders")


def _csr(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.concatenate([[0], np.cumsum(adj.sum(axis=1))])
    return indptr, np.nonzero(adj)[1]


def _line(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int8)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = 1
    return adj


def _bools(shape):
    # fill=nothing() draws every element, so masks vary entry by entry
    # instead of being one fill value with a few exceptions.
    return hnp.arrays(np.bool_, shape, elements=st.booleans(), fill=st.nothing())


@st.composite
def channel_cases(draw):
    """``(adjacency, transmit, listen)``: a symmetric 0/1 graph, disjoint masks."""
    n = draw(st.integers(1, 12))
    upper = draw(_bools((n, n)))
    adj = np.triu(upper, k=1)
    adj = (adj | adj.T).astype(np.int8)
    batch = draw(st.sampled_from([None, 1, 3, 5]))
    shape = (n,) if batch is None else (batch, n)
    transmit = draw(_bools(shape))
    listen = draw(_bools(shape)) & ~transmit
    return adj, transmit, listen


# Edgeless graph (m = 0) with a transmitter.
_EMPTY = (np.zeros((4, 4), dtype=np.int8), np.eye(4, dtype=bool)[0], ~np.eye(4, dtype=bool)[0])
# Node 0 is the only sender: its clean listeners carry sender id 0.
_ZERO_SENDER = (_line(5), np.eye(5, dtype=bool)[0], ~np.eye(5, dtype=bool)[0])
# Line 0-1-2-3 plus isolated node 4, batched: a row with clean listeners,
# an all-silent row, and a collision-only row with no clean listener.
_MIXED_ROWS = (
    np.pad(_line(4), ((0, 1), (0, 1))),
    np.array([[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 1, 0, 0]], dtype=bool),
    np.array([[0, 1, 1, 1, 1], [1, 1, 1, 1, 1], [0, 1, 0, 0, 1]], dtype=bool),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(channel_cases())
@example(_EMPTY)
@example(_ZERO_SENDER)
@example(_MIXED_ROWS)
def test_sparse_resolution_equals_dense_bitwise(case):
    adj, transmit, listen = case
    dense = resolve_channel(DenseOperand(adj), transmit, listen)
    sparse = resolve_channel(SparseOperand(*_csr(adj)), transmit, listen)
    for field in FIELDS:
        want, got = getattr(dense, field), getattr(sparse, field)
        assert got.dtype == want.dtype, field
        assert got.shape == want.shape, field
        assert np.array_equal(got, want), field
