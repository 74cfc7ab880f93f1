"""Property tests: the sparse (CSR push) kernel equals the dense kernel bit for bit.

Random small graphs — isolated nodes and edgeless graphs included — with
``(n,)`` and ``(batch, n)`` masks.  Batched draws mix rows with clean
listeners, rows with none, and all-silent rows, so ``resolve_channel``'s
row-subset sender pass runs on the sparse operand too.  Union operands
(several graphs, a row→graph map) are checked row by row against a dense
operand over each row's own graph.  The sparse sender gather is also
checked against the id-weighted ``bincount`` it replaced.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sim.core import DenseOperand, SparseOperand, resolve_channel
from repro.sim.core.channel import SparsePush

FIELDS = ("counts", "clean", "collided", "silent", "senders")


def _csr(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.concatenate([[0], np.cumsum(adj.sum(axis=1))])
    return indptr, np.nonzero(adj)[1]


def _line(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int8)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = 1
    return adj


def _weighted_sender_ids(push: SparsePush, size: int) -> np.ndarray:
    """Reference sender ids: the id-weighted neighbour count (float64, exact).

    At a count-1 listener the sum holds one sender id, so it is that id.
    """
    degrees = np.diff(push.ends, prepend=0)
    weights = np.repeat(push.senders.astype(np.float64), degrees)
    return np.bincount(push.keys, weights=weights, minlength=size).astype(np.int64)


def _assert_gather_matches_weighted_count(op, transmit, listen):
    push = op.prepare_transmit(transmit)
    clean = listen & (op.transmit_counts(push) == 1)
    got = op.sender_ids(push, clean).ravel()[clean.ravel()]
    want = _weighted_sender_ids(push, clean.size)[clean.ravel()]
    assert np.array_equal(got, want)


def _assert_fields_equal(got_round, want_round):
    for field in FIELDS:
        want, got = getattr(want_round, field), getattr(got_round, field)
        assert got.dtype == want.dtype, field
        assert got.shape == want.shape, field
        assert np.array_equal(got, want), field


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
    op = SparseOperand(*_csr(adj))
    _assert_fields_equal(resolve_channel(op, transmit, listen), dense)
    _assert_gather_matches_weighted_count(op, transmit, listen)



@st.composite
def union_cases(draw):
    """``(graphs, graph_of_row, transmit, listen)`` for a union operand.

    1–4 graphs of one size, isolated nodes allowed, so some transmitters
    have degree 0 and the cumulative degrees repeat.  Each row is drawn
    as random, empty (nothing transmits or listens) or all-transmit.
    ``batch`` None is a ``(n,)`` mask, which runs on row 0's graph.
    """
    n = draw(st.integers(1, 10))
    graphs = []
    for _ in range(draw(st.integers(1, 4))):
        adj = np.triu(draw(_bools((n, n))), k=1)
        graphs.append((adj | adj.T).astype(np.int8))
    batch = draw(st.sampled_from([None, 1, 2, 4, 6]))
    rows = 1 if batch is None else batch
    graph_of_row = np.array(
        draw(st.lists(st.integers(0, len(graphs) - 1), min_size=rows, max_size=rows))
    )
    transmit = draw(_bools((rows, n)))
    listen = draw(_bools((rows, n))) & ~transmit
    for row in range(rows):
        kind = draw(st.sampled_from(["random", "empty", "all-transmit"]))
        if kind != "random":
            transmit[row] = kind == "all-transmit"
            listen[row] = False
    if batch is None:
        transmit, listen = transmit[0], listen[0]
    return graphs, graph_of_row, transmit, listen


# Two graphs on 5 nodes: a line, and the edges 0-1 and 2-4 with node 3
# isolated.  Rows on the second graph transmit from 0, 3 and 4, whose
# degrees 1, 0, 1 repeat the cumulative degree: listener 2 hears node 4
# in the slot where that repeat sits.
_SPLIT = np.zeros((5, 5), dtype=np.int8)
_SPLIT[[0, 1, 2, 4], [1, 0, 4, 2]] = 1
_UNION_REPEATED_ENDS = (
    [_line(5), _SPLIT],
    np.array([1, 0, 1]),
    np.array([[1, 0, 0, 1, 1], [1, 0, 0, 1, 0], [1, 0, 0, 1, 1]], dtype=bool),
    np.array([[0, 1, 1, 0, 0], [0, 1, 1, 0, 1], [0, 0, 1, 0, 0]], dtype=bool),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(union_cases())
@example(_UNION_REPEATED_ENDS)
def test_union_rows_equal_dense_on_their_own_graph(case):
    graphs, graph_of_row, transmit, listen = case
    union = SparseOperand.union([SparseOperand(*_csr(adj)) for adj in graphs], graph_of_row)
    got = resolve_channel(union, transmit, listen)
    if transmit.ndim == 1:
        dense = resolve_channel(DenseOperand(graphs[graph_of_row[0]]), transmit, listen)
        _assert_fields_equal(got, dense)
    else:
        for row, graph in enumerate(graph_of_row):
            dense = resolve_channel(DenseOperand(graphs[graph]), transmit[row], listen[row])
            _assert_fields_equal(got.row(row), dense)
    _assert_gather_matches_weighted_count(union, transmit, listen)
