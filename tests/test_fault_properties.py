"""Property test: the fault layer's flipped adjacency equals a neighbour-set mirror.

:class:`~repro.sim.faults.FaultState` tracks edge flips as one sorted
array of directed keys ``u*n + v`` that each flip toggles, and derives the
current CSR, the rebuilt kernel operand and the jammers' cover from it.
The oracle is the per-node form it replaced (``oracles.graph``): one
mutable neighbour set per node.  Random connected graphs, random flip
sequences (repeats, re-adds and same-round pairs included) and jammer
windows, on the dense and the sparse backend.  The crash and jammer
windows, kept as arrays, are checked against the loop over the schedule
they replaced (``oracles.faults``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.faults import loop_crash_mask, loop_jam_cover
from oracles.graph import NeighborSetMirror
from repro.params import ProtocolParams
from repro.sim import EdgeFlip, FaultSchedule, FaultState, Jammer, NodeCrash
from repro.sim.core import ChannelRound, DenseOperand, resolve_channel, select_kernel_operand
from repro.sim.rng import row_key
from repro.sim.topology import RadioNetwork

FAST = ProtocolParams.fast()
FIELDS = ("counts", "clean", "collided", "silent", "senders")


@st.composite
def flip_cases(draw):
    """``(network, schedule, backend)`` on a random connected graph."""
    n = draw(st.integers(2, 16))
    order = draw(st.permutations(range(n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    extra = draw(st.lists(pair, max_size=2 * n))
    u = [*order[:-1], *(a for a, _ in extra)]
    v = [*order[1:], *(b for _, b in extra)]
    net = RadioNetwork.from_edges(n, u, v, source=order[0])
    flips = draw(
        st.lists(
            st.builds(lambda r, p: EdgeFlip(r, *p), st.integers(0, 8), pair),
            max_size=12,
        )
    )
    jammers = draw(
        st.lists(
            st.builds(
                lambda node, start, length: Jammer(node, start, start + length),
                st.integers(0, n - 1),
                st.integers(0, 8),
                st.integers(1, 4),
            ),
            max_size=3,
        )
    )
    backend = draw(st.sampled_from(["dense", "sparse"]))
    return net, FaultSchedule(edge_flips=tuple(flips), jammers=tuple(jammers)), backend


@settings(max_examples=150, deadline=None)
@given(flip_cases())
def test_flipped_adjacency_matches_the_neighbor_set_mirror(case):
    net, schedule, backend = case
    params = FAST.with_overrides(channel_backend=backend)
    state = FaultState(
        schedule, net, select_kernel_operand(net, params), row_key(0)
    )
    mirror = NeighborSetMirror(net)
    pending = sorted(schedule.edge_flips, key=lambda f: (f.round_index, f.u, f.v))
    applied = 0
    listen = np.ones(net.n, dtype=bool)
    quiet = np.zeros(net.n, dtype=bool)
    everyone_silent = ChannelRound(
        counts=np.zeros(net.n, dtype=np.int64),
        clean=quiet,
        collided=quiet,
        silent=listen,
        senders=np.zeros(net.n, dtype=np.int64),
    )
    for round_index in range(14):
        state.begin_round(round_index)
        while applied < len(pending) and pending[applied].round_index <= round_index:
            mirror.flip(pending[applied].u, pending[applied].v)
            applied += 1
        assert state.adjacency_version == applied
        indptr, indices = state.current_csr()
        want_ptr, want_idx = mirror.csr()
        assert indptr.tolist() == want_ptr.tolist()
        assert indices.tolist() == want_idx.tolist()
        assert not indptr.flags.writeable and not indices.flags.writeable
        # The rebuilt operand resolves rounds like the mirror's dense matrix.
        transmit = np.arange(net.n) % 3 == round_index % 3
        got = resolve_channel(state.operand, transmit, ~transmit)
        mat = np.zeros((net.n, net.n), dtype=np.int8)
        for node, nbrs in enumerate(mirror.sets):
            mat[node, list(nbrs)] = 1
        want = resolve_channel(DenseOperand(mat), transmit, ~transmit)
        for field in FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        # Jam cover: every listener in an active jammer's closed
        # neighbourhood (on the current adjacency) perceives a collision.
        active = [j.node for j in schedule.jammers if j.active(round_index)]
        perceived = state.perceive(round_index, listen, everyone_silent)
        assert perceived.collided.tolist() == mirror.jam_cover(active).tolist()


@st.composite
def window_cases(draw):
    """``(network, schedule)``: crash and jammer windows, open-ended ones included."""
    n = draw(st.integers(2, 16))
    order = draw(st.permutations(range(n)))
    net = RadioNetwork.from_edges(n, order[:-1], order[1:], source=order[0])
    stop = st.one_of(st.none(), st.integers(1, 6))

    def window(kind):
        return st.builds(
            lambda node, start, length: kind(
                node, start, None if length is None else start + length
            ),
            st.integers(0, n - 1),
            st.integers(0, 10),
            stop,
        )

    crashes = draw(st.lists(window(NodeCrash), max_size=2 * n))
    jammers = draw(st.lists(window(Jammer), max_size=4))
    return net, FaultSchedule(crashes=tuple(crashes), jammers=tuple(jammers))


@settings(max_examples=150, deadline=None)
@given(window_cases(), st.integers(1, 4))
def test_window_arrays_match_the_per_fault_loop(case, rows):
    # Crash masks, crashed-node-round counters and jam covers of the
    # vectorized windows equal the loop over the schedule, round by round,
    # for one row and for a fused state's rows alike.
    net, schedule = case
    operand = select_kernel_operand(net, FAST)
    states = [
        FaultState(schedule, net, operand, row_key(row)) for row in range(rows)
    ]
    state = states[0] if rows == 1 else FaultState.fuse(states)
    shape = (net.n,) if rows == 1 else (rows, net.n)
    listen = np.ones(shape, dtype=bool)
    quiet = np.zeros(shape, dtype=bool)
    silent = ChannelRound(
        counts=np.zeros(shape, dtype=np.int64),
        clean=quiet,
        collided=quiet,
        silent=listen,
        senders=np.zeros(shape, dtype=np.int64),
    )
    crashed_rounds = 0
    for round_index in range(18):
        want = loop_crash_mask(schedule, net.n, round_index)
        got = state.begin_round(round_index)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tolist() == want.tolist()
            crashed_rounds += int(want.sum())
        cover = loop_jam_cover(schedule, net.csr(), round_index)
        perceived = state.perceive(round_index, listen, silent)
        want_collided = np.zeros(net.n, dtype=bool) if cover is None else cover
        assert (perceived.collided == want_collided).all()
    for counters in state.counters.reshape(-1, 4):
        assert state.totals(counters).crashed_node_rounds == crashed_rounds
