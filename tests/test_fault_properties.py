"""Property test: the fault layer's flipped adjacency equals a neighbour-set mirror.

:class:`~repro.sim.faults.FaultState` tracks edge flips as one sorted
array of directed keys ``u*n + v`` that each flip toggles, and derives the
current CSR, the rebuilt kernel operand and the jammers' cover from it.
The oracle is the per-node form it replaced (``oracles.graph``): one
mutable neighbour set per node.  Random connected graphs, random flip
sequences (repeats, re-adds and same-round pairs included) and jammer
windows, on the dense and the sparse backend.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.graph import NeighborSetMirror
from repro.params import ProtocolParams
from repro.sim import EdgeFlip, FaultSchedule, FaultState, Jammer
from repro.sim.core import ChannelRound, DenseOperand, resolve_channel, select_kernel_operand
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
        schedule, net, select_kernel_operand(net, params), np.random.default_rng(0)
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
