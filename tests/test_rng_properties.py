"""Property tests: the vectorized PCG64 node streams equal numpy's, bit for bit.

:class:`~repro.sim.rng.SeededStreams` never builds a numpy ``Generator``
per node; it reimplements ``SeedSequence.spawn`` and PCG64 stepping in
``uint64`` array arithmetic.  These tests pin that reimplementation to
numpy itself: the spawned states, the doubles, the jump-ahead and the
:class:`~repro.sim.core.array_protocol.CoinDeck` refill schedule, for
seeds whose entropy spans one to five 32-bit words (five words take
SeedSequence's extra mixing loop).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core.array_protocol import CoinDeck
from repro.sim.rng import SeededStreams, pcg64_advance, pcg64_doubles, pcg64_node_states

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**128 + 7, 2**160 + 11]
seeds = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**170)


def _numpy_generators(seed: int, n: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(n + 1)[1:]
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _as_int(hi: np.uint64, lo: np.uint64) -> int:
    return (int(hi) << 64) | int(lo)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 300))
def test_spawned_states_match_numpy(seed, n):
    state = pcg64_node_states(seed, n)
    for i, gen in enumerate(_numpy_generators(seed, n)):
        expected = gen.bit_generator.state["state"]
        assert _as_int(state[0, i], state[1, i]) == expected["state"]
        assert _as_int(state[2, i], state[3, i]) == expected["inc"]


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 300), count=st.integers(1, 130))
def test_doubles_match_generator_random(seed, n, count):
    state = pcg64_node_states(seed, n)
    before = state.copy()
    doubles = pcg64_doubles(state, count)
    assert np.array_equal(state, before)  # pure: the caller advances
    expected = np.array([gen.random(count) for gen in _numpy_generators(seed, n)]).T
    assert doubles.tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=seeds, steps=st.lists(st.integers(1, 200), min_size=1, max_size=40))
def test_advance_matches_numpy_advance(seed, steps):
    n = len(steps)
    state = pcg64_node_states(seed, n)
    pcg64_advance(state, np.array(steps))
    for i, gen in enumerate(_numpy_generators(seed, n)):
        gen.bit_generator.advance(steps[i])
        expected = gen.bit_generator.state["state"]["state"]
        assert _as_int(state[0, i], state[1, i]) == expected


@st.composite
def draw_patterns(draw):
    """(n, chunk, rounds): per round, the unique nodes drawing a coin."""
    n = draw(st.integers(1, 300))
    chunk = draw(st.sampled_from([1, 3, 64]))
    density = draw(st.floats(0.0, 1.0))
    rounds = draw(st.integers(1, 160))
    pattern_seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(pattern_seed)
    # Skewed per-node rates, so some buffers run dry long before others.
    rates = density * rng.random(n) ** 2
    return n, chunk, [np.flatnonzero(rng.random(n) < rates) for _ in range(rounds)]


@settings(max_examples=40, deadline=None)
@given(seed=seeds, case=draw_patterns())
def test_coin_deck_matches_per_node_generators(seed, case):
    n, chunk, rounds = case
    deck = CoinDeck(SeededStreams(seed, n), chunk=chunk)
    gens = _numpy_generators(seed, n)
    for nodes in rounds:
        coins = deck.draw(nodes)
        expected = [gens[i].random() for i in nodes.tolist()]
        assert coins.tolist() == expected


def test_coin_deck_cursor_tracks_the_numpy_state():
    """After any draws, advancing the state by the spent positions is numpy's state."""
    streams = SeededStreams(5, 40)
    deck = CoinDeck(streams, chunk=8)
    gens = _numpy_generators(5, 40)
    rng = np.random.default_rng(1)
    for _ in range(50):
        nodes = np.flatnonzero(rng.random(40) < 0.4)
        deck.draw(nodes)
        for i in nodes.tolist():
            gens[i].random()
    state = streams.state.copy()
    spent = np.asarray(deck.positions)
    moved = np.flatnonzero(spent > 0)
    sub = state[:, moved]
    pcg64_advance(sub, spent[moved])
    state[:, moved] = sub
    for i, gen in enumerate(gens):
        expected = gen.bit_generator.state["state"]["state"]
        assert _as_int(state[0, i], state[1, i]) == expected


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_no_numpy_warnings(seed):
    """Scalar uint64 overflow warns in numpy; every wrap must happen in arrays."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streams = SeededStreams(seed, 300)
        deck = CoinDeck(streams, chunk=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            deck.draw(np.flatnonzero(rng.random(300) < 0.5))
        pcg64_doubles(streams.state, 130)
        pcg64_advance(streams.state.copy(), np.full(300, 77))
