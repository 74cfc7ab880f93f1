"""Property tests: the vectorized PCG64 node streams equal numpy's, bit for bit.

:class:`~repro.sim.rng.SeededStreams` never builds a numpy ``Generator``
per node; it reimplements ``SeedSequence.spawn`` and PCG64 stepping in
``uint64`` array arithmetic.  These tests pin that reimplementation to
numpy itself: the spawned states (of one seed, and of many seeds of mixed
widths in one pass), the stepped doubles, and the
:class:`~repro.sim.core.array_protocol.CoinDeck` cursors through
``concat``, ``compact`` and ``export``, for seeds whose entropy spans one
to six 32-bit words (five or more words take SeedSequence's extra mixing
loop).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core.array_protocol import CoinDeck
from repro.sim.rng import (
    SeededStreams,
    pcg64_node_states,
    pcg64_step,
    seed_together,
)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**128 + 7, 2**160 + 11]
seeds = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**170)


@st.composite
def seed_lists(draw):
    """A few distinct seeds, drawn again in any order, so some repeat."""
    distinct = draw(st.lists(seeds, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))


def _numpy_generators(seed: int, n: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(n + 1)[1:]
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _as_int(hi: np.uint64, lo: np.uint64) -> int:
    return (int(hi) << 64) | int(lo)


def _assert_numpy_states(state, seed):
    for i, gen in enumerate(_numpy_generators(seed, state.shape[1])):
        expected = gen.bit_generator.state["state"]
        assert _as_int(state[0, i], state[1, i]) == expected["state"]
        assert _as_int(state[2, i], state[3, i]) == expected["inc"]


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 300))
def test_spawned_states_match_numpy(seed, n):
    (state,) = pcg64_node_states([seed], n)
    _assert_numpy_states(state, seed)


@settings(max_examples=30, deadline=None)
@given(seed_list=seed_lists(), n=st.integers(1, 300))
def test_spawned_states_of_many_seeds_match_numpy(seed_list, n):
    """One pass over seeds of mixed widths gives each seed numpy's states, in order."""
    states = pcg64_node_states(seed_list, n)
    assert states.shape == (len(seed_list), 4, n)
    for seed, state in zip(seed_list, states):
        _assert_numpy_states(state, seed)


@settings(max_examples=20, deadline=None)
@given(seed_list=seed_lists(), n=st.integers(1, 300))
def test_seeding_together_equals_seeding_alone(seed_list, n):
    """Runs of two sizes seeded in one call get the states each derives alone."""
    runs = [SeededStreams(seed, n + i % 2) for i, seed in enumerate(seed_list)]
    seed_together(runs)
    first = runs[0].state
    seed_together(runs)  # already seeded: left as they are
    assert runs[0].state is first
    for run in runs:
        alone = SeededStreams(run.seed, len(run))
        assert run.state.flags.c_contiguous
        assert np.array_equal(run.state, alone.state)
        assert run.engine.bit_generator.state == alone.engine.bit_generator.state


def test_node_count_must_fit_a_spawn_word():
    """Spawn indices are 32-bit words: 2**32 nodes is refused before any allocation."""
    with pytest.raises(ValueError, match="below 2"):
        pcg64_node_states([0], 2**32)
    with pytest.raises(ValueError, match="below 2"):
        pcg64_node_states([0, 2**128 + 7], 2**40)


def _assert_numpy_cursors(state, gens):
    """Every stream's LCG state is its numpy generator's, with no advance."""
    for i, gen in enumerate(gens):
        expected = gen.bit_generator.state["state"]["state"]
        assert _as_int(state[0, i], state[1, i]) == expected


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 300), count=st.integers(1, 130))
def test_doubles_match_generator_random(seed, n, count):
    (state,) = pcg64_node_states([seed], n)
    every = np.arange(n)
    doubles = np.array([pcg64_step(state, every) for _ in range(count)])
    gens = _numpy_generators(seed, n)
    expected = np.array([gen.random(count) for gen in gens]).T
    assert doubles.tobytes() == expected.tobytes()
    _assert_numpy_cursors(state, gens)


def _patterns(rng, n, rounds, density):
    """Per round, the unique nodes drawing a coin, at skewed per-node rates."""
    rates = density * rng.random(n) ** 2
    return [np.flatnonzero(rng.random(n) < rates) for _ in range(rounds)]


@st.composite
def draw_patterns(draw):
    """(n, rounds): per round, the unique nodes drawing a coin."""
    n = draw(st.integers(1, 300))
    density = draw(st.floats(0.0, 1.0))
    rounds = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, _patterns(rng, n, rounds, density)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, case=draw_patterns())
def test_coin_deck_matches_per_node_generators(seed, case):
    n, rounds = case
    deck = CoinDeck(SeededStreams(seed, n))
    gens = _numpy_generators(seed, n)
    for nodes in rounds:
        coins = deck.draw(nodes)
        expected = [gens[i].random() for i in nodes.tolist()]
        assert coins.tolist() == expected


def test_coin_deck_cursor_tracks_the_numpy_state():
    """After any draws, the streams' state is numpy's state, with no advance."""
    streams = SeededStreams(5, 40)
    deck = CoinDeck(streams)
    gens = _numpy_generators(5, 40)
    rng = np.random.default_rng(1)
    for _ in range(50):
        nodes = np.flatnonzero(rng.random(40) < 0.4)
        deck.draw(nodes)
        for i in nodes.tolist():
            gens[i].random()
        _assert_numpy_cursors(streams.state, gens)


@settings(max_examples=40, deadline=None)
@given(
    seed_list=st.lists(seeds, min_size=1, max_size=4, unique=True),
    n=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
    gone=st.lists(st.booleans(), min_size=4, max_size=4),
    pattern_seed=st.integers(0, 2**32 - 1),
)
def test_fused_decks_keep_every_stream_exact(seed_list, n, density, gone, pattern_seed):
    """Draws before ``concat``, on the fused deck, and after ``compact`` and
    ``export`` — as a batch retires rows — all equal the per-node numpy
    generators, and every stream's state is numpy's at each step."""
    rng = np.random.default_rng(pattern_seed)
    streams = [SeededStreams(seed, n) for seed in seed_list]
    decks = [CoinDeck(s) for s in streams]
    gens = [_numpy_generators(seed, n) for seed in seed_list]

    def draw(deck, nodes, rows):
        """Draw ``nodes`` of a deck whose copy ``b`` is row ``rows[b]``."""
        coins = deck.draw(nodes)
        expected = [gens[rows[i // n]][i % n].random() for i in nodes.tolist()]
        assert coins.tolist() == expected

    for row, deck in enumerate(decks):
        for nodes in _patterns(rng, n, 5, density):
            draw(deck, nodes, [row])
        _assert_numpy_cursors(streams[row].state, gens[row])
    rows = list(range(len(decks)))
    fused = CoinDeck.concat(decks)
    for nodes in _patterns(rng, len(rows) * n, 5, density):
        draw(fused, nodes, rows)
    _assert_numpy_cursors(fused._state, [g for row in rows for g in gens[row]])

    def node_range(positions):
        return (np.array(positions, dtype=np.int64)[:, None] * n + np.arange(n)).ravel()

    leaving = [k for k in range(len(rows)) if gone[k]]
    survivors = [k for k in range(len(rows)) if not gone[k]]
    if leaving:
        fused.export(node_range(leaving), [decks[rows[k]] for k in leaving])
    if survivors:
        size = len(survivors)
        holes = [k for k in range(size) if gone[k]]
        movers = [k for k in survivors if k >= size]
        fused.compact(node_range(movers), node_range(holes), size * n)
        kept = list(range(size))
        for hole, mover in zip(holes, movers):
            kept[hole] = mover
        rows = [rows[k] for k in kept]
        for nodes in _patterns(rng, size * n, 5, density):
            draw(fused, nodes, rows)
        fused.export(node_range(range(size)), [decks[row] for row in rows])
    for row, deck in enumerate(decks):
        _assert_numpy_cursors(streams[row].state, gens[row])
        for nodes in _patterns(rng, n, 3, density):
            draw(deck, nodes, [row])


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_no_numpy_warnings(seed):
    """Scalar uint64 overflow warns in numpy; every wrap must happen in arrays."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streams = SeededStreams(seed, 300)
        deck = CoinDeck(streams)
        rng = np.random.default_rng(0)
        for _ in range(20):
            deck.draw(np.flatnonzero(rng.random(300) < 0.5))
        for _ in range(3):
            pcg64_step(streams.state, np.arange(300))
