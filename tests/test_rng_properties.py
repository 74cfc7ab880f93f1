"""Property and quality tests of the keyed coins.

:class:`~repro.sim.core.array_protocol.CoinDeck` computes
``u(row key, purpose, node, round)`` for many nodes at once in ``uint64``
numpy arithmetic.  These tests pin it to the per-node reference written
in Python integers (:func:`oracles.coins.node_coin`) for seeds of one to
three 64-bit words; check that a batch keys its items as engines built
alone would, and that a fused deck's coins are each row's deck alone, in
any row order and after ``compact``; and check the function's
statistical quality: uniformity of 2^20 outputs, and no correlation
between the coins of adjacent nodes, adjacent rounds, different purposes
and adjacent seeds.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from oracles.coins import node_coin
from repro.sim import ArrayEngine, BatchEngine, BatchItem, DecayArrayProtocol
from repro.sim.core.array_protocol import CoinDeck
from repro.sim.rng import Purpose, SeededStreams
from repro.sim.topology import line

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**128 + 7, 2**160 + 11]
seeds = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**170)
purposes = st.sampled_from(list(Purpose))


def _patterns(rng, n, rounds, density):
    """Per round, the unique nodes drawing a coin, at skewed per-node rates."""
    rates = density * rng.random(n) ** 2
    return [np.flatnonzero(rng.random(n) < rates) for _ in range(rounds)]


@st.composite
def draw_patterns(draw):
    """(n, rounds): per round, the unique nodes drawing a coin."""
    n = draw(st.integers(1, 300))
    density = draw(st.floats(0.0, 1.0))
    rounds = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, _patterns(rng, n, rounds, density)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, purpose=purposes, start=st.integers(0, 2**40), case=draw_patterns())
def test_coin_deck_matches_per_node_generators(seed, purpose, start, case):
    n, rounds = case
    deck = CoinDeck(SeededStreams(seed, n), purpose)
    for r, nodes in enumerate(rounds, start=start):
        deck.round = r
        expected = [node_coin(seed, purpose, v, r) for v in nodes.tolist()]
        assert deck.draw(nodes).tolist() == expected


@st.composite
def fused_cases(draw):
    """Distinct seeds, the order their decks fuse in, and which rows retire."""
    seed_list = draw(st.lists(seeds, min_size=1, max_size=4, unique=True))
    order = draw(st.permutations(range(len(seed_list))))
    gone = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    return seed_list, order, gone


@settings(max_examples=40, deadline=None)
@given(
    case=fused_cases(),
    purpose=purposes,
    n=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
    pattern_seed=st.integers(0, 2**32 - 1),
)
def test_fused_decks_keep_every_stream_exact(case, purpose, n, density, pattern_seed):
    """A fused deck's coins are each row's deck alone — rows fused in any
    order, before and after ``compact`` drops retired rows, as a batch does."""
    seed_list, order, gone = case
    rng = np.random.default_rng(pattern_seed)
    alone = [CoinDeck(SeededStreams(seed, n), purpose) for seed in seed_list]
    rows = list(order)
    fused = CoinDeck.concat([alone[row] for row in rows])

    def check(round_index):
        fused.round = round_index
        (nodes,) = _patterns(rng, len(rows) * n, 1, density)
        expected = []
        for flat in nodes.tolist():
            deck = alone[rows[flat // n]]
            deck.round = round_index
            expected.extend(deck.draw(np.array([flat % n])).tolist())
        assert fused.draw(nodes).tolist() == expected

    for r in range(4):
        check(r)

    def node_range(positions):
        return (np.array(positions, dtype=np.int64)[:, None] * n + np.arange(n)).ravel()

    survivors = [k for k in range(len(rows)) if not gone[k]]
    if survivors:
        size = len(survivors)
        holes = [k for k in range(size) if gone[k]]
        movers = [k for k in survivors if k >= size]
        fused.compact(node_range(movers), node_range(holes), size * n)
        kept = list(range(size))
        for hole, mover in zip(holes, movers):
            kept[hole] = mover
        rows = [rows[k] for k in kept]
        assert fused.keys.size == size
        for r in range(4, 8):
            check(r)


@settings(max_examples=20, deadline=None)
@given(seed_list=st.lists(seeds, min_size=1, max_size=6), n=st.integers(1, 40))
def test_seeding_together_equals_seeding_alone(seed_list, n):
    """A batch keys each item, repeated seeds included, exactly as an
    engine built alone on that seed: the same run key and deck keys."""
    net = line(n)
    items = [BatchItem(net, DecayArrayProtocol(), budget=1, seed=seed) for seed in seed_list]
    batch = BatchEngine(items)
    for seed, engine in zip(seed_list, batch.engines):
        alone = ArrayEngine(net, DecayArrayProtocol(), seed=seed)
        assert engine.streams.key == alone.streams.key == SeededStreams(seed, n).key
        assert engine.protocol._coins.keys.tolist() == alone.protocol._coins.keys.tolist()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_no_numpy_warnings(seed):
    """Scalar uint64 overflow warns in numpy; every wrap must happen in arrays."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deck = CoinDeck(SeededStreams(seed, 300), Purpose.LOSS)
        fused = CoinDeck.concat([deck, CoinDeck(SeededStreams(seed + 1, 300), Purpose.LOSS)])
        rng = np.random.default_rng(0)
        for r in (0, 1, 2**62, 2**64 + 3):
            deck.round = fused.round = r
            deck.draw(np.flatnonzero(rng.random(300) < 0.5))
            fused.draw(np.flatnonzero(rng.random(600) < 0.5))


# --------------------------------------------------------------------- #
# Statistical quality (thresholds fixed before measuring)
# --------------------------------------------------------------------- #

#: The smallest chi-square p-value a histogram of coins may have.
P_MIN = 1e-4
#: The largest |z| of a correlation between coins that should be independent.
Z_MAX = 4.0


def _grid(seed, purpose, rounds, nodes):
    """Coins of nodes ``0 .. nodes - 1`` in rounds ``0 .. rounds - 1``."""
    deck = CoinDeck(SeededStreams(seed, nodes), purpose)
    every = np.arange(nodes)
    out = np.empty((rounds, nodes))
    for r in range(rounds):
        deck.round = r
        out[r] = deck.draw(every)
    return out


def _uniform_p(coins, scale):
    """Chi-square p-value of ``floor(coins·scale) mod 256`` over 256 bins."""
    bins = np.floor(coins.ravel() * scale).astype(np.int64) % 256
    observed = np.bincount(bins, minlength=256)
    expected = coins.size / 256
    return chi2.sf(((observed - expected) ** 2 / expected).sum(), 255)


def _z(a, b):
    """Pearson correlation of two coin samples, scaled to a z-score."""
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1]) * math.sqrt(a.size)


@pytest.mark.parametrize(
    "rounds,nodes",
    [
        (256, 256),
        pytest.param(1024, 1024, marks=pytest.mark.statistical),
    ],
    ids=["2^16", "2^20"],
)
def test_coins_are_uniform_and_uncorrelated(rounds, nodes):
    seed = 12345
    coins = _grid(seed, Purpose.DECAY_STAY, rounds + 1, nodes + 1)
    body = coins[:rounds, :nodes]
    # Uniform in the top byte and in the lowest byte of the 53-bit mantissa.
    assert _uniform_p(body, 256) >= P_MIN
    assert _uniform_p(body, 2.0**53) >= P_MIN
    pairs = {
        "adjacent nodes": coins[:rounds, 1:],
        "adjacent rounds": coins[1:, :nodes],
        "another purpose": _grid(seed, Purpose.BACKOFF, rounds, nodes),
        "loss purpose": _grid(seed, Purpose.LOSS, rounds, nodes),
        "adjacent seed": _grid(seed + 1, Purpose.DECAY_STAY, rounds, nodes),
    }
    for name, other in pairs.items():
        z = _z(body, other)
        assert abs(z) < Z_MAX, (name, z)
