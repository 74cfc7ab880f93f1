"""Tests for a run's keyed coins and the input-sampling streams."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.core.array_protocol import CoinDeck
from repro.sim.rng import Purpose, SeededStreams, purpose_key, row_key, stream


def _coins(
    streams: SeededStreams, rounds: int, purpose: Purpose = Purpose.DECAY_STAY
) -> np.ndarray:
    """Every node's coin in rounds ``0 .. rounds - 1``, as a ``(rounds, n)`` array."""
    deck = CoinDeck(streams, purpose)
    nodes = np.arange(len(streams))
    coins = []
    for r in range(rounds):
        deck.round = r
        coins.append(deck.draw(nodes))
    return np.array(coins)


def test_same_seed_same_draws():
    a = _coins(SeededStreams(42, 5), 8)
    b = _coins(SeededStreams(42, 5), 8)
    assert a.tolist() == b.tolist()
    assert ((a >= 0) & (a < 1)).all()


def test_different_seeds_differ():
    a = _coins(SeededStreams(1, 3), 8)
    b = _coins(SeededStreams(2, 3), 8)
    assert a[:, 0].tolist() != b[:, 0].tolist()


def test_node_streams_are_mutually_independent():
    draws = _coins(SeededStreams(7, 2), 8)
    assert draws[:, 0].tolist() != draws[:, 1].tolist()


def test_purposes_and_rounds_give_different_coins():
    streams = SeededStreams(7, 4)
    by_purpose = [_coins(streams, 3, purpose) for purpose in Purpose]
    assert len({coins.tobytes() for coins in by_purpose}) == len(Purpose)
    assert len({row.tobytes() for row in by_purpose[0]}) == 3


def test_stream_domain_separation():
    assert stream(0, 1).random(4).tolist() != stream(0, 2).random(4).tolist()
    assert stream(0, 1).random(4).tolist() == stream(0, 1).random(4).tolist()


def test_seeded_streams_shape_and_reproducibility():
    s = SeededStreams(9, 4)
    assert len(s) == 4
    assert s.seed == 9
    assert s.key == SeededStreams(9, 4).key == row_key(9)
    assert _coins(s, 4).tolist() == _coins(SeededStreams(9, 4), 4).tolist()


def test_row_keys_are_distinct_across_seeds_and_words():
    seeds = [*range(1000), 2**64 - 1, 2**64, 2**64 + 1, 2**128]
    assert len({row_key(seed) for seed in seeds}) == len(seeds)
    # Chaining every word with one step would give hi·2^64 + lo the key
    # of the one-word seed row_key(lo) + hi, e.g. 2^64 that of mix(γ) + 1.
    for lo, hi in [(0, 1), (5, 1), (3, 64), (7, 2**64)]:
        wide = (hi << 64) + lo
        assert row_key(wide) != row_key((row_key(lo) + hi) % 2**64)
    assert len({purpose_key(row_key(3), purpose) for purpose in Purpose}) == len(Purpose)


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        SeededStreams(0, -1)
    with pytest.raises(ValueError):
        SeededStreams(0, 0)


@pytest.mark.parametrize("bad", [-1, 1.5, "7", None, True])
def test_bad_seed_rejected(bad):
    with pytest.raises(ConfigurationError, match="seed"):
        SeededStreams(bad, 4)
