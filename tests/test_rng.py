"""Tests for seeded per-node random streams."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import SeededStreams, pcg64_step, stream


def _numpy_node_generators(seed: int, n: int) -> list[np.random.Generator]:
    """Numpy's own generators for the children SeededStreams mirrors."""
    children = np.random.SeedSequence(seed).spawn(n + 1)[1:]
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _doubles(streams: SeededStreams, count: int) -> np.ndarray:
    """``count`` coins of every node stream, as a ``(count, n)`` array."""
    nodes = np.arange(len(streams))
    return np.array([pcg64_step(streams.state, nodes) for _ in range(count)])


def test_same_seed_same_draws():
    a = _doubles(SeededStreams(42, 5), 8)
    b = _doubles(SeededStreams(42, 5), 8)
    assert a.tolist() == b.tolist()


def test_different_seeds_differ():
    a = _doubles(SeededStreams(1, 3), 8)
    b = _doubles(SeededStreams(2, 3), 8)
    assert a[:, 0].tolist() != b[:, 0].tolist()


def test_node_streams_are_mutually_independent():
    draws = _doubles(SeededStreams(7, 2), 8)
    assert draws[:, 0].tolist() != draws[:, 1].tolist()


def test_stream_domain_separation():
    assert stream(0, 1).random(4).tolist() != stream(0, 2).random(4).tolist()
    assert stream(0, 1).random(4).tolist() == stream(0, 1).random(4).tolist()


def test_seeded_streams_shape_and_reproducibility():
    s = SeededStreams(9, 4)
    assert len(s) == 4
    assert s.seed == 9
    t = SeededStreams(9, 4)
    assert s.engine.random(4).tolist() == t.engine.random(4).tolist()
    expected = _numpy_node_generators(9, 4)[3].random(4).tolist()
    assert _doubles(s, 4)[:, 3].tolist() == expected
    assert _doubles(t, 4)[:, 3].tolist() == expected


def test_engine_stream_is_spawned_child_zero():
    engine_child = np.random.SeedSequence(9).spawn(5)[0]
    expected = np.random.Generator(np.random.PCG64(engine_child)).random(4)
    assert SeededStreams(9, 4).engine.random(4).tolist() == expected.tolist()


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        SeededStreams(0, -1)
    with pytest.raises(ValueError):
        SeededStreams(0, 0)


@pytest.mark.parametrize("bad", [-1, 1.5, "7", None, True])
def test_bad_seed_rejected(bad):
    with pytest.raises(ConfigurationError, match="seed"):
        SeededStreams(bad, 4)
