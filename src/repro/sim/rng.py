"""Seeded randomness: keyed coins for runs, streams for sampling inputs.

Every source of randomness in a simulation run derives from one integer
seed, so a run is fully reproducible: same seed, same topology, same
protocol code => bit-identical round-by-round behaviour.

**Coins.**  Each protocol draws at most one coin per node, round and
:class:`Purpose` (Decay's stay-active coin, the GHK backoff and tie-break
coins, the fault layer's loss coin), so a coin is a pure function

    ``u(row key, purpose, node, round)``

with no stream behind it and no cursor to carry: counter-based
generation (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC 2011).  A run's *row key* is its seed, mixed once
(:func:`row_key`); :func:`purpose_key` mixes in a purpose.  A draw hashes
that key with the round into one 64-bit *head* per row, then runs one
SplitMix64 finalizer (Steele, Lea and Flood, OOPSLA 2014) over
``head + node·γ`` in ``uint64`` numpy ops, for the drawing nodes only,
and keeps the top 53 bits as a double in ``[0, 1)``.  Node ``v``'s coins
along a head are therefore SplitMix64's outputs ``v`` steps into the
stream that head seeds.  A fused group of rows draws with one head per
row (:func:`keyed_coins`), so fusing, retiring or reordering rows changes
no coin.

**Streams.**  :func:`stream` returns a numpy ``Generator`` for sampling a
run's *inputs* (topologies, fault schedules), domain-separated by a key
tuple, so building them never touches the coins.
"""

from __future__ import annotations

import enum

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from repro.errors import ConfigurationError

__all__ = [
    "Generator",
    "Purpose",
    "SeededStreams",
    "keyed_coins",
    "purpose_key",
    "row_key",
    "stream",
]

_MASK64 = (1 << 64) - 1
#: SplitMix64's increment: the odd integer nearest 2^64 / φ.
_GAMMA = 0x9E3779B97F4A7C15
#: SplitMix64's finalizer multipliers (Stafford's "Mix13").
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64_GAMMA = np.uint64(_GAMMA)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
_U64_11 = np.uint64(11)


class Purpose(enum.IntEnum):
    """What a coin decides; each draws at most once per node and round."""

    DECAY_STAY = 1
    BACKOFF = 2
    TIE_BREAK = 3
    LOSS = 4


def stream(seed: int, *key: int) -> Generator:
    """Return one generator for ``seed``, domain-separated by ``key``.

    Different ``key`` tuples under the same seed yield statistically
    independent streams; topology generators and fault-schedule sampling
    use this, so building a run's inputs never touches its coins.
    """
    return Generator(PCG64(SeedSequence(seed, spawn_key=tuple(key))))


def _mix(z: int) -> int:
    """SplitMix64's finalizer on a Python int below 2^64."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix` in place on a ``uint64`` array (products wrap mod 2^64)."""
    z ^= z >> 30
    z *= _U64_MIX1
    z ^= z >> 27
    z *= _U64_MIX2
    z ^= z >> 31
    return z


def row_key(seed: int) -> int:
    """A run's coin key: its seed mixed one 64-bit word at a time.

    Word ``i`` (least significant first) is added with step ``(i + 1)·γ``,
    so a word's position is part of the key and the running key after
    some words is not the key of a shorter seed.  Injective on seeds
    below 2^64, since the finalizer is a bijection; wider seeds outnumber
    the 2^64 keys, so each of them shares its key with some seed below
    2^64 however the words are folded.
    """
    key = 0
    step = _GAMMA
    while True:
        key = _mix((key + (seed & _MASK64) + step) & _MASK64)
        seed >>= 64
        if not seed:
            return key
        step = (step + _GAMMA) & _MASK64


def purpose_key(key: int, purpose: Purpose) -> int:
    """The key of one purpose's coins under a run's :func:`row_key`."""
    return _mix(key ^ (int(purpose) * _MIX2 & _MASK64))


def keyed_coins(keys: np.ndarray, round_index: int, nodes: np.ndarray, n: int) -> np.ndarray:
    """``u(key, node, round)`` for every flat node in ``nodes``: doubles in ``[0, 1)``.

    ``keys`` is a ``(rows,)`` ``uint64`` array of :func:`purpose_key`
    values, one per row of ``n`` nodes; flat node ``f`` is node ``f % n``
    of row ``f // n``.  Each row's head ``mix(key + round·γ)`` is hashed
    once per call, then one finalizer runs over the drawing nodes.
    """
    heads = _mix_array(keys + np.uint64(round_index * _GAMMA & _MASK64))
    rows, cols = np.divmod(nodes, n)
    x = cols.astype(np.uint64)
    x *= _U64_GAMMA
    x += heads[rows]
    x = _mix_array(x)
    x >>= _U64_11
    return x * (1.0 / 9007199254740992.0)


def _checked_seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _checked_size(n_nodes: int) -> int:
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    return n_nodes


class SeededStreams:
    """One run's coin key: its checked seed, mixed once, over ``n_nodes`` nodes.

    A :class:`~repro.sim.core.array_protocol.CoinDeck` or a
    :class:`~repro.sim.faults.FaultState` derives its purpose's key from
    :attr:`key`; nothing else about the run's randomness has state.
    """

    def __init__(self, seed: int, n_nodes: int) -> None:
        self.seed = _checked_seed(seed)
        self._n_nodes = _checked_size(n_nodes)
        self.key = row_key(self.seed)

    def __len__(self) -> int:
        return self._n_nodes
