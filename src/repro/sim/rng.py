"""Seeded, per-node random streams.

Every source of randomness in a simulation run is derived from one integer
seed through :class:`numpy.random.SeedSequence` spawning, so a run is fully
reproducible: same seed, same topology, same protocol code => bit-identical
round-by-round behaviour.  Each node owns an independent stream (nodes in a
radio network cannot share coins), and the engine owns one extra stream for
anything that is not attributable to a single node.

Node *i*'s stream is numpy's ``PCG64(SeedSequence(seed).spawn(n + 1)[i + 1])``
— but no ``Generator`` object is built for it.  :func:`pcg64_node_states`
reproduces ``SeedSequence`` spawning and PCG64 seeding for all nodes of
many seeds at once in vectorized ``uint64`` arithmetic, and
:func:`pcg64_step` steps any subset of the streams once each, in place,
returning exactly the values ``Generator.random()`` would.  No coin is
computed before it is drawn, so a stream's state is its exact cursor at
every moment.  Setting up the streams of a 131072-node network costs
milliseconds instead of seconds, and every pinned seed keeps its results.
:class:`SeededStreams` is one run's streams; :func:`seed_together`
derives the node states of many runs, as a batch does, in one pass over
seeds × nodes per network size, so a batch of small networks does not pay
numpy's per-call cost once per run.

A PCG64 state is four ``uint64`` words per stream, stored as the rows of a
``(4, k)`` array: the 128-bit LCG state (high, low) and its odd 128-bit
increment (high, low).  One draw steps ``s <- M·s + inc (mod 2^128)`` and
outputs ``xsl_rr(s) >> 11`` scaled by ``2^-53``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from repro.errors import ConfigurationError

__all__ = [
    "SeededStreams",
    "pcg64_node_states",
    "pcg64_step",
    "seed_together",
    "stream",
]

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_32 = _U64(32)
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = _U64(_PCG_MULT >> 64)
_PCG_MULT_LO = _U64(_PCG_MULT & _MASK64)


def stream(seed: int, *key: int) -> Generator:
    """Return one generator for ``seed``, domain-separated by ``key``.

    Different ``key`` tuples under the same seed yield statistically
    independent streams; topology generators use this so that building a
    graph never consumes the coins the protocol run will use.
    """
    return Generator(PCG64(SeedSequence(seed, spawn_key=tuple(key))))


# ---------------------------------------------------------------------- #
# SeedSequence spawning, vectorized over seeds and spawn indices
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=64)  # one entry per seed width in use
def _spawn_word_consts(words: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The hash constants of a child's spawn-word mix, for a seed of ``words`` words.

    Every hash step multiplies the constant by ``_MULT_A``, and
    ``SeedSequence`` takes ``4·words`` steps (``words`` at least the pool
    size) before the spawn word; its four steps xor with the constants
    ``4·words + j`` and multiply by ``4·words + j + 1``, for ``j = 0..3``.
    """
    consts = [
        _INIT_A * pow(_MULT_A, 4 * words + j, 1 << 32) & _MASK32 for j in range(_POOL_SIZE + 1)
    ]
    return tuple(consts[:-1]), tuple(consts[1:])


def _spawned_pools(seeds: Sequence[int], count: int) -> np.ndarray:
    """``SeedSequence(seed).spawn(count + 1)[1:]``'s pools, shape (4, len(seeds), count).

    A child's entropy is the seed's words, zero-padded to the pool size,
    followed by one word holding its spawn index.  Mixing is sequential in
    the words, and ``SeedSequence(seed)`` itself hashes a zero for each
    word its seed lacks, so its ``pool`` is every child's pool before the
    spawn word.  Only the final mix with the spawn word runs here,
    vectorized over seeds × children; its hash constants depend on the
    seed's word count alone, so seeds of any widths share the pass, each
    with its own column of constants.
    """
    seeds = [int(seed) for seed in seeds]
    prefix = np.array([SeedSequence(seed).pool for seed in seeds], dtype=_U64)
    prefix = prefix.reshape(-1, _POOL_SIZE).T[..., None]
    widths = [max(_POOL_SIZE, -(-seed.bit_length() // 32)) for seed in seeds]
    # (2, 4, seeds, 1): per pool word and seed, the xor and multiplier
    # constants of the spawn word's hash.
    xor, mult = (
        np.array([_spawn_word_consts(words) for words in widths], dtype=_U64)
        .reshape(-1, 2, _POOL_SIZE)
        .transpose(1, 2, 0)[..., None]
    )
    spawn_word = np.arange(1, count + 1, dtype=_U64)
    hashed = ((spawn_word ^ xor) * mult) & _LOW32
    hashed ^= hashed >> _U64(16)
    pools: np.ndarray = (_U64(_MIX_MULT_L) * prefix - _U64(_MIX_MULT_R) * hashed) & _LOW32
    pools ^= pools >> _U64(16)
    return pools


def pcg64_node_states(seeds: Sequence[int], n_nodes: int) -> np.ndarray:
    """PCG64 states of every seed's ``SeedSequence(seed).spawn(n_nodes + 1)[1:]``.

    Shape ``(len(seeds), 4, n_nodes)``: entry ``s`` is seed ``s``'s
    (4, n_nodes) state array (see the module docstring), and its column ``i`` is
    bit for bit the state and increment of ``np.random.PCG64(child)`` for
    the ``i + 1``-th spawned child.  All seeds take one vectorized pass.
    """
    if n_nodes > _MASK32:
        raise ValueError(f"n_nodes must be below 2**32, got {n_nodes}")
    pools = _spawned_pools(seeds, n_nodes)
    # SeedSequence.generate_state(4, uint64): eight hashed 32-bit words.
    words = []
    hash_const = _INIT_B
    for i in range(8):
        next_const = (hash_const * _MULT_B) & _MASK32
        word = ((pools[i % _POOL_SIZE] ^ _U64(hash_const)) * _U64(next_const)) & _LOW32
        word ^= word >> _U64(16)
        hash_const = next_const
        words.append(word)
    init_hi = words[0] | (words[1] << _32)
    init_lo = words[2] | (words[3] << _32)
    seq_hi = words[4] | (words[5] << _32)
    seq_lo = words[6] | (words[7] << _32)
    # pcg64_set_seed: inc = 2·seq + 1; state = ((inc + init)·M + inc).
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    state = np.empty((len(pools[0]), 4, n_nodes), dtype=_U64)
    hi, lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _mul128_const(hi, lo, _PCG_MULT)
    state[:, 0], state[:, 1] = _add128(hi, lo, inc_hi, inc_lo)
    state[:, 2], state[:, 3] = inc_hi, inc_lo
    return state


# ---------------------------------------------------------------------- #
# 128-bit LCG arithmetic on uint64 limbs (array ops wrap mod 2**64)
# ---------------------------------------------------------------------- #
def _mulhi64(a: np.ndarray, b: np.ndarray | np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a·b``, via 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _32
    b_lo, b_hi = b & _LOW32, b >> _32
    cross = a_hi * b_lo
    cross += (a_lo * b_lo) >> _32
    mid = a_lo * b_hi
    mid += cross & _LOW32
    hi = a_hi * b_hi
    hi += cross >> _32
    hi += mid >> _32
    return hi


def _mul128_const(hi: np.ndarray, lo: np.ndarray, const: int) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)·const mod 2^128`` for a Python-int constant."""
    c_hi, c_lo = _U64(const >> 64), _U64(const & _MASK64)
    out_hi = _mulhi64(lo, c_lo)
    out_hi += hi * c_lo
    out_hi += lo * c_hi
    return out_hi, lo * c_lo


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    hi = a_hi + b_hi
    hi += lo < a_lo
    return hi, lo


def pcg64_step(state: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Step the streams ``nodes`` of the (4, k) ``state`` once each; their doubles.

    ``nodes`` lists unique columns.  Their LCG states move one step in
    place, and the result holds the ``Generator.random()`` value each
    stream yields at that step, in the order of ``nodes``.
    """
    s_hi, s_lo, inc_hi, inc_lo = state.take(nodes, axis=1)
    # s <- M·s + inc (mod 2^128), on 64-bit limbs.
    hi = _mulhi64(s_lo, _PCG_MULT_LO)
    hi += s_hi * _PCG_MULT_LO
    hi += s_lo * _PCG_MULT_HI
    hi += inc_hi
    lo = s_lo * _PCG_MULT_LO
    lo += inc_lo
    hi += lo < inc_lo
    # Row by row: numpy scatters into a 1-d view several times faster.
    state[0][nodes] = hi
    state[1][nodes] = lo
    # XSL-RR output: rotate (hi ^ lo) right by the top six state bits.
    bits = hi ^ lo
    hi >>= _U64(58)
    lo = bits << ((_U64(64) - hi) & _U64(63))
    bits >>= hi
    bits |= lo
    bits >>= _U64(11)
    return bits * (1.0 / 9007199254740992.0)


def _checked_seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _checked_size(n_nodes: int) -> int:
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    return n_nodes


class SeededStreams:
    """The full complement of streams used by one :class:`~repro.sim.core.batch.ArrayEngine` run.

    ``state`` holds every node's private PCG64 stream as a (4, n) ``uint64``
    array (see the module docstring); :class:`~repro.sim.core.array_protocol.CoinDeck`
    steps it in place, one column per coin drawn, so it always holds
    every node's exact cursor.  ``engine`` is a numpy
    ``Generator`` reserved for the simulator itself (the fault layer's
    loss coins: ``n`` per round, drawn a block of rounds ahead and
    rewound past the unspent ones before anyone reads the cursor, see
    :meth:`~repro.sim.faults.FaultState.sync`), so engine-side randomness
    never perturbs node-side coin flips.
    Both are spawned children of ``SeedSequence(seed)``: the engine child 0,
    node *i* child ``i + 1``.

    The node states are derived when ``state`` is first read, unless
    :func:`seed_together` has derived them first, for many runs in one pass.
    """

    def __init__(self, seed: int, n_nodes: int) -> None:
        self.seed = _checked_seed(seed)
        self._n_nodes = _checked_size(n_nodes)
        self.engine = stream(seed, 0)
        self._state: np.ndarray | None = None

    @property
    def state(self) -> np.ndarray:
        if self._state is None:
            self._state = pcg64_node_states([self.seed], self._n_nodes)[0]
        return self._state

    def __len__(self) -> int:
        return self._n_nodes


def seed_together(runs: Sequence[SeededStreams]) -> None:
    """Derive the node states of every unseeded run, one vectorized pass per size.

    Each run's ``state`` becomes one entry of a shared ``(runs, 4, n)``
    array, so it is contiguous, and writing it touches no other run's.
    """
    by_size: dict[int, list[SeededStreams]] = {}
    for run in runs:
        if run._state is None:
            by_size.setdefault(len(run), []).append(run)
    for n_nodes, group in by_size.items():
        states = pcg64_node_states([run.seed for run in group], n_nodes)
        for run, state in zip(group, states):
            run._state = state
