"""Seeded, per-node random streams.

Every source of randomness in a simulation run is derived from one integer
seed through :class:`numpy.random.SeedSequence` spawning, so a run is fully
reproducible: same seed, same topology, same protocol code => bit-identical
round-by-round behaviour.  Each node owns an independent stream (nodes in a
radio network cannot share coins), and the engine owns one extra stream for
anything that is not attributable to a single node.

Node *i*'s stream is numpy's ``PCG64(SeedSequence(seed).spawn(n + 1)[i + 1])``
— but no ``Generator`` object is built for it.  :func:`pcg64_node_states`
reproduces ``SeedSequence`` spawning and PCG64 seeding for all nodes at
once in vectorized ``uint64`` arithmetic, and :func:`pcg64_doubles` steps
many PCG64 states together, returning exactly the values
``Generator.random()`` would.  Setting up the streams of a 131072-node
network then costs milliseconds instead of seconds, and every pinned seed
keeps its results.

A PCG64 state is four ``uint64`` words per stream, stored as the rows of a
``(4, k)`` array: the 128-bit LCG state (high, low) and its odd 128-bit
increment (high, low).  One draw steps ``s <- M·s + inc (mod 2^128)`` and
outputs ``xsl_rr(s) >> 11`` scaled by ``2^-53``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SeededStreams", "pcg64_advance", "pcg64_doubles", "pcg64_node_states", "stream"]

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_32 = _U64(32)
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

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

#: Target element count of one vectorized LCG step: wider blocks stop
#: paying numpy's per-call overhead, narrower ones stay in cache.
_STEP_ELEMENTS = 4096
#: Element count of one slab of draws (128 KiB of uint64, under glibc's
#: default mmap threshold).
_SLAB_ELEMENTS = 1 << 14


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return one generator for ``seed``, domain-separated by ``key``.

    Different ``key`` tuples under the same seed yield statistically
    independent streams; topology generators use this so that building a
    graph never consumes the coins the protocol run will use.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------- #
# SeedSequence spawning, vectorized over the spawn index
# ---------------------------------------------------------------------- #
def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, as SeedSequence reads an int."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _spawned_pools(seed: int, count: int) -> np.ndarray:
    """``SeedSequence(seed).spawn(count + 1)[1:]``'s pools, shape (4, count).

    A child's entropy is the seed's words, zero-padded to the pool size,
    followed by one word holding its spawn index.  Mixing is sequential in
    the words and the hash constants do not depend on the data, so the
    pool after every word but the last is the same for all children: it is
    computed once, and only the final mix with the spawn word runs
    vectorized.
    """
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    pool = [0] * _POOL_SIZE
    hash_const = _INIT_A
    for i in range(_POOL_SIZE):
        pool[i], hash_const = _hashmix(run[i], hash_const)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in run[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    spawn_word = np.arange(1, count + 1, dtype=_U64)
    pools = np.empty((_POOL_SIZE, count), dtype=_U64)
    for dst in range(_POOL_SIZE):
        next_const = (hash_const * _MULT_A) & _MASK32
        hashed = ((spawn_word ^ _U64(hash_const)) * _U64(next_const)) & _LOW32
        hashed ^= hashed >> _U64(16)
        hash_const = next_const
        mixed = (_U64(_MIX_MULT_L * pool[dst] & _MASK32) - _U64(_MIX_MULT_R) * hashed) & _LOW32
        pools[dst] = mixed ^ (mixed >> _U64(16))
    return pools


def pcg64_node_states(seed: int, n_nodes: int) -> np.ndarray:
    """PCG64 states of ``SeedSequence(seed).spawn(n_nodes + 1)[1:]``, shape (4, n_nodes).

    Row ``i`` of the transpose is bit for bit the state and increment of
    ``np.random.PCG64(child)`` for the ``i + 1``-th spawned child.
    """
    if n_nodes > _MASK32:
        raise ValueError(f"n_nodes must be below 2**32, got {n_nodes}")
    pools = _spawned_pools(int(seed), n_nodes)
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
    state = np.empty((4, n_nodes), dtype=_U64)
    hi, lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _mul128_const(hi, lo, _PCG_MULT)
    state[0], state[1] = _add128(hi, lo, inc_hi, inc_lo)
    state[2], state[3] = inc_hi, inc_lo
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


def _jump_table(width: int) -> np.ndarray:
    """Jump-ahead constants for ``j = 1..width`` steps, shape (4, width).

    ``j`` LCG steps take ``s`` to ``A_j·s + G_j·inc`` with ``A_j = M^j`` and
    ``G_j = 1 + M + ... + M^(j-1)`` (mod 2^128).  The rows are the limbs
    ``A hi, A lo, G hi, G lo``; column ``j - 1`` is for ``j`` steps.
    """
    return _jump_table_pow2((width - 1).bit_length())[:, :width]


@lru_cache(maxsize=None)  # one read-only entry per power of two
def _jump_table_pow2(log_width: int) -> np.ndarray:
    a, g = 1, 0
    columns = []
    for _ in range(1 << log_width):
        a = (a * _PCG_MULT) & _MASK128
        g = (g * _PCG_MULT + 1) & _MASK128
        columns.append((a >> 64, a & _MASK64, g >> 64, g & _MASK64))
    table = np.array(columns, dtype=_U64).T.copy()
    table.setflags(write=False)
    return table


def _jump(state: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A·s + G·inc (mod 2^128)`` elementwise, for (4, k) states and jump constants.

    Both operands are full, contiguous arrays: numpy's vectorized integer
    loops only apply when neither side is broadcast.
    """
    s_hi, s_lo, inc_hi, inc_lo = state
    a_hi, a_lo, g_hi, g_lo = table
    hi = _mulhi64(s_lo, a_lo)
    hi += a_hi * s_lo
    hi += a_lo * s_hi
    hi += _mulhi64(inc_lo, g_lo)
    hi += g_hi * inc_lo
    hi += g_lo * inc_hi
    x_lo = a_lo * s_lo
    lo = g_lo * inc_lo
    lo += x_lo
    hi += lo < x_lo
    return hi, lo


def pcg64_advance(state: np.ndarray, steps: np.ndarray) -> None:
    """Advance each stream of the (4, k) ``state`` by ``steps[i]`` draws, in place.

    ``steps`` holds one count per stream, each at least 1; the result
    equals numpy's ``PCG64.advance(steps[i])``.
    """
    table = _jump_table(int(steps.max()))
    state[0], state[1] = _jump(state, table[:, steps - 1])


def _lcg_trajectory(state: np.ndarray, count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The LCG states after 1..``count`` steps of each stream: (count, k) hi and lo.

    The first ``width`` rows come straight from the jump table, as one
    flat pass over the streams tiled ``width`` times; every later block of
    ``width`` rows is one constant-multiplier step of the block before it
    (``A_width·s + G_width·inc``), so the trajectory costs one 128-bit
    multiply per draw in ``(width, k)`` array operations.
    """
    k = state.shape[1]
    table = _jump_table(width)
    first_hi, first_lo = _jump(np.tile(state, width), np.repeat(table, k, axis=1))
    if count == width:
        return first_hi.reshape(width, k), first_lo.reshape(width, k)
    hi = np.empty((count, k), dtype=_U64)
    lo = np.empty_like(hi)
    hi[:width] = first_hi.reshape(width, k)
    lo[:width] = first_lo.reshape(width, k)
    a_step = (int(table[0, -1]) << 64) | int(table[1, -1])
    g_step = (int(table[2, -1]) << 64) | int(table[3, -1])
    add_hi, add_lo = (np.tile(x, (width, 1)) for x in _mul128_const(state[2], state[3], g_step))
    for start in range(width, count, width):
        stop = min(start + width, count)
        prev = slice(start - width, stop - width)
        x_hi, x_lo = _mul128_const(hi[prev], lo[prev], a_step)
        x_hi += add_hi[: stop - start]
        np.add(x_lo, add_lo[: stop - start], out=lo[start:stop])
        x_hi += lo[start:stop] < x_lo
        hi[start:stop] = x_hi
    return hi, lo


def pcg64_doubles(state: np.ndarray, count: int) -> np.ndarray:
    """The next ``count`` ``Generator.random()`` values of each PCG64 stream.

    ``state`` is a (4, k) array of PCG64 states (see the module docstring);
    it is not modified — :func:`pcg64_advance` moves it past the values a
    caller consumes.  Returns a ``(count, k)`` array whose ``[j, i]`` entry
    is stream *i*'s ``j``-th next double.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    k = state.shape[1]
    out = np.empty((count, k), dtype=np.float64)
    # Slabs of streams keep every temporary small enough to be recycled
    # by the allocator instead of being mapped afresh.
    slab = max(1, _SLAB_ELEMENTS // count)
    width = min(count, max(1, _STEP_ELEMENTS // max(1, min(k, slab))))
    for start in range(0, k, slab):
        cols = slice(start, start + slab)
        hi, lo = _lcg_trajectory(state[:, cols], count, width)
        # XSL-RR output: rotate (hi ^ lo) right by the top six state bits.
        bits = hi ^ lo
        hi >>= _U64(58)
        lo = bits << ((_U64(64) - hi) & _U64(63))
        bits >>= hi
        bits |= lo
        bits >>= _U64(11)
        np.multiply(bits, 1.0 / 9007199254740992.0, out=out[:, cols])
    return out


class SeededStreams:
    """The full complement of streams used by one :class:`~repro.sim.core.batch.ArrayEngine` run.

    ``state`` holds every node's private PCG64 stream as a (4, n) ``uint64``
    array (see the module docstring); :class:`~repro.sim.core.array_protocol.CoinDeck`
    draws from it and advances it in place.  ``engine`` is a numpy
    ``Generator`` reserved for the simulator itself (the fault layer's
    coins), so engine-side randomness never perturbs node-side coin flips.
    Both are spawned children of ``SeedSequence(seed)``: the engine child 0,
    node *i* child ``i + 1``.
    """

    def __init__(self, seed: int, n_nodes: int) -> None:
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.seed = seed
        self.engine = stream(seed, 0)
        self.state = pcg64_node_states(seed, n_nodes)

    def __len__(self) -> int:
        return self.state.shape[1]
