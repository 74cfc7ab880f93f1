"""One node's keyed coin, computed from scratch in Python integers.

:mod:`repro.sim.rng` computes coins for many nodes at once in ``uint64``
numpy arithmetic, with the row key and purpose key mixed ahead of time.
This is the same definition written out for one coin: the seed is folded
into a row key, the purpose and then the round are mixed in, and the
node's SplitMix64 output along that head is the coin.  The oracles draw
every coin here, so each oracle-vs-array comparison also checks the
vectorized form.
"""

from __future__ import annotations

__all__ = ["node_coin"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def node_coin(seed: int, purpose: int, node: int, round_index: int) -> float:
    """``u(row key of seed, purpose, node, round)``, a double in ``[0, 1)``."""
    key = 0
    words = [(seed >> shift) & _MASK for shift in range(0, max(seed.bit_length(), 1), 64)]
    for position, word in enumerate(words, start=1):
        key = _splitmix64((key + word + position * _GAMMA) & _MASK)
    key = _splitmix64(key ^ (purpose * 0x94D049BB133111EB & _MASK))
    head = _splitmix64((key + round_index * _GAMMA) & _MASK)
    return (_splitmix64((head + node * _GAMMA) & _MASK) >> 11) / 2.0**53
