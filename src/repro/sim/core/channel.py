"""The pure radio-channel kernel, shared by every execution path.

One round of the single-hop radio channel is three array operations:

* ``counts`` — for every node, how many of its neighbours transmitted this
  round;
* outcome masks — a listener with count 0 hears silence, with count 1
  receives the unique neighbour's transmission, with count >= 2 suffers a
  collision;
* ``senders`` — for a listener with count 1 the id-weighted neighbour
  count *is* the id of its unique transmitting neighbour.

Three interchangeable **kernel operands** implement those reductions:

* :class:`DenseOperand` — the symmetric 0/1 adjacency as a ``float64``
  matrix; counts are one BLAS matmul (``transmit @ A``).  Θ(n²) memory and
  time per round regardless of the edge count.
* :class:`SparseOperand` — the same graph as CSR neighbour arrays
  (``indptr``/``indices``); the transmitters push into their neighbours:
  counts are one ``np.bincount`` over the transmitters' CSR rows only.
  Θ(m) memory and Θ(Σ deg(tx) + batch·n) time per round, which is what
  lets the simulator past the dense-matmul wall on sparse topologies
  (line/grid/gnp/unit-disk at n ≳ 4096) and makes a round in which few
  radios transmit cheap.
* :class:`BitOperand` — the adjacency bit-packed into an
  ``(n, ceil(n/64))`` uint64 word matrix; the per-round transmit mask is
  packed once into ``ceil(n/64)`` words and counts are ``AND`` +
  popcount.  Still Θ(n²) work per round, but 64 adjacency entries per
  word: a ~64× denser operand than the dense float64 matrix, which is
  what carries dense-density graphs past n = 10⁵.

Every count the float backends produce is a sum of 0/1 terms (or of node
ids, all far below 2**53) accumulated in ``float64``, and popcounts are
integer-exact by construction, so all three are exact and the resulting
:class:`ChannelRound` is **bitwise identical** between backends.

The kernel is batched: ``transmit``/``listen`` may be ``(n,)`` for one
instance or ``(batch, n)`` for many independent instances on the same
topology, in which case every output carries the same leading batch axis
and the whole round costs one fused reduction.

Transmitters hear nothing (half-duplex radios), so ``transmit`` and
``listen`` must be disjoint; :func:`resolve_channel` enforces that
precondition itself — for every caller, not just the engines — because a
silent overlap would produce wrong physics (a transmitter "receiving").

The kernel reports **ground truth** only.  Whether a collided listener
*perceives* the collision (collision detection) or silence
(collision-as-silence) is a property of the receivers' radios, so that
mapping belongs to the protocol/adapter layer, not the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union, cast

import numpy as np

from repro.errors import SimulationError
from repro.sim.core.stats import RoundStats

__all__ = [
    "BitOperand",
    "ChannelRound",
    "DenseOperand",
    "HAVE_BITWISE_COUNT",
    "KernelOperand",
    "SparseOperand",
    "adjacency_operand",
    "as_kernel_operand",
    "operand_from_csr",
    "pack_mask",
    "popcount64",
    "resolve_channel",
    "round_stats",
    "unpack_mask",
]

#: ``np.bitwise_count`` arrived in numpy 2.0; on older numpy the kernel
#: falls back to a 16-bit lookup table (four table lookups per word).
HAVE_BITWISE_COUNT: bool = hasattr(np, "bitwise_count")

#: Popcount of every 16-bit value; 64 KiB once, shared by the fallback
#: and kept unconditionally so tests can force the fallback path.
_POPCOUNT16 = np.array(
    [bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8
)

#: Cap on transient kernel intermediates (the ``AND`` block in
#: :meth:`BitOperand.transmit_counts` and the gathered rows in
#: :meth:`BitOperand.sender_ids`), so large-n rounds stream through a
#: cache-friendly working set instead of materializing Θ(batch · n · n/64).
_BIT_BLOCK_BYTES = 1 << 25


def _popcount_lut(words: np.ndarray) -> np.ndarray:
    """Per-word popcounts of a uint64 array via the 16-bit LUT.

    Pure shift/mask arithmetic (no byte-order-dependent views); each
    uint64 word is four table lookups.  Returns uint8 like
    ``np.bitwise_count``.
    """
    words = np.asarray(words, dtype=np.uint64)
    mask = np.uint64(0xFFFF)
    return (
        _POPCOUNT16[words & mask]
        + _POPCOUNT16[(words >> np.uint64(16)) & mask]
        + _POPCOUNT16[(words >> np.uint64(32)) & mask]
        + _POPCOUNT16[words >> np.uint64(48)]
    )


#: The popcount implementation selected at import.  :class:`BitOperand`
#: resolves this name at call time, so tests can monkeypatch it to force
#: the LUT path on numpy >= 2.
popcount64 = np.bitwise_count if HAVE_BITWISE_COUNT else _popcount_lut


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(..., n)`` mask into little-bit-order uint64 words.

    Bit ``j`` of word ``w`` is element ``64·w + j``; the tail bits of the
    last word (when ``n % 64 != 0``) are zero.  Byte-order independent:
    words are assembled by shifted adds, not memory views.
    """
    mask = np.asarray(mask).astype(bool)
    packed8 = np.packbits(mask, axis=-1, bitorder="little")
    n_bytes = packed8.shape[-1]
    words = -(-n_bytes // 8)
    if n_bytes != words * 8:
        pad = np.zeros(packed8.shape[:-1] + (words * 8 - n_bytes,), dtype=np.uint8)
        packed8 = np.concatenate([packed8, pad], axis=-1)
    grouped = packed8.reshape(packed8.shape[:-1] + (words, 8)).astype(np.uint64)
    shifts = np.arange(8, dtype=np.uint64) * np.uint64(8)
    return (grouped << shifts).sum(axis=-1, dtype=np.uint64)


def unpack_mask(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_mask`: uint64 words back to a boolean ``(..., n)``."""
    words = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(8, dtype=np.uint64) * np.uint64(8)
    packed8 = ((words[..., None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)
    packed8 = packed8.reshape(words.shape[:-1] + (words.shape[-1] * 8,))
    bits = np.unpackbits(packed8, axis=-1, bitorder="little")
    return bits[..., :n].astype(bool)


def adjacency_operand(adjacency: np.ndarray) -> np.ndarray:
    """Convert a 0/1 adjacency matrix into the dense kernel's matmul operand.

    ``float64`` so the matmuls dispatch to BLAS; every count is a sum of
    0/1 terms and therefore exact.
    """
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise SimulationError(f"adjacency must be square, got shape {adj.shape}")
    return np.ascontiguousarray(adj, dtype=np.float64)


def _validate_csr(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate CSR neighbour arrays; returns ``(indptr, indices, n)`` as int64."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.ndim != 1 or indptr.size < 1 or indices.ndim != 1:
        raise SimulationError(
            f"CSR arrays must be 1-D with indptr non-empty, got indptr "
            f"shape {indptr.shape} and indices shape {indices.shape}"
        )
    n = indptr.size - 1
    if indptr[0] != 0 or indptr[-1] != indices.size or (np.diff(indptr) < 0).any():
        raise SimulationError(
            "indptr must start at 0, be non-decreasing, and end at "
            f"len(indices)={indices.size}; got indptr={indptr!r}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise SimulationError(
            f"CSR indices must be node ids in [0, {n}), got range "
            f"[{indices.min()}, {indices.max()}]"
        )
    return indptr, indices, n


class DenseOperand:
    """Dense channel backend: neighbour counts via one BLAS matmul."""

    __slots__ = ("adj_f", "_ids_f")

    backend = "dense"

    def __init__(self, adjacency: np.ndarray) -> None:
        self.adj_f = adjacency_operand(adjacency)
        self._ids_f = np.arange(self.adj_f.shape[0], dtype=np.float64)

    @property
    def n(self) -> int:
        return self.adj_f.shape[0]

    def prepare_transmit(self, transmit: np.ndarray) -> np.ndarray:
        """Per-round operand form of the boolean transmit mask (float64 0/1)."""
        return transmit.astype(np.float64)

    def transmit_counts(self, tx: np.ndarray) -> np.ndarray:
        """Per-node transmitting-neighbour counts (``tx`` is float64 0/1)."""
        return (tx @ self.adj_f).astype(np.int64)

    def weighted_ids(self, tx: np.ndarray) -> np.ndarray:
        """Id-weighted counts: for a count-1 listener, its unique sender's id."""
        return ((tx * self._ids_f) @ self.adj_f).astype(np.int64)

    def sender_ids(self, tx: np.ndarray, clean: np.ndarray) -> np.ndarray:
        """Sender ids valid at ``clean`` positions (garbage elsewhere)."""
        return self.weighted_ids(tx)


class SparseOperand:
    """Sparse CSR channel backend: transmitters push into their neighbours.

    ``indices[indptr[v]:indptr[v+1]]`` lists node ``v``'s neighbours.  One
    round gathers only the transmitters' CSR rows and counts the neighbour
    ids found there with one ``np.bincount``, so a round costs
    Θ(Σ deg(tx) + batch·n) — the transmitters' degrees plus the output —
    instead of the dense Θ(batch · n²) matmul or the Θ(batch · m) of
    visiting every edge slot.  A ``(batch, n)`` mask is one bincount of
    length ``batch·n``: each row's keys are offset into its private
    ``[row·n, (row+1)·n)`` range.
    """

    __slots__ = ("indptr", "indices", "n")

    backend = "sparse"

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr, self.indices, self.n = _validate_csr(indptr, indices)

    def _push(self, tx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transmitters' CSR slots: ``(keys, sender ids, degrees)``.

        ``keys`` holds one listener per slot, indexing the raveled
        ``(..., n)`` output; transmitter ``t`` owns ``degrees[t]``
        consecutive keys.
        """
        flat = np.flatnonzero(tx)
        senders = flat % self.n if tx.ndim > 1 else flat
        starts = self.indptr[senders]
        degrees = self.indptr[senders + 1] - starts
        ends = np.cumsum(degrees)
        # Expansion slot j of transmitter t is CSR slot
        # starts[t] + j - (ends[t] - degrees[t]).
        slots = np.arange(ends[-1] if ends.size else 0) + np.repeat(
            starts - ends + degrees, degrees
        )
        keys = self.indices[slots]
        if tx.ndim > 1:
            keys += np.repeat(flat - senders, degrees)
        return keys, senders, degrees

    def prepare_transmit(self, transmit: np.ndarray) -> np.ndarray:
        """Per-round operand form of the transmit mask: the boolean mask."""
        return transmit.astype(bool, copy=False)

    def transmit_counts(self, tx: np.ndarray) -> np.ndarray:
        """Per-node transmitting-neighbour counts (``tx`` is boolean)."""
        keys, _, _ = self._push(tx)
        counts = np.bincount(keys, minlength=tx.size)
        return counts.astype(np.int64, copy=False).reshape(tx.shape)

    def sender_ids(self, tx: np.ndarray, clean: np.ndarray) -> np.ndarray:
        """Sender ids valid at ``clean`` positions (garbage elsewhere).

        The id-weighted count: at a count-1 listener it is exactly the
        unique sender's id (a float64 sum of one id, far below 2**53).
        """
        keys, senders, degrees = self._push(tx)
        weights = np.repeat(senders.astype(np.float64), degrees)
        ids = np.bincount(keys, weights=weights, minlength=tx.size)
        return ids.astype(np.int64).reshape(tx.shape)


class BitOperand:
    """Bit-packed channel backend: neighbour counts via ``AND`` + popcount.

    The adjacency row of node ``v`` lives in ``words[v]``, an array of
    ``ceil(n/64)`` uint64 words (bit ``j`` of word ``w`` set iff
    ``64·w + j`` is a neighbour of ``v``).  One round packs the transmit
    mask once, and every node's count is
    ``popcount(words[v] & packed_tx)`` — the dense matmul's Θ(n) row
    reduction compressed 64-to-1.  Constructed from CSR neighbour arrays
    so no Θ(n²) dense intermediate ever exists.

    Sender-id recovery is a second pass restricted to the ``clean``
    positions: there ``words[v] & packed_tx`` has exactly one set bit by
    definition of clean, and that bit's index *is* the sender id
    (``64·w + popcount(word − 1)`` for the unique non-zero word — an
    isolated bit's predecessor mask is exactly its trailing zeros).  The
    expensive id-weighted reduction of the float backends never runs.
    """

    __slots__ = ("n", "words", "edges")

    backend = "bitpacked"

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr, indices, n = _validate_csr(indptr, indices)
        self.n = n
        self.edges = int(indices.size)
        width = -(-n // 64)
        words = np.zeros((n, width), dtype=np.uint64)
        if indices.size:
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            np.bitwise_or.at(
                words,
                (rows, indices >> 6),
                np.uint64(1) << (indices & 63).astype(np.uint64),
            )
        self.words = words

    def prepare_transmit(self, transmit: np.ndarray) -> np.ndarray:
        """Per-round operand form of the boolean transmit mask (packed words)."""
        return pack_mask(transmit)

    def transmit_counts(self, packed: np.ndarray) -> np.ndarray:
        """Per-node transmitting-neighbour counts (``packed`` is uint64 words)."""
        lead = packed.shape[:-1]
        width = self.words.shape[1]
        flat = packed.reshape(-1, width)
        batch = flat.shape[0]
        out = np.zeros((batch, self.n), dtype=np.int64)
        # Stream over word columns so the (batch, n, chunk) AND block stays
        # within _BIT_BLOCK_BYTES instead of Θ(batch · n · n/64).
        chunk = max(1, _BIT_BLOCK_BYTES // (8 * batch * max(1, self.n)))
        for start in range(0, width, chunk):
            stop = min(width, start + chunk)
            block = flat[:, None, start:stop] & self.words[None, :, start:stop]
            out += popcount64(block).sum(axis=-1, dtype=np.int64)
        return out.reshape(lead + (self.n,))

    def sender_ids(self, packed: np.ndarray, clean: np.ndarray) -> np.ndarray:
        """Sender ids valid at ``clean`` positions (zero elsewhere).

        Gathers only the (batch row, node) pairs that are clean, so the
        pass costs Θ(clean · n/64) — proportional to actual deliveries,
        not the full matrix.
        """
        out = np.zeros(clean.shape, dtype=np.int64)
        width = self.words.shape[1]
        if clean.ndim == 1:
            nodes = np.flatnonzero(clean)
            tx_rows = np.broadcast_to(packed, (nodes.size, width))
        else:
            batch_rows, nodes = np.nonzero(clean)
            tx_rows = packed.reshape(-1, width)[batch_rows]
        total = nodes.size
        if total == 0:
            return out
        ids = np.empty(total, dtype=np.int64)
        bit_base = np.arange(width, dtype=np.int64) * 64
        step = max(1, _BIT_BLOCK_BYTES // (8 * width))
        for start in range(0, total, step):
            stop = min(total, start + step)
            masked = self.words[nodes[start:stop]] & tx_rows[start:stop]
            nonzero = masked != 0
            # Exactly one bit is set across each row (count == 1 at a clean
            # listener), so the row's id is 64·w + trailing_zeros(word) for
            # its unique non-zero word; the uint64 wraparound of 0 − 1 is
            # masked out by ``nonzero``.
            offsets = popcount64(masked - np.uint64(1)).astype(np.int64)
            ids[start:stop] = np.where(nonzero, bit_base + offsets, 0).sum(axis=-1)
        out[clean] = ids
        return out


KernelOperand = Union[DenseOperand, SparseOperand, BitOperand]


def as_kernel_operand(operand: KernelOperand | np.ndarray) -> KernelOperand:
    """Normalize a kernel operand; a raw adjacency matrix means dense.

    Anything already exposing the operand surface (``n``,
    ``prepare_transmit``, ``transmit_counts``, ``sender_ids``) passes
    through untouched — which is what lets wrapper operands (the
    bisector's fault injector, a future GPU backend under sanitizer
    certification) ride the engines without being one of the three
    built-in classes.  Only a plain array is treated as an adjacency
    matrix and wrapped dense.
    """
    if isinstance(operand, (DenseOperand, SparseOperand, BitOperand)):
        return operand
    if hasattr(operand, "transmit_counts"):
        return cast(KernelOperand, operand)
    return DenseOperand(operand)


def operand_from_csr(
    backend: str, indptr: np.ndarray, indices: np.ndarray
) -> KernelOperand:
    """Build the named backend's operand from CSR neighbour arrays.

    The one sanctioned construction path for callers that hold an adjacency
    as CSR rather than as a :class:`~repro.sim.topology.RadioNetwork` — the
    fault layer's per-flip rebuilds and the sanitizer's reference operand.
    Engine-layer code selecting a backend by policy goes through
    :func:`~repro.sim.core.batch.select_kernel_operand` instead (simlint
    rule SL007 enforces that split).  The dense path scatters the CSR into
    a 0/1 matrix, so it is Θ(n²) memory like any dense operand.
    """
    if backend == "sparse":
        return SparseOperand(indptr, indices)
    if backend == "bitpacked":
        return BitOperand(indptr, indices)
    if backend == "dense":
        indptr, indices, n = _validate_csr(indptr, indices)
        mat = np.zeros((n, n), dtype=np.int8)
        if indices.size:
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            mat[rows, indices] = 1
        return DenseOperand(mat)
    raise SimulationError(
        f"unknown channel backend {backend!r}; expected 'dense', 'sparse', "
        f"or 'bitpacked'"
    )


@dataclass(frozen=True)
class ChannelRound:
    """Ground-truth channel resolution of one round (possibly batched)."""

    #: per-node count of transmitting neighbours.
    counts: np.ndarray
    #: listeners that received exactly one neighbour's transmission.
    clean: np.ndarray
    #: listeners with >= 2 transmitting neighbours (ground-truth collision).
    collided: np.ndarray
    #: listeners with no transmitting neighbour.
    silent: np.ndarray
    #: for clean listeners, the id of the unique transmitting neighbour;
    #: 0 (meaningless) everywhere else — always mask with ``clean``.  A 0
    #: *inside* the clean mask is a legitimate delivery from node id 0, so
    #: consumers must never treat "senders == 0" alone as "no delivery".
    senders: np.ndarray

    def row(self, i: int) -> "ChannelRound":
        """The ``i``-th instance of a batched resolution."""
        return ChannelRound(
            counts=self.counts[i],
            clean=self.clean[i],
            collided=self.collided[i],
            silent=self.silent[i],
            senders=self.senders[i],
        )


def _check_masks(n: int, transmit: np.ndarray, listen: np.ndarray) -> None:
    """Validate mask shapes and the half-duplex disjointness precondition."""
    if transmit.shape != listen.shape:
        raise SimulationError(
            f"transmit and listen masks must have the same shape, got "
            f"{transmit.shape} and {listen.shape}"
        )
    if transmit.ndim not in (1, 2) or transmit.shape[-1] != n:
        raise SimulationError(
            f"channel masks must be (n,) or (batch, n) with n={n}, got "
            f"shape {transmit.shape}"
        )
    overlap = np.logical_and(transmit, listen)
    if overlap.any():
        where = np.argwhere(overlap)[0]
        # "batch row", not "instance": a fused batch may hold only the
        # still-live subset of a caller's items, so the row position is
        # meaningful only relative to the masks actually passed in (the
        # batch engine appends its own row→item mapping when re-raising).
        row = f"batch row {int(where[0])}, " if overlap.ndim == 2 else ""
        raise SimulationError(
            f"transmit and listen masks must be disjoint (radios are "
            f"half-duplex): {row}node {int(where[-1])} does both"
        )


def resolve_channel(
    operand: KernelOperand | np.ndarray, transmit: np.ndarray, listen: np.ndarray
) -> ChannelRound:
    """Resolve one round on a kernel operand (dense, CSR, or bit-packed).

    ``transmit`` and ``listen`` are boolean masks of shape ``(n,)`` or
    ``(batch, n)``; transmitters hear nothing (half-duplex), so the masks
    must be disjoint — enforced here, for direct kernel callers and future
    backends as much as for the engines, because an overlap silently
    produces wrong physics.  Accepts a raw adjacency-matrix ``ndarray`` as
    a dense operand for backward compatibility, but wraps it in a fresh
    :class:`DenseOperand` (dtype conversion and all) on *every* call —
    hot loops should construct the operand once and pass it instead.

    The sender pass is gated per batch row: only the rows that actually
    have a clean listener pay for id recovery, so one busy instance in a
    fused batch stops charging the whole group.
    """
    op = as_kernel_operand(operand)
    transmit = np.asarray(transmit)
    listen = np.asarray(listen)
    _check_masks(op.n, transmit, listen)
    tx = op.prepare_transmit(transmit)
    counts = op.transmit_counts(tx)
    clean = listen & (counts == 1)
    collided = listen & (counts >= 2)
    silent = listen & (counts == 0)
    if clean.ndim == 1:
        if clean.any():
            senders = np.where(clean, op.sender_ids(tx, clean), 0)
        else:
            senders = np.zeros(counts.shape, dtype=np.int64)
    else:
        rows = np.flatnonzero(clean.any(axis=1))
        if rows.size == clean.shape[0]:
            senders = np.where(clean, op.sender_ids(tx, clean), 0)
        else:
            senders = np.zeros(counts.shape, dtype=np.int64)
            if rows.size:
                sub_clean = clean[rows]
                senders[rows] = np.where(
                    sub_clean, op.sender_ids(tx[rows], sub_clean), 0
                )
    return ChannelRound(
        counts=counts, clean=clean, collided=collided, silent=silent, senders=senders
    )


def round_stats(
    round_index: int, transmit: np.ndarray, channel: ChannelRound
) -> RoundStats:
    """Materialize the omniscient :class:`RoundStats` of one (unbatched) round."""
    receivers = np.nonzero(channel.clean)[0]
    senders = channel.senders[receivers]
    return RoundStats(
        round_index=round_index,
        transmitters=tuple(np.nonzero(transmit)[0].tolist()),
        deliveries=tuple(zip(receivers.tolist(), senders.tolist())),
        collisions=tuple(np.nonzero(channel.collided)[0].tolist()),
    )
