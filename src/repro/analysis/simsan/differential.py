"""Cross-backend differential checking against a dense reference.

The simulator's three channel backends (dense matmul, transmitter-driven
sparse CSR bincount, bit-packed popcount) are bitwise identical by
contract; this module is the runtime enforcement of that contract, and
the certification hook any future backend (the ROADMAP's GPU operand)
must pass.  Every sanitized round is recomputed on a **reference**
:class:`~repro.sim.core.channel.DenseOperand` built from the ground-truth
CSR adjacency — independently of whatever operand the engine is running —
and compared bitwise against the active backend's output:

* **full mode** (n ≤ ``full_max_n``): the whole round is re-resolved
  through :func:`~repro.sim.core.channel.resolve_channel` and every
  output array compared;
* **sampled mode** (larger n, where a dense reference matmul would
  dominate the run): a per-round sample of listener rows has its counts,
  feedback outcome, and sender id re-derived directly from the CSR
  neighbour lists.  Sampling coins come from the sanitizer's private
  stream, never from the run's keyed coins.

Findings are returned as ``(check_id, message, details)`` tuples; the
harness turns them into :class:`~repro.errors.SanitizerError` with run
context attached.
"""

from __future__ import annotations

import numpy as np

from repro.sim.core.channel import (
    ChannelRound,
    DenseOperand,
    operand_from_csr,
    resolve_channel,
)

__all__ = ["DifferentialChecker"]

#: A differential finding: (check id, message, JSON-able details).
Finding = tuple[str, str, dict]


class DifferentialChecker:
    """Recompute each round's channel feedback on a dense reference.

    ``refresh`` rebuilds the reference when the adjacency changes (edge
    flips); the harness keys those calls on
    :attr:`~repro.sim.faults.FaultState.adjacency_version`.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        full_max_n: int,
        sample_rows: int,
        rng: np.random.Generator,
    ) -> None:
        self._full_max_n = full_max_n
        self._sample_rows = sample_rows
        self._rng = rng
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._n = self._indptr.size - 1
        self._dense: DenseOperand | None = None
        self._build_reference()

    @property
    def full(self) -> bool:
        """Whether this checker runs in full (whole-round) mode."""
        return self._dense is not None

    def _build_reference(self) -> None:
        if self._n <= self._full_max_n:
            operand = operand_from_csr("dense", self._indptr, self._indices)
            assert isinstance(operand, DenseOperand)
            self._dense = operand
        else:
            self._dense = None

    def refresh(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Rebuild the reference for a new (edge-flipped) adjacency."""
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._build_reference()

    def check(
        self,
        transmit: np.ndarray,
        listen: np.ndarray,
        channel: ChannelRound,
    ) -> Finding | None:
        """Compare one raw kernel round against the reference; None if equal."""
        if self._dense is not None:
            return self._check_full(transmit, listen, channel)
        return self._check_sampled(transmit, listen, channel)

    # ------------------------------------------------------------------ #
    # Full mode
    # ------------------------------------------------------------------ #
    def _check_full(
        self,
        transmit: np.ndarray,
        listen: np.ndarray,
        channel: ChannelRound,
    ) -> Finding | None:
        assert self._dense is not None
        reference = resolve_channel(self._dense, transmit, listen)
        if not np.array_equal(reference.counts, channel.counts):
            node = int(np.argwhere(reference.counts != channel.counts)[0][0])
            return (
                "diff.counts",
                f"node {node} count is {int(channel.counts[node])}, dense "
                f"reference says {int(reference.counts[node])}",
                {
                    "node": node,
                    "active": int(channel.counts[node]),
                    "reference": int(reference.counts[node]),
                },
            )
        for label, active, ref in (
            ("clean", channel.clean, reference.clean),
            ("collided", channel.collided, reference.collided),
            ("silent", channel.silent, reference.silent),
        ):
            if not np.array_equal(ref, active):
                node = int(np.argwhere(ref != active)[0][0])
                return (
                    "diff.feedback",
                    f"{label} mask disagrees with the dense reference at "
                    f"node {node}",
                    {"mask": label, "node": node},
                )
        mismatch = reference.clean & (reference.senders != channel.senders)
        if mismatch.any():
            node = int(np.flatnonzero(mismatch)[0])
            return (
                "diff.senders",
                f"clean listener {node} reports sender "
                f"{int(channel.senders[node])}, dense reference says "
                f"{int(reference.senders[node])}",
                {
                    "node": node,
                    "active": int(channel.senders[node]),
                    "reference": int(reference.senders[node]),
                },
            )
        return None

    # ------------------------------------------------------------------ #
    # Sampled mode
    # ------------------------------------------------------------------ #
    def _check_sampled(
        self,
        transmit: np.ndarray,
        listen: np.ndarray,
        channel: ChannelRound,
    ) -> Finding | None:
        k = min(self._sample_rows, self._n)
        nodes = self._rng.choice(self._n, size=k, replace=False)
        indptr, indices = self._indptr, self._indices
        for raw in nodes.tolist():
            node = int(raw)
            neighbours = indices[indptr[node] : indptr[node + 1]]
            count = int(np.count_nonzero(transmit[neighbours]))
            if count != int(channel.counts[node]):
                return (
                    "diff.counts",
                    f"sampled node {node} count is {int(channel.counts[node])}, "
                    f"CSR reference says {count}",
                    {
                        "node": node,
                        "active": int(channel.counts[node]),
                        "reference": count,
                    },
                )
            listening = bool(listen[node])
            expected = (
                listening and count == 1,
                listening and count >= 2,
                listening and count == 0,
            )
            actual = (
                bool(channel.clean[node]),
                bool(channel.collided[node]),
                bool(channel.silent[node]),
            )
            if expected != actual:
                label = ("clean", "collided", "silent")[
                    next(i for i in range(3) if expected[i] != actual[i])
                ]
                return (
                    "diff.feedback",
                    f"{label} mask disagrees with the CSR reference at "
                    f"sampled node {node}",
                    {"mask": label, "node": node},
                )
            if expected[0]:
                sender = int(neighbours[np.flatnonzero(transmit[neighbours])[0]])
                if sender != int(channel.senders[node]):
                    return (
                        "diff.senders",
                        f"sampled clean listener {node} reports sender "
                        f"{int(channel.senders[node])}, CSR reference says "
                        f"{sender}",
                        {
                            "node": node,
                            "active": int(channel.senders[node]),
                            "reference": sender,
                        },
                    )
        return None
