"""Per-fault loop forms of the fault layer's window arithmetic.

:class:`~repro.sim.faults.FaultState` keeps a schedule's crash and jammer
windows as arrays and finds a round's down set with one comparison over
them.  The forms here are the loops over the schedule's entries that it
replaced, kept as independent checks.
"""

from __future__ import annotations

import numpy as np

from repro.sim.faults import FaultSchedule

__all__ = ["loop_crash_mask", "loop_jam_cover"]


def loop_crash_mask(schedule: FaultSchedule, n: int, round_index: int) -> np.ndarray | None:
    """The nodes down in ``round_index``, or ``None`` when none is."""
    crashed: np.ndarray | None = None
    for crash in schedule.crashes:
        if crash.down(round_index):
            if crashed is None:
                crashed = np.zeros(n, dtype=bool)
            crashed[crash.node] = True
    return crashed


def loop_jam_cover(
    schedule: FaultSchedule,
    csr: tuple[np.ndarray, np.ndarray],
    round_index: int,
) -> np.ndarray | None:
    """The active jammers' closed neighbourhoods on ``csr``, or ``None``."""
    indptr, indices = csr
    active = [j.node for j in schedule.jammers if j.active(round_index)]
    if not active:
        return None
    cover = np.zeros(indptr.size - 1, dtype=bool)
    for node in active:
        cover[node] = True
        cover[indices[indptr[node] : indptr[node + 1]]] = True
    return cover
