"""Round-synchronous radio-network simulation subsystem.

Layers, bottom-up:

* :mod:`repro.sim.rng` — seeded per-node random streams (reproducibility);
* :mod:`repro.sim.topology` — :class:`RadioNetwork` and graph generators;
* :mod:`repro.sim.faults` — crash windows, edge flips, message loss and
  jammers, attachable to any run;
* :mod:`repro.sim.core` — the array-native execution core: the batched
  channel kernel, the :class:`ArrayProtocol` API, and the single/batch
  array engines;
* :mod:`repro.sim.decay` — the collision-blind Decay baseline (BGI 1992);
* :mod:`repro.sim.multi_message` — a simplification of the paper's
  collision-detection broadcast of ``k`` messages: a beep wave that
  synchronizes the network, then a layered slot schedule with decay
  backoff, one message per owned slot.  Single-message broadcast
  (``"ghk"``) is its ``k = 1`` case, budgeted like ``O(D + log^2 n)``
  (the paper proves ``O(D + log^6 n)``); ``"multimessage"`` is budgeted
  like ``O(D + k log n + log^2 n)`` (the paper's bound for known topology);
* :mod:`repro.sim.runners` — the one table of protocol specs and the run API,
  :func:`run_broadcast` / :func:`run_broadcast_batch`, which return one
  :class:`BroadcastResult` type for every protocol.

Each protocol has exactly one implementation, its :class:`ArrayProtocol`;
the test suite keeps per-node reference forms of both as oracles.
"""

from repro.sim.core import (
    ArrayContext,
    ArrayEngine,
    ArrayProtocol,
    BatchEngine,
    BatchItem,
    BatchOutcome,
    BitOperand,
    BroadcastArrayProtocol,
    ChannelRound,
    CoinDeck,
    DenseOperand,
    FaultTotals,
    RoundPlan,
    SparseOperand,
    resolve_channel,
    resolve_channel_backend,
    select_kernel_operand,
)
from repro.sim.core.stats import RoundStats, SimResult
from repro.sim.decay import DecayArrayProtocol
from repro.sim.faults import (
    EdgeFlip,
    FaultSchedule,
    FaultState,
    Jammer,
    NodeCrash,
    sample_fault_schedule,
)
from repro.sim.multi_message import MultiMessageArrayProtocol
from repro.sim.rng import SeededStreams, stream
from repro.sim.runners import (
    BROADCAST_PROTOCOL_NAMES,
    BroadcastResult,
    BroadcastSpec,
    broadcast_spec,
    run_broadcast,
    run_broadcast_batch,
)
from repro.sim.topology import (
    TOPOLOGY_NAMES,
    RadioNetwork,
    dumbbell,
    from_spec,
    gnp,
    grid2d,
    line,
    ring,
    star,
    unit_disk,
)

__all__ = [
    "ArrayContext",
    "ArrayEngine",
    "ArrayProtocol",
    "BROADCAST_PROTOCOL_NAMES",
    "BatchEngine",
    "BitOperand",
    "BatchItem",
    "BatchOutcome",
    "BroadcastArrayProtocol",
    "BroadcastResult",
    "BroadcastSpec",
    "ChannelRound",
    "CoinDeck",
    "DecayArrayProtocol",
    "DenseOperand",
    "EdgeFlip",
    "FaultSchedule",
    "FaultState",
    "FaultTotals",
    "Jammer",
    "MultiMessageArrayProtocol",
    "NodeCrash",
    "RadioNetwork",
    "RoundPlan",
    "RoundStats",
    "SeededStreams",
    "SimResult",
    "SparseOperand",
    "TOPOLOGY_NAMES",
    "broadcast_spec",
    "dumbbell",
    "from_spec",
    "gnp",
    "grid2d",
    "line",
    "resolve_channel",
    "resolve_channel_backend",
    "ring",
    "run_broadcast",
    "run_broadcast_batch",
    "sample_fault_schedule",
    "select_kernel_operand",
    "star",
    "stream",
    "unit_disk",
]
