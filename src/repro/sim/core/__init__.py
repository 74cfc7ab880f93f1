"""The layered array-native execution core.

Layers, bottom-up:

* :mod:`repro.sim.core.stats` — the ground-truth record types
  (:class:`RoundStats`, :class:`SimResult`) every run reports;
* :mod:`repro.sim.core.channel` — the pure, batched channel kernel:
  adjacency matmul → silence/clean/collision outcome arrays + sender ids;
* :mod:`repro.sim.core.array_protocol` — the :class:`ArrayProtocol` API
  (one instance holds all nodes' state as arrays) with per-node seeded
  randomness preserved via :class:`CoinDeck`, plus the array registry;
* :mod:`repro.sim.core.batch` — :class:`ArrayEngine` (one instance) and
  :class:`BatchEngine` (many independent seed × topology × protocol
  instances, fused per-topology into batched kernel calls, with early
  exit per instance).
"""

from repro.sim.core.array_protocol import (
    ArrayContext,
    ArrayProtocol,
    BroadcastArrayProtocol,
    CoinDeck,
    RoundPlan,
    array_protocol_class,
    available_array_protocols,
    register_array_protocol,
)
from repro.sim.core.batch import (
    ArrayEngine,
    BatchEngine,
    BatchItem,
    BatchOutcome,
    RoundObserver,
    TraceObserver,
    resolve_channel_backend,
    select_kernel_operand,
)
from repro.sim.core.channel import (
    BitOperand,
    ChannelRound,
    DenseOperand,
    KernelOperand,
    SparseOperand,
    adjacency_operand,
    as_kernel_operand,
    resolve_channel,
    round_stats,
)
from repro.sim.core.stats import (
    FaultTotals,
    RoundStats,
    RunTelemetry,
    SimResult,
    TrafficTotals,
)

__all__ = [
    "ArrayContext",
    "ArrayEngine",
    "ArrayProtocol",
    "BatchEngine",
    "BitOperand",
    "BatchItem",
    "BatchOutcome",
    "BroadcastArrayProtocol",
    "ChannelRound",
    "CoinDeck",
    "DenseOperand",
    "FaultTotals",
    "KernelOperand",
    "RoundObserver",
    "RoundPlan",
    "RoundStats",
    "RunTelemetry",
    "SimResult",
    "SparseOperand",
    "TraceObserver",
    "TrafficTotals",
    "adjacency_operand",
    "array_protocol_class",
    "as_kernel_operand",
    "available_array_protocols",
    "register_array_protocol",
    "resolve_channel",
    "resolve_channel_backend",
    "round_stats",
    "select_kernel_operand",
]
