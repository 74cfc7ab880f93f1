"""Round-synchronous radio-network simulation subsystem.

Layers, bottom-up:

* :mod:`repro.sim.rng` — seeded per-node random streams (reproducibility);
* :mod:`repro.sim.topology` — :class:`RadioNetwork` and graph generators;
* :mod:`repro.sim.faults` — crash windows, edge flips, message loss and
  jammers, attachable to any run;
* :mod:`repro.sim.core` — the array-native execution core: the batched
  channel kernel, the :class:`ArrayProtocol` API and registry, and the
  single/batch array engines;
* :mod:`repro.sim.decay` — the collision-blind Decay baseline (BGI 1992);
* :mod:`repro.sim.beepwave` — the collision-detection beep-wave layer:
  1-bit pulses that advance one hop per round and synchronize the network;
* :mod:`repro.sim.ghk_broadcast` — a simplification of the paper's
  broadcast on top of the wave: layered slot schedule + decay backoff,
  budgeted by a formula shaped like ``O(D + log^2 n)`` (the paper proves
  ``O(D + log^6 n)``);
* :mod:`repro.sim.multi_message` — the k-message pipeline on the same
  schedule: one message per owned slot, budgeted like
  ``O(D + k log n + log^2 n)`` (the paper's bound for known topology);
* :mod:`repro.sim.runners` — the protocol specs and the run API,
  :func:`run_broadcast` / :func:`run_broadcast_batch`.

Each protocol has exactly one implementation, its :class:`ArrayProtocol`;
the test suite keeps per-node reference forms of all four as oracles.
"""

from repro.sim.beepwave import (
    WAVE_PULSE,
    BeepWaveArrayProtocol,
    BeepWaveResult,
    run_beep_wave,
)
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
    array_protocol_class,
    available_array_protocols,
    register_array_protocol,
    resolve_channel,
    resolve_channel_backend,
    select_kernel_operand,
)
from repro.sim.core.stats import RoundStats, SimResult
from repro.sim.decay import DecayArrayProtocol, DecayResult
from repro.sim.faults import (
    EdgeFlip,
    FaultSchedule,
    FaultState,
    Jammer,
    NodeCrash,
    sample_fault_schedule,
)
from repro.sim.ghk_broadcast import GHKArrayProtocol, GHKResult
from repro.sim.multi_message import MultiMessageArrayProtocol, MultiMessageResult
from repro.sim.rng import SeededStreams, stream
from repro.sim.runners import (
    BROADCAST_PROTOCOL_NAMES,
    BroadcastSpec,
    broadcast_spec,
    register_broadcast_spec,
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
    "BeepWaveArrayProtocol",
    "BeepWaveResult",
    "BroadcastArrayProtocol",
    "BroadcastSpec",
    "ChannelRound",
    "CoinDeck",
    "DecayArrayProtocol",
    "DecayResult",
    "DenseOperand",
    "EdgeFlip",
    "FaultSchedule",
    "FaultState",
    "FaultTotals",
    "GHKArrayProtocol",
    "GHKResult",
    "Jammer",
    "MultiMessageArrayProtocol",
    "MultiMessageResult",
    "NodeCrash",
    "RadioNetwork",
    "RoundPlan",
    "RoundStats",
    "SeededStreams",
    "SimResult",
    "SparseOperand",
    "TOPOLOGY_NAMES",
    "WAVE_PULSE",
    "array_protocol_class",
    "available_array_protocols",
    "broadcast_spec",
    "dumbbell",
    "from_spec",
    "gnp",
    "grid2d",
    "line",
    "register_array_protocol",
    "register_broadcast_spec",
    "resolve_channel",
    "resolve_channel_backend",
    "ring",
    "run_beep_wave",
    "run_broadcast",
    "run_broadcast_batch",
    "sample_fault_schedule",
    "select_kernel_operand",
    "star",
    "stream",
    "unit_disk",
]
