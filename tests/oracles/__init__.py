"""Per-node reference implementations ("oracles") of the library's protocols.

The library ships one implementation per protocol: the whole-network
array protocols.  The paper states each algorithm as a per-node rule, so
the tests keep that form too, as an independent check of the protocol
logic.  An oracle runs on the same round loop and channel kernel through
:class:`~oracles.api.ObjectProtocolAdapter`, and must agree with its array
twin bit for bit on every seed (``tests/test_equivalence.py``).

* :mod:`oracles.api` — the per-node ``Protocol`` API and the adapter;
* :mod:`oracles.protocols` — Decay, the beep wave, GHK and the k-message
  pipeline, one node at a time;
* :mod:`oracles.driver` — :func:`run_oracle`, the ``run_broadcast`` twin;
* :mod:`oracles.graph` — the per-node forms of the graph layer (FIFO BFS,
  neighbour-set edge flips), checked against ``RadioNetwork``'s CSR and
  the fault layer's key array;
* :mod:`oracles.faults` — the fault layer's crash and jammer windows as
  loops over the schedule, checked against its window arrays.
"""

from oracles.api import (
    Action,
    ActionKind,
    BroadcastProtocol,
    Feedback,
    FeedbackKind,
    NodeContext,
    ObjectProtocolAdapter,
    Protocol,
    in_layer_slot,
    is_beep,
)
from oracles.driver import ORACLES, oracle_engine, run_oracle
from oracles.protocols import (
    BeepWaveProtocol,
    DecayProtocol,
    GHKBroadcastProtocol,
    MultiMessageProtocol,
)

__all__ = [
    "ORACLES",
    "Action",
    "ActionKind",
    "BeepWaveProtocol",
    "BroadcastProtocol",
    "DecayProtocol",
    "Feedback",
    "FeedbackKind",
    "GHKBroadcastProtocol",
    "MultiMessageProtocol",
    "NodeContext",
    "ObjectProtocolAdapter",
    "Protocol",
    "in_layer_slot",
    "is_beep",
    "oracle_engine",
    "run_oracle",
]
