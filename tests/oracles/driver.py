"""Run the oracles end to end, the way ``run_broadcast`` runs the array protocols.

:func:`run_oracle` takes the same arguments as
:func:`repro.sim.runners.run_broadcast` (minus the streaming hooks, plus
the payload ``message`` the oracles carry),
resolves the same defaults from the protocol's ``BroadcastSpec``, drives
one oracle object per node through :class:`~repro.sim.core.batch.ArrayEngine`
until every node is informed, and returns the same
:class:`~repro.sim.runners.BroadcastResult` — so a test can compare the two
with ``==``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from oracles.api import ObjectProtocolAdapter, Protocol
from oracles.protocols import DecayProtocol, MultiMessageProtocol
from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim.core.batch import ArrayEngine
from repro.sim.faults import FaultSchedule
from repro.sim.runners import BroadcastResult, broadcast_spec
from repro.sim.topology import RadioNetwork

__all__ = ["ORACLES", "oracle_engine", "run_oracle"]

#: The oracle class of every broadcast protocol, by ``run_broadcast`` name.
ORACLES: dict[str, type[Protocol]] = {
    "decay": DecayProtocol,
    "ghk": MultiMessageProtocol,
    "multimessage": MultiMessageProtocol,
}


def oracle_engine(
    network: RadioNetwork,
    protocols: Sequence[Protocol],
    *,
    collision_detection: bool = True,
    **kwargs: Any,
) -> ArrayEngine:
    """An :class:`ArrayEngine` over one oracle object per node.

    ``collision_detection`` is the receivers' model, passed to the
    :class:`ObjectProtocolAdapter`; the other keywords go to the engine.
    """
    adapter = ObjectProtocolAdapter(protocols, collision_detection=collision_detection)
    return ArrayEngine(network, adapter, **kwargs)


def run_oracle(
    protocol: str,
    network: RadioNetwork,
    params: ProtocolParams | None = None,
    *,
    seed: int = 0,
    message: Any = "broadcast",
    n_bound: int | None = None,
    budget: int | None = None,
    trace: bool = False,
    options: Mapping[str, Any] | None = None,
    faults: FaultSchedule | None = None,
    sanitize: bool | None = None,
) -> BroadcastResult:
    """The oracle twin of ``run_broadcast``: same defaults, same result.

    The receivers detect collisions exactly when the spec says the
    protocol assumes it.
    """
    spec = broadcast_spec(protocol)
    options = dict(options or {})
    params = params if params is not None else ProtocolParams.paper()
    bound = n_bound if n_bound is not None else network.n
    if budget is None:
        budget = spec.budget_for(params, network, bound, options)
    protocols = [ORACLES[protocol](message=message, **options) for _ in range(network.n)]
    engine = oracle_engine(
        network,
        protocols,
        seed=seed,
        collision_detection=spec.collision_detection,
        params=params,
        n_bound=bound,
        trace=trace,
        faults=faults,
        sanitize=sanitize,
    )
    sim = engine.run(budget, stop_when=lambda _: all(p.informed for p in protocols))
    undelivered = tuple(i for i, p in enumerate(protocols) if not p.informed)
    if undelivered:
        raise BroadcastFailure(
            f"{spec.label} oracle on {network.name} (seed={seed}) left "
            f"{len(undelivered)} of {network.n} nodes uninformed after {budget} rounds",
            undelivered,
            sim=sim,
            budget=budget,
        )
    extra: dict[str, Any] = {}
    if protocol != "decay":
        extra["wave_distances"] = tuple(p.wave_distance for p in protocols)
    if options.get("k_messages", 1) > 1:
        extra["message_rounds"] = tuple(
            tuple(-1 if r is None else r for r in p.message_rounds) for p in protocols
        )
    return BroadcastResult(
        protocol=protocol,
        network=network.name,
        n=network.n,
        seed=seed,
        budget=budget,
        rounds_to_delivery=sim.rounds_run,
        informed_rounds=tuple(p.informed_round for p in protocols),
        sim=sim,
        **extra,
    )
