"""Run the oracles end to end, the way ``run_broadcast`` runs the array protocols.

:func:`run_oracle` takes the same arguments as
:func:`repro.sim.runners.run_broadcast` (minus the streaming hooks),
resolves the same defaults from the protocol's ``BroadcastSpec``, drives
one oracle object per node through :class:`~repro.sim.core.batch.ArrayEngine`
until every node is informed, and returns the same result dataclass — so
a test can compare the two with ``==``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from oracles.api import ObjectProtocolAdapter, Protocol
from oracles.protocols import DecayProtocol, GHKBroadcastProtocol, MultiMessageProtocol
from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim.core.batch import ArrayEngine
from repro.sim.decay import DecayResult
from repro.sim.faults import FaultSchedule
from repro.sim.ghk_broadcast import GHKResult
from repro.sim.multi_message import MultiMessageResult
from repro.sim.runners import _default_budget, broadcast_spec
from repro.sim.topology import RadioNetwork

__all__ = ["ORACLES", "oracle_engine", "run_oracle"]

#: The oracle class of every broadcast protocol, by ``run_broadcast`` name.
ORACLES: dict[str, type[Protocol]] = {
    "decay": DecayProtocol,
    "ghk": GHKBroadcastProtocol,
    "multimessage": MultiMessageProtocol,
}


def oracle_engine(
    network: RadioNetwork, protocols: Sequence[Protocol], **kwargs: Any
) -> ArrayEngine:
    """An :class:`ArrayEngine` over one oracle object per node."""
    return ArrayEngine(network, ObjectProtocolAdapter(protocols), **kwargs)


def run_oracle(
    protocol: str,
    network: RadioNetwork,
    params: ProtocolParams | None = None,
    *,
    seed: int = 0,
    message: Any = "broadcast",
    collision_detection: bool | None = None,
    n_bound: int | None = None,
    budget: int | None = None,
    trace: bool = False,
    options: Mapping[str, Any] | None = None,
    faults: FaultSchedule | None = None,
    sanitize: bool | None = None,
) -> Any:
    """The oracle twin of ``run_broadcast``: same defaults, same result types."""
    spec = broadcast_spec(protocol)
    options = dict(options or {})
    params = params if params is not None else ProtocolParams.paper()
    bound = n_bound if n_bound is not None else network.n
    if budget is None:
        budget = _default_budget(spec, params, network, bound, options, faults)
    if collision_detection is None:
        collision_detection = spec.default_collision_detection
    protocols = [ORACLES[protocol](message=message, **options) for _ in range(network.n)]
    engine = oracle_engine(
        network,
        protocols,
        seed=seed,
        collision_detection=collision_detection,
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
    common: dict[str, Any] = {
        "network": network.name,
        "n": network.n,
        "seed": seed,
        "budget": budget,
        "rounds_to_delivery": sim.rounds_run,
        "informed_rounds": tuple(p.informed_round for p in protocols),
        "sim": sim,
    }
    if protocol == "decay":
        return DecayResult(**common, phase_length=params.decay_phase_length(bound))
    common["wave_distances"] = tuple(p.wave_distance for p in protocols)
    common["wave_spacing"] = params.wave_spacing
    if protocol == "ghk":
        return GHKResult(**common)
    return MultiMessageResult(
        **common,
        k_messages=options.get("k_messages", 1),
        message_rounds=tuple(
            tuple(-1 if r is None else r for r in p.message_rounds) for p in protocols
        ),
    )
