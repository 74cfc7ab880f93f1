"""Broadcast protocol specs and the run API.

Two layers live here:

* **Specs.**  A :class:`BroadcastSpec` bundles everything a protocol needs
  to be driven end-to-end — its array-protocol factory, its round-budget
  rule and the channel model it assumes.
  Algorithm modules register their spec at import time; the lookup
  functions lazily import them so ``runners`` never imports an algorithm
  module at its own import time (which would be circular — the algorithm
  modules import the spec types below).

* **Execution.**  :func:`run_broadcast_batch` drives any number of
  (network, seed) instances of one protocol through the array-native
  :class:`~repro.sim.core.batch.BatchEngine` — one process, fused kernel
  calls per topology (per size for sparse fault-free instances, whatever
  their graphs), early exit per instance — and returns per-instance
  results; :func:`run_broadcast` is the single-instance convenience that
  raises on an undelivered run.

Every delivered run, whatever the protocol, is one
:class:`BroadcastResult`: the shared observables (``rounds_to_delivery``,
``informed_rounds``, ``budget``, ``sim``) plus the per-protocol ones the
array protocol reports through
:meth:`~repro.sim.core.array_protocol.BroadcastArrayProtocol.result_fields`
(``wave_distances`` for ``"ghk"`` and ``"multimessage"``, ``message_rounds``
for ``"multimessage"`` at ``k > 1``).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import BroadcastFailure, ConfigurationError, SimulationError
from repro.params import ProtocolParams
from repro.sim.core.array_protocol import BroadcastArrayProtocol
from repro.sim.core.batch import BatchEngine, BatchItem
from repro.sim.core.stats import RoundStats, SimResult
from repro.sim.faults import FaultSchedule
from repro.sim.topology import RadioNetwork

__all__ = [
    "BROADCAST_PROTOCOL_NAMES",
    "BroadcastResult",
    "BroadcastSpec",
    "broadcast_result",
    "broadcast_spec",
    "register_broadcast_spec",
    "run_broadcast",
    "run_broadcast_batch",
]

#: All runnable broadcast protocol names, sorted; rebound on every spec
#: registration so it always mirrors the registry (read it as
#: ``runners.BROADCAST_PROTOCOL_NAMES`` at use time, not via a from-import
#: snapshot, if registrations may happen after your module loads).
BROADCAST_PROTOCOL_NAMES: tuple[str, ...] = ()


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of one delivered broadcast, whatever the protocol."""

    #: the registered protocol name (``"decay"``, ``"ghk"``, ...).
    protocol: str
    network: str
    n: int
    seed: int
    budget: int
    #: rounds executed until every node was informed (held all k messages).
    rounds_to_delivery: int
    #: per-node round at which the (last missing) message arrived; 0 for the source.
    informed_rounds: tuple[int, ...]
    sim: SimResult
    #: per-node BFS layer as learned from the sync wave (not for Decay).
    wave_distances: tuple[int, ...] = ()
    #: per-node, per-message arrival rounds, k entries per node (k > 1 only).
    message_rounds: tuple[tuple[int, ...], ...] = ()


def broadcast_result(
    protocol: str, item: BatchItem, proto: BroadcastArrayProtocol, sim: SimResult
) -> BroadcastResult:
    """The result of a delivered batch item: shared fields plus the protocol's own."""
    return BroadcastResult(
        protocol=protocol,
        network=item.network.name,
        n=item.network.n,
        seed=item.seed,
        budget=item.budget,
        rounds_to_delivery=sim.rounds_run,
        informed_rounds=proto.informed_rounds(),
        sim=sim,
        **proto.result_fields(),
    )


@dataclass(frozen=True)
class BroadcastSpec:
    """Everything needed to drive one broadcast protocol end-to-end."""

    name: str
    #: human-readable label used in failure messages ("Decay", "GHK").
    label: str
    #: whole-network array protocol factory, called with the per-run
    #: options the spec declares in :attr:`option_names`.
    array_factory: Callable[..., BroadcastArrayProtocol]
    #: default round budget: ``(params, network, n_bound, options) -> rounds``.
    budget_for: Callable[[ProtocolParams, RadioNetwork, int, Mapping[str, Any]], int]
    #: the channel model the protocol assumes: True when it reads a
    #: collision as a beep (receivers detect collisions), False when it
    #: reads only clean receipts.  Declarative; no run option changes it.
    collision_detection: bool
    #: per-run option names this protocol accepts (e.g. ``k_messages``);
    #: the run APIs reject options outside this set up front.
    option_names: frozenset[str] = frozenset()
    # A field (not a plain call) only so benchmark tracers can wrap it.
    build_result: Callable[..., BroadcastResult] = broadcast_result


_SPECS: dict[str, BroadcastSpec] = {}


def _resolve_options(
    spec: BroadcastSpec, options: Mapping[str, Any] | None
) -> dict[str, Any]:
    """Validate per-run options against the spec's declared option names."""
    if options is None:
        return {}
    unknown = sorted(set(options) - spec.option_names)
    if unknown:
        supported = sorted(spec.option_names) or "none"
        raise ConfigurationError(
            f"{spec.label} does not accept option(s) {unknown}; supported: {supported}"
        )
    return dict(options)


def register_broadcast_spec(spec: BroadcastSpec) -> BroadcastSpec:
    """Register a protocol's driver spec (called by the algorithm modules)."""
    global BROADCAST_PROTOCOL_NAMES
    if spec.name in _SPECS:
        raise ConfigurationError(
            f"broadcast protocol {spec.name!r} is already registered"
        )
    _SPECS[spec.name] = spec
    BROADCAST_PROTOCOL_NAMES = tuple(sorted(_SPECS))
    return spec


def _ensure_specs_loaded() -> None:
    # The algorithm modules register their specs at import time; importing
    # them here (instead of at module top) keeps runners <-> algorithms
    # acyclic while making every lookup self-sufficient.
    import repro.sim.decay  # noqa: F401
    import repro.sim.multi_message  # noqa: F401


def broadcast_spec(name: str) -> BroadcastSpec:
    """Look up a broadcast driver spec by protocol name."""
    _ensure_specs_loaded()
    try:
        return _SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown broadcast protocol {name!r}; "
            f"choose from {BROADCAST_PROTOCOL_NAMES}"
        ) from None


# ---------------------------------------------------------------------- #
# Array-native batch execution
# ---------------------------------------------------------------------- #
def run_broadcast_batch(
    protocol: str,
    networks: Sequence[RadioNetwork],
    *,
    seeds: Sequence[int] | None = None,
    params: ProtocolParams | None = None,
    n_bound: int | None = None,
    budget: int | None = None,
    trace: bool = False,
    options: Mapping[str, Any] | None = None,
    observers: Sequence[Callable[[int, RoundStats], None]] | None = None,
    telemetry: dict | None = None,
    faults: FaultSchedule | Sequence[FaultSchedule | None] | None = None,
    sanitize: bool | None = None,
) -> list[BroadcastResult | BroadcastFailure]:
    """Run one broadcast instance per (network, seed) through the batch engine.

    Returns one entry per instance, in order: its :class:`BroadcastResult`
    on success, or the :class:`~repro.errors.BroadcastFailure` (as a value,
    not raised) when the instance exhausted its budget — sweeps count
    failures rather than crash.
    ``options`` carries per-run protocol options (e.g. ``k_messages`` for
    the multi-message broadcast) into every instance's protocol factory and
    budget rule.  ``observers`` stream every executed round as
    ``(instance_index, RoundStats)`` in O(1) memory; passing a dict as
    ``telemetry`` fills it with the batch's wall-clock observables
    (:meth:`~repro.sim.core.stats.RunTelemetry.as_dict`) after the run.
    ``faults`` attaches fault schedules (see :mod:`repro.sim.faults`):
    one schedule shared by every instance, or a sequence with one entry
    (possibly ``None``) per instance.  ``sanitize`` opts every instance
    into the runtime sanitizer (``None`` defers to ``REPRO_SANITIZE``).
    """
    spec = broadcast_spec(protocol)
    if seeds is None:
        seeds = range(len(networks))
    seeds = list(seeds)
    if len(seeds) != len(networks):
        raise ConfigurationError(
            f"need one seed per network: got {len(seeds)} seeds "
            f"for {len(networks)} networks"
        )
    if faults is None or isinstance(faults, FaultSchedule):
        fault_list: list[FaultSchedule | None] = [faults] * len(networks)
    else:
        fault_list = list(faults)
        if len(fault_list) != len(networks):
            raise ConfigurationError(
                f"need one fault schedule per network: got {len(fault_list)} "
                f"schedules for {len(networks)} networks"
            )
    options = _resolve_options(spec, options)
    params = params if params is not None else ProtocolParams.paper()
    items: list[BatchItem] = []
    for net, seed, schedule in zip(networks, seeds, fault_list):
        bound = n_bound if n_bound is not None else net.n
        items.append(
            BatchItem(
                network=net,
                protocol=spec.array_factory(**options),
                budget=(
                    budget if budget is not None else spec.budget_for(params, net, bound, options)
                ),
                seed=seed,
                params=params,
                n_bound=bound,
                faults=schedule,
            )
        )
    batch = BatchEngine(items, trace=trace, observers=observers, sanitize=sanitize)
    outcomes = batch.run()
    if telemetry is not None:
        telemetry.update(batch.telemetry().as_dict())
    results: list[BroadcastResult | BroadcastFailure] = []
    for outcome in outcomes:
        item = outcome.item
        proto = item.protocol
        if not isinstance(proto, BroadcastArrayProtocol):
            raise SimulationError(
                f"broadcast batch yielded {type(proto).__name__}, "
                "not a BroadcastArrayProtocol"
            )
        if not outcome.completed:
            undelivered = proto.undelivered()
            results.append(
                BroadcastFailure(
                    f"{spec.label} on {item.network.name} (seed={item.seed}) left "
                    f"{len(undelivered)} of {item.network.n} nodes uninformed "
                    f"after {item.budget} rounds",
                    undelivered,
                    sim=outcome.sim,
                    budget=item.budget,
                )
            )
            continue
        results.append(spec.build_result(spec.name, item, proto, outcome.sim))
    return results


def run_broadcast(
    protocol: str,
    network: RadioNetwork,
    params: ProtocolParams | None = None,
    *,
    seed: int = 0,
    n_bound: int | None = None,
    budget: int | None = None,
    trace: bool = False,
    options: Mapping[str, Any] | None = None,
    observers: Sequence[Callable[[int, RoundStats], None]] | None = None,
    telemetry: dict | None = None,
    faults: FaultSchedule | None = None,
    sanitize: bool | None = None,
) -> BroadcastResult:
    """Run one broadcast end-to-end; the single-instance :func:`run_broadcast_batch`.

    Returns its :class:`BroadcastResult` and raises
    :class:`~repro.errors.BroadcastFailure` on an undelivered run.
    ``options`` carries per-run protocol options (e.g.
    ``{"k_messages": k}`` for ``"multimessage"``); ``observers`` and
    ``telemetry`` stream rounds and collect wall-clock observables (the
    single instance has index 0).
    """
    (result,) = run_broadcast_batch(
        protocol,
        [network],
        seeds=[seed],
        params=params,
        n_bound=n_bound,
        budget=budget,
        trace=trace,
        options=options,
        observers=observers,
        telemetry=telemetry,
        faults=faults,
        sanitize=sanitize,
    )
    if isinstance(result, BroadcastFailure):
        raise result
    return result
