"""Smoke-test CLI: run one broadcast protocol end-to-end on a chosen topology.

Example::

    python -m repro.sim.demo --topology grid --n 64 --seed 0 --protocol ghk

Prints the topology summary, the round budget, and the rounds it took to
inform every node; exits non-zero on a :class:`BroadcastFailure` so the
command doubles as a shell-scriptable smoke test.  ``--protocol decay``
(the default) runs the collision-blind baseline; ``--protocol ghk`` runs
the paper's collision-detection broadcast, which always models collision
detection regardless of the flag.

Runs go through the array-native batch engine.  ``--messages K``
broadcasts ``K`` distinct messages with the k-message pipeline
(``--protocol multimessage``), ``--budget`` overrides the round budget
(handy for forcing a failure), ``--json`` emits one machine-readable JSON
object on stdout instead of prose, and ``--trace`` logs every round's
ground truth (transmitters, deliveries, collisions) so a run can be
inspected without writing code.

The ``--json`` payload has one shape for both run outcomes: the shared
keys (topology header, ``budget``, ``rounds_run``, channel totals,
per-node ``traffic`` counters with the ``energy`` awake-slot total, and
wall-clock ``telemetry``) are always present and ``status`` discriminates
``"delivered"`` from ``"failed"``, so one consumer schema parses every
run.  Value errors
caught before any simulation (a non-positive ``--budget``, a topology
that cannot be built, ``--messages`` on a single-message protocol) emit a
reduced payload with ``status: "error"`` and an ``error`` message, and
exit 2.  Malformed flags that argparse itself rejects (e.g. a
non-integer ``--budget``) exit 2 with the standard usage text on stderr,
before any JSON contract applies.

``--backend {auto,dense,sparse,bitpacked}`` selects the channel-kernel
backend (dense matmul, sparse CSR, or bit-packed popcount); ``auto`` picks
by topology density and size, and all three
give bitwise-identical runs, so the flag is purely a speed/memory knob.

``--crash-rate``, ``--loss-rate`` and ``--jammers`` inject seeded faults
(see :mod:`repro.sim.faults`): each non-source node crashes for one
window with the crash probability, each clean reception is dropped with
the loss probability, and the jammer count places always-on jammers.
The schedule is sampled from the run seed (its own stream — coins are
unchanged), both ``--json`` shapes carry the knobs under ``"faults"``
plus the injected totals under ``"fault_totals"``, and all three at
their defaults leave the run bitwise-identical to a fault-free one.

``--sanitize`` attaches the simsan runtime sanitizer
(:mod:`repro.analysis.simsan`): every round is checked against the
kernel-boundary contracts, conservation laws, and a differential dense
re-execution of the channel; violations abort the run with a structured
:class:`~repro.errors.SanitizerError`.  Without the flag the run also
honours ``REPRO_SANITIZE=1`` from the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence

from repro.errors import BroadcastFailure, TopologyError
from repro.params import ProtocolParams
from repro.sim import runners
from repro.sim.core import RoundStats, SimResult, resolve_channel_backend
from repro.sim.decay import DecayResult
from repro.sim.faults import sample_fault_schedule
from repro.sim.ghk_broadcast import GHKResult
from repro.sim.multi_message import MultiMessageResult
from repro.sim.runners import run_broadcast
from repro.sim.topology import TOPOLOGY_NAMES, from_spec


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return seed


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.demo",
        description="Broadcast one message with a registered protocol.",
    )
    parser.add_argument("--topology", choices=TOPOLOGY_NAMES, default="grid")
    parser.add_argument("--n", type=int, default=64, help="number of nodes")
    parser.add_argument(
        "--protocol",
        choices=runners.BROADCAST_PROTOCOL_NAMES,
        default="decay",
        help="broadcast protocol to run (default: decay)",
    )
    parser.add_argument("--seed", type=_seed, default=0, help="run seed (topology + coins)")
    parser.add_argument(
        "--messages",
        type=_positive,
        default=1,
        metavar="K",
        help="number of distinct messages to broadcast (protocols with "
        "k-message support, e.g. multimessage; default: 1)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the protocol's round budget (e.g. to force a failure); "
        "must be positive",
    )
    parser.add_argument(
        "--preset",
        choices=("paper", "fast"),
        default="fast",
        help="ProtocolParams preset (default: fast)",
    )
    parser.add_argument("--p", type=float, default=None, help="edge probability for gnp")
    parser.add_argument("--radius", type=float, default=None, help="radius for unit_disk")
    parser.add_argument(
        "--collision-detection",
        action="store_true",
        help="model collision detection (Decay ignores it; ghk always has it)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "dense", "sparse", "bitpacked"),
        default="auto",
        help="channel-kernel backend: auto (default) picks dense, sparse "
        "CSR, or bit-packed popcount per topology density and size; "
        "results are identical either way",
    )
    parser.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="probability each non-source node crashes for one window "
        "of the run (seeded fault injection; default: 0)",
    )
    parser.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="probability each clean reception is independently dropped "
        "(default: 0)",
    )
    parser.add_argument(
        "--jammers",
        type=int,
        default=0,
        metavar="J",
        help="number of always-on jamming nodes (never the source); every "
        "listener they cover perceives a collision (default: 0)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run with the simsan runtime sanitizer: per-round invariant "
        "and differential-backend checks (see repro.analysis.simsan)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of prose",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="log every round's ground truth (transmitters/deliveries/collisions)",
    )
    return parser


# Both trace renderings come from RoundStats.as_row() — one row schema,
# so the prose and JSON traces cannot drift apart.
def _print_trace(history: Sequence[RoundStats]) -> None:
    for stats in history:
        row = stats.as_row()
        print(
            f"round {row['round']:>4d}: "
            f"tx={row['transmitters']} "
            f"deliveries={row['deliveries']} "
            f"collisions={row['collisions']}"
        )


def _trace_rows(history: Sequence[RoundStats]) -> list[dict]:
    return [stats.as_row() for stats in history]


def _traffic_payload(sim: SimResult | None) -> dict | None:
    """Per-node traffic/energy totals of a run, or ``None`` without a sim."""
    if sim is None or sim.traffic is None:
        return None
    return sim.traffic.as_dict()


def _fault_totals_payload(sim: SimResult | None) -> dict | None:
    """Injected-fault totals of a run, or ``None`` on fault-free runs."""
    if sim is None or sim.faults is None:
        return None
    return sim.faults.as_dict()


def _telemetry_payload(wall_seconds: float, rounds: int | None, engine_telemetry: dict) -> dict:
    """Wall-clock observables: demo-level wall time plus engine phase timers."""
    rps = (
        round(rounds / wall_seconds, 1)
        if rounds and wall_seconds > 0
        else None
    )
    return {
        "wall_seconds": round(wall_seconds, 6),
        "rounds_per_sec": rps,
        "phase_seconds": engine_telemetry.get("phase_seconds"),
    }


def _usage_error(args: argparse.Namespace, message: str) -> int:
    """Report a pre-run input error: JSON ``status: "error"`` or stderr prose."""
    if args.json:
        print(
            json.dumps(
                {
                    "status": "error",
                    "protocol": args.protocol,
                    "topology": args.topology,
                    "n": args.n,
                    "seed": args.seed,
                    "error": message,
                },
                indent=2,
            )
        )
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.budget is not None and args.budget < 1:
        # Rejected up front with a clean usage error — letting a
        # non-positive budget through would surface as a confusing
        # BroadcastFailure ("0 rounds were not enough").
        return _usage_error(
            args, f"--budget must be a positive round count, got {args.budget}"
        )
    for flag, rate in (("--crash-rate", args.crash_rate), ("--loss-rate", args.loss_rate)):
        if not 0.0 <= rate <= 1.0:
            return _usage_error(args, f"{flag} must be in [0, 1], got {rate}")
    if args.jammers < 0:
        return _usage_error(args, f"--jammers must be non-negative, got {args.jammers}")
    if args.jammers >= args.n:
        return _usage_error(
            args,
            f"--jammers {args.jammers} needs at least {args.jammers + 1} nodes "
            f"(the source is never a jammer), got --n {args.n}",
        )
    params = ProtocolParams.paper() if args.preset == "paper" else ProtocolParams.fast()
    params = params.with_overrides(channel_backend=args.backend)
    spec = runners.broadcast_spec(args.protocol)
    options = {}
    if "k_messages" in spec.option_names:
        options["k_messages"] = args.messages
    elif args.messages != 1:
        return _usage_error(
            args,
            f"protocol {args.protocol!r} does not support --messages; "
            "choose a k-message protocol (e.g. multimessage)",
        )
    try:
        net = from_spec(args.topology, args.n, seed=args.seed, p=args.p, radius=args.radius)
    except TopologyError as exc:
        return _usage_error(args, f"topology error: {exc}")
    if not args.json:
        print(
            f"{net.name}: n={net.n} edges={net.num_edges} "
            f"source-ecc={net.eccentricity()} diameter={net.diameter()}"
        )
    # Protocols that require collision detection always model it; for the
    # rest (Decay, which ignores it anyway) it is the caller's choice.
    collision_detection = (
        True if spec.requires_collision_detection else args.collision_detection
    )
    # All knobs at zero means no schedule at all (not an empty one), so
    # the default demo run is bitwise-identical to the pre-fault CLI.
    faults = None
    if args.crash_rate > 0 or args.loss_rate > 0 or args.jammers > 0:
        horizon = (
            args.budget
            if args.budget is not None
            else spec.budget_for(params, net, net.n, options)
        )
        faults = sample_fault_schedule(
            net,
            seed=args.seed,
            horizon=horizon,
            crash_rate=args.crash_rate,
            loss_rate=args.loss_rate,
            jammers=args.jammers,
        )
    # Report both the requested backend policy and the backend it resolves
    # to on this topology, so --backend auto payloads are self-describing.
    payload = {
        "protocol": args.protocol,
        "backend": args.backend,
        "backend_resolved": resolve_channel_backend(net, params),
        "topology": net.name,
        "n": net.n,
        "edges": net.num_edges,
        "source_eccentricity": net.eccentricity(),
        "diameter": net.diameter(),
        "seed": args.seed,
        "messages": args.messages,
        "preset": args.preset,
        "collision_detection": collision_detection,
        "sanitized": args.sanitize,
        "faults": {
            "crash_rate": args.crash_rate,
            "loss_rate": args.loss_rate,
            "jammers": args.jammers,
        },
    }
    engine_telemetry: dict = {}
    t0 = time.perf_counter()
    try:
        result = run_broadcast(
            args.protocol,
            net,
            params,
            seed=args.seed,
            collision_detection=collision_detection,
            budget=args.budget,
            trace=args.trace,
            options=options,
            telemetry=engine_telemetry,
            faults=faults,
            # None (not False) without the flag, so REPRO_SANITIZE still
            # opts un-flagged demo runs in.
            sanitize=True if args.sanitize else None,
        )
    except BroadcastFailure as exc:
        wall_seconds = time.perf_counter() - t0
        # The failure carries the executed rounds, so --trace still shows
        # what happened — the case where a trace is most useful.
        sim = exc.sim
        history = sim.history if sim is not None else ()
        if args.json:
            # Same shape as the success payload (shared keys + status
            # discriminator) so one consumer schema parses both.
            payload.update(
                status="failed",
                budget=exc.budget,
                rounds_run=sim.rounds_run if sim is not None else None,
                transmissions=sim.total_transmissions if sim is not None else None,
                deliveries=sim.total_deliveries if sim is not None else None,
                collisions=sim.total_collisions if sim is not None else None,
                error=str(exc),
                undelivered=sorted(exc.undelivered),
                traffic=_traffic_payload(sim),
                fault_totals=_fault_totals_payload(sim),
                telemetry=_telemetry_payload(
                    wall_seconds,
                    sim.rounds_run if sim is not None else None,
                    engine_telemetry,
                ),
            )
            if args.trace:
                payload["trace"] = _trace_rows(history)
            print(json.dumps(payload, indent=2))
        else:
            if args.trace:
                _print_trace(history)
            print(f"FAILED: {exc} (undelivered: {sorted(exc.undelivered)})", file=sys.stderr)
        return 1
    wall_seconds = time.perf_counter() - t0
    if args.trace and not args.json:
        _print_trace(result.sim.history)
    if args.json:
        payload.update(
            status="delivered",
            budget=result.budget,
            rounds_run=result.sim.rounds_run,
            transmissions=result.sim.total_transmissions,
            deliveries=result.sim.total_deliveries,
            collisions=result.sim.total_collisions,
            rounds_to_delivery=result.rounds_to_delivery,
            informed_rounds=list(result.informed_rounds),
            traffic=_traffic_payload(result.sim),
            fault_totals=_fault_totals_payload(result.sim),
            telemetry=_telemetry_payload(
                wall_seconds, result.sim.rounds_run, engine_telemetry
            ),
        )
        if isinstance(result, DecayResult):
            payload.update(
                phase_length=result.phase_length,
                phases_to_delivery=result.phases_to_delivery,
            )
        elif isinstance(result, (GHKResult, MultiMessageResult)):
            if isinstance(result, MultiMessageResult):
                payload.update(k_messages=result.k_messages)
            payload.update(
                wave_depth=max(result.wave_distances),
                wave_spacing=result.wave_spacing,
            )
        if args.trace:
            payload["trace"] = _trace_rows(result.sim.history)
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{args.protocol}: delivered to all {result.n} nodes in "
        f"{result.rounds_to_delivery} rounds within budget {result.budget}"
    )
    if isinstance(result, DecayResult):
        print(
            f"{result.phases_to_delivery} Decay phases of {result.phase_length} rounds"
        )
    elif isinstance(result, (GHKResult, MultiMessageResult)):
        pipelined = (
            f"{result.k_messages} messages pipelined, "
            if isinstance(result, MultiMessageResult)
            else ""
        )
        print(
            f"{pipelined}wave depth {max(result.wave_distances)}, "
            f"layer-slot period {result.wave_spacing}"
        )
    print(
        f"transmissions={result.sim.total_transmissions} "
        f"deliveries={result.sim.total_deliveries} "
        f"collisions={result.sim.total_collisions}"
    )
    fault_totals = result.sim.faults
    if fault_totals is not None:
        print(
            f"faults: dropped={fault_totals.dropped_receptions} "
            f"jammed={fault_totals.jammed_listens} "
            f"crashed-node-rounds={fault_totals.crashed_node_rounds}"
        )
    traffic = result.sim.traffic
    if traffic is not None:
        rounds = result.sim.rounds_run
        rps = f"{rounds / wall_seconds:.1f}" if wall_seconds > 0 else "-"
        print(
            f"energy={traffic.energy} awake slots "
            f"({traffic.energy / result.n:.1f}/node over {rounds} rounds)  "
            f"throughput={rps} rounds/sec"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
