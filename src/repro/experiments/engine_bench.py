"""Batch-engine throughput microbenchmark (``BENCH_engine.json``).

For each protocol the harness runs one multi-seed sweep through the
array-native batch engine and reports wall-clock rounds/sec plus where
the time went (the engine's act / channel / feedback phase timers)::

    python -m repro.experiments.engine_bench --n 256 --seeds 30 \
        --out BENCH_engine.json

``--max-seconds`` turns the run into a smoke test: exit non-zero when a
protocol's whole sweep takes longer than the ceiling (used by CI to catch
vectorization regressions without gating merges).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.errors import AnalysisError, BroadcastFailure, TopologyError
from repro.experiments.record import (
    DEFAULT_PROTOCOLS,
    bench_record,
    resolve_params,
    rounds_per_sec,
    write_bench,
)
from repro.sim import runners
from repro.sim.runners import broadcast_spec, run_broadcast_batch
from repro.sim.topology import TOPOLOGY_NAMES, from_spec

__all__ = ["bench_engines", "main"]


def _path_entry(rounds: int, seconds: float, completed: int, runs: int) -> dict:
    return {
        "rounds": rounds,
        "seconds": round(seconds, 4),
        "rounds_per_sec": rounds_per_sec(rounds, seconds),
        "completed": completed,
        "runs": runs,
    }


def bench_engines(
    *,
    n: int = 256,
    seeds: int = 30,
    topology: str = "grid",
    protocols: tuple[str, ...] | None = None,
    preset: str = "fast",
    backend: str = "auto",
) -> dict:
    """Time the batch engine over one sweep per protocol; return the record.

    Every (protocol, seed) instance runs to delivery or budget; ``rounds``
    counts the rounds actually executed (budget rounds for a failed
    instance), so ``rounds_per_sec`` is genuine execution throughput, not
    success-biased.
    """
    if n < 1:
        raise AnalysisError(f"need at least one node, got n={n}")
    if seeds < 1:
        raise AnalysisError(f"need at least one seed, got seeds={seeds}")
    params = resolve_params(preset, backend)
    if topology not in TOPOLOGY_NAMES:
        raise AnalysisError(
            f"unknown topology {topology!r}; choose from {TOPOLOGY_NAMES}"
        )
    if protocols is None:
        protocols = DEFAULT_PROTOCOLS
    unknown = [p for p in protocols if p not in runners.BROADCAST_PROTOCOL_NAMES]
    if unknown:
        raise AnalysisError(
            f"unknown protocols {unknown}; choose from {runners.BROADCAST_PROTOCOL_NAMES}"
        )
    try:
        nets = [from_spec(topology, n, seed=seed) for seed in range(seeds)]
    except TopologyError as exc:
        raise AnalysisError(f"cannot build {topology} with n={n}: {exc}") from exc
    # Warm the topology caches so the timed sweep does not pay for BFS.
    for net in nets:
        net.eccentricity()

    results = []
    for protocol in protocols:
        spec = broadcast_spec(protocol)
        budgets = [spec.budget_for(params, net, net.n, {}) for net in nets]

        rounds = 0
        completed = 0
        telemetry: dict = {}
        t0 = time.perf_counter()
        batch = run_broadcast_batch(
            protocol, nets, seeds=range(seeds), params=params, telemetry=telemetry
        )
        seconds = time.perf_counter() - t0
        sample_rounds: list[int] = []
        for result, budget in zip(batch, budgets):
            if isinstance(result, BroadcastFailure):
                rounds += budget
                continue
            rounds += result.sim.rounds_run
            completed += 1
            sample_rounds.append(result.rounds_to_delivery)

        entry = {
            "protocol": protocol,
            "topology": topology,
            "n": n,
            "seeds": seeds,
            "rounds_to_delivery_mean": (
                round(statistics.mean(sample_rounds), 2) if sample_rounds else None
            ),
            "array": {
                **_path_entry(rounds, seconds, completed, seeds),
                # Where the time goes, from the engine's own phase timers
                # (act / channel / feedback).
                "phase_seconds": telemetry["phase_seconds"],
            },
        }
        results.append(entry)

    return bench_record(
        "engine",
        preset=preset,
        channel_backend=backend,
        topology=topology,
        n=n,
        seeds=seeds,
        protocols=list(protocols),
        results=results,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.engine_bench",
        description="Time the batch engine over one multi-seed sweep per protocol.",
    )
    parser.add_argument("--n", type=int, default=256, help="nodes per network")
    parser.add_argument("--seeds", type=int, default=30, help="seeds per protocol")
    parser.add_argument("--topology", choices=TOPOLOGY_NAMES, default="grid")
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=list(DEFAULT_PROTOCOLS),
        choices=runners.BROADCAST_PROTOCOL_NAMES,
        metavar="PROTO",
        help=f"protocols to time (default: {' '.join(DEFAULT_PROTOCOLS)})",
    )
    parser.add_argument("--preset", choices=("paper", "fast"), default="fast")
    parser.add_argument(
        "--backend",
        choices=("auto", "dense", "sparse", "bitpacked"),
        default="auto",
        help="channel-kernel backend (results identical)",
    )
    parser.add_argument("--out", default="BENCH_engine.json", help="output JSON path")
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="smoke-test ceiling: fail if a protocol's whole sweep "
        "takes longer than this many seconds",
    )
    args = parser.parse_args(argv)
    try:
        record = bench_engines(
            n=args.n,
            seeds=args.seeds,
            topology=args.topology,
            protocols=tuple(args.protocols),
            preset=args.preset,
            backend=args.backend,
        )
    except AnalysisError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    path = write_bench(record, args.out)
    for entry in record["results"]:
        print(
            f"{entry['protocol']:>6s} on {entry['topology']} n={entry['n']}: "
            f"array={entry['array']['rounds_per_sec']} r/s"
        )
    print(f"wrote {path}")
    if args.max_seconds is not None:
        slowest = max(entry["array"]["seconds"] for entry in record["results"])
        if slowest > args.max_seconds:
            print(
                f"SMOKE FAIL: slowest sweep took {slowest:.2f}s > "
                f"ceiling {args.max_seconds:.2f}s",
                file=sys.stderr,
            )
            return 1
        print(f"smoke OK: every sweep under {args.max_seconds:.2f}s ceiling")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
