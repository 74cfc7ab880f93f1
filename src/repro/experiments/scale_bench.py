"""Channel-backend scaling sweep (``BENCH_scale.json``).

For every (family, n) cell the harness runs the same seed batch once per
channel backend — dense matmul, sparse CSR, and bit-packed popcount — and
reports wall-clock rounds/sec plus the peak memory a short probe run
allocates (``tracemalloc``), so the record answers the scaling questions
directly: how much faster is the CSR kernel on sparse topologies, how far
past the dense wall does the bit-packed kernel carry dense-density
graphs, and how much smaller are their footprints::

    python -m repro.experiments.scale_bench --n 256 1024 4096 16384 65536 \
        --out BENCH_scale.json

Kernel operands have knowable sizes — ``8·n²`` bytes dense,
``8·n·ceil(n/64)`` bit-packed — so cells whose estimated operand exceeds
``--max-dense-mib`` are *recorded as skipped* rather than run — that is
the bench's memory ceiling, and the sizes the other backends complete
beyond it are exactly the regime the skipped path cannot reach.
``--max-cell-seconds`` is the analogous time ceiling: once a backend
exceeds it at some n, larger n for that family are skipped for that
backend.

When dense and another backend both run a cell, the non-dense entry
records ``speedup_vs_dense`` (rounds/sec ratio), ``memory_ratio_vs_dense``
(dense probe peak / own probe peak) and ``results_match_dense`` — the
backends are bitwise-identical by construction (see
``tests/test_sparse_equivalence.py`` and
``tests/test_bitpacked_equivalence.py``), and the record keeps that
honest.

``--max-seconds`` turns the run into a smoke test: exit non-zero when any
executed cell needs longer than the ceiling (CI uses this with
``--backends sparse`` at n=4096 and ``--backends bitpacked`` at n=65536
to catch scaling regressions without gating merges).
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc

from collections.abc import Sequence

from repro.errors import AnalysisError, BroadcastFailure, TopologyError
from repro.params import ProtocolParams
from repro.experiments.record import (
    bench_record,
    resolve_params,
    rounds_per_sec,
    write_bench,
)
from repro.sim import runners
from repro.sim.runners import run_broadcast_batch
from repro.sim.topology import TOPOLOGY_NAMES, RadioNetwork, from_spec

__all__ = [
    "DEFAULT_SIZES",
    "PROBE_ROUNDS",
    "SCALE_BACKENDS",
    "SCALE_TOPOLOGIES",
    "bench_scale",
    "main",
    "probe_peak_bytes",
]

#: The ISSUE's size axis: from comfortably-dense to past the dense wall.
DEFAULT_SIZES: tuple[int, ...] = (256, 1024, 4096, 16384)

#: Every channel backend the sweep can compare.
SCALE_BACKENDS: tuple[str, ...] = ("dense", "sparse", "bitpacked")

#: Sparse families only: on these, edges grow ~linearly with n, so the
#: CSR backend's Θ(Σ deg(tx) + n)-per-round advantage is the whole story.
#: (star and dumbbell are contention stressors, not scaling ones.)
SCALE_TOPOLOGIES: tuple[str, ...] = ("line", "grid", "gnp", "unit_disk")

#: Rounds executed under tracemalloc to measure a cell's steady-state peak
#: (operand construction plus per-round temporaries) without paying the
#: tracer's overhead during the timed run.
PROBE_ROUNDS = 32


def _operand_bytes(backend: str, n: int) -> int:
    """Estimated kernel-operand footprint, for the bench's memory ceiling.

    The sparse operand is Θ(edges) — family-dependent and always far
    below the ceiling on these sweep families — so it is never skipped
    on memory.
    """
    if backend == "dense":
        return 8 * n * n
    if backend == "bitpacked":
        return 8 * n * (-(-n // 64))
    return 0


def _run_signature(result) -> tuple:
    """Everything observable about one run, for cross-backend comparison.

    Covers delivery status, per-node arrival rounds, and the channel
    totals — not just rounds-to-delivery — so a backend divergence that
    happens to leave the round count intact still trips the check.
    """
    sim = result.sim
    totals = (
        sim.rounds_run,
        sim.total_transmissions,
        sim.total_deliveries,
        sim.total_collisions,
    )
    if isinstance(result, BroadcastFailure):
        return ("failed", tuple(result.undelivered), totals)
    return ("delivered", result.rounds_to_delivery, tuple(result.informed_rounds), totals)


def probe_peak_bytes(
    protocol: str,
    nets: Sequence[RadioNetwork],
    params: ProtocolParams,
    seeds: int,
) -> int:
    """Peak bytes allocated by a short run of this cell (operand + rounds).

    Public because the perf gate re-measures committed cells with exactly
    this probe — same rounds, same tracer — so the two numbers compare.
    """
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run_broadcast_batch(
            protocol, nets, seeds=range(seeds), params=params, budget=PROBE_ROUNDS
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def bench_scale(
    *,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    topologies: tuple[str, ...] = SCALE_TOPOLOGIES,
    protocol: str = "ghk",
    seeds: int = 1,
    preset: str = "fast",
    backends: tuple[str, ...] = ("dense", "sparse"),
    max_dense_bytes: int = 1 << 30,
    max_cell_seconds: float | None = None,
) -> dict:
    """Run the scaling sweep and return the bench record as a dict."""
    if not sizes or any(n < 1 for n in sizes):
        raise AnalysisError(f"sizes must be positive, got {list(sizes)}")
    if seeds < 1:
        raise AnalysisError(f"need at least one seed, got seeds={seeds}")
    unknown = [t for t in topologies if t not in TOPOLOGY_NAMES]
    if unknown:
        raise AnalysisError(
            f"unknown topologies {unknown}; choose from {TOPOLOGY_NAMES}"
        )
    bad = [b for b in backends if b not in SCALE_BACKENDS]
    if bad or not backends:
        raise AnalysisError(
            "backends must be a non-empty subset of "
            f"{'/'.join(SCALE_BACKENDS)}, got {list(backends)}"
        )
    if protocol not in runners.BROADCAST_PROTOCOL_NAMES:
        raise AnalysisError(
            f"unknown protocol {protocol!r}; "
            f"choose from {runners.BROADCAST_PROTOCOL_NAMES}"
        )
    resolve_params(preset)  # validates the preset name up front

    results = []
    for family in topologies:
        #: backend -> size at which this family exceeded the time ceiling.
        timed_out: dict[str, int] = {}
        for n in sorted(sizes):
            try:
                t0 = time.perf_counter()
                nets = [from_spec(family, n, seed=seed) for seed in range(seeds)]
                for net in nets:
                    net.eccentricity()  # warm the BFS cache outside the timing
                build_seconds = time.perf_counter() - t0
            except TopologyError as exc:
                raise AnalysisError(f"cannot build {family} with n={n}: {exc}") from exc
            edges = nets[0].num_edges
            cell: dict[str, dict] = {}
            signatures: dict[str, list[tuple]] = {}
            for backend in backends:
                entry = {
                    "topology": family,
                    "n": n,
                    "edges": edges,
                    "backend": backend,
                    "build_seconds": round(build_seconds, 3),
                }
                results.append(entry)
                operand_bytes = _operand_bytes(backend, n)
                if operand_bytes > max_dense_bytes:
                    entry["skipped"] = (
                        f"{backend} kernel operand needs {operand_bytes >> 20} "
                        f"MiB > {max_dense_bytes >> 20} MiB ceiling"
                    )
                    continue
                if backend in timed_out:
                    entry["skipped"] = (
                        f"{backend} already exceeded the {max_cell_seconds}s "
                        f"cell ceiling at n={timed_out[backend]}"
                    )
                    continue
                params = resolve_params(preset, backend)
                entry["peak_mib"] = round(
                    probe_peak_bytes(protocol, nets, params, seeds) / (1 << 20), 2
                )
                telemetry: dict = {}
                t0 = time.perf_counter()
                batch = run_broadcast_batch(
                    protocol, nets, seeds=range(seeds), params=params,
                    telemetry=telemetry,
                )
                seconds = time.perf_counter() - t0
                rounds = sum(r.sim.rounds_run for r in batch)
                entry.update(
                    seconds=round(seconds, 3),
                    rounds=rounds,
                    rounds_per_sec=rounds_per_sec(rounds, seconds),
                    phase_seconds=telemetry["phase_seconds"],
                    completed=sum(
                        not isinstance(r, BroadcastFailure) for r in batch
                    ),
                    runs=seeds,
                    rounds_to_delivery=[
                        None
                        if isinstance(r, BroadcastFailure)
                        else r.rounds_to_delivery
                        for r in batch
                    ],
                )
                cell[backend] = entry
                signatures[backend] = [_run_signature(r) for r in batch]
                if max_cell_seconds is not None and seconds > max_cell_seconds:
                    timed_out[backend] = n
            dense = cell.get("dense")
            for backend, entry in cell.items():
                if backend == "dense" or dense is None:
                    continue
                if dense["rounds_per_sec"] and entry["rounds_per_sec"]:
                    entry["speedup_vs_dense"] = round(
                        entry["rounds_per_sec"] / dense["rounds_per_sec"], 2
                    )
                if entry["peak_mib"]:
                    entry["memory_ratio_vs_dense"] = round(
                        dense["peak_mib"] / entry["peak_mib"], 2
                    )
                # Full-run signatures (status, per-node arrival rounds,
                # channel totals), not just rounds-to-delivery.
                entry["results_match_dense"] = (
                    signatures[backend] == signatures["dense"]
                )

    return bench_record(
        "scale",
        preset=preset,
        protocol=protocol,
        seeds=seeds,
        sizes=sorted(sizes),
        topologies=list(topologies),
        backends=list(backends),
        max_dense_mib=max_dense_bytes >> 20,
        probe_rounds=PROBE_ROUNDS,
        results=results,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.scale_bench",
        description="Sweep the channel backends across network sizes.",
    )
    parser.add_argument(
        "--n",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        metavar="N",
        help=f"network sizes (default: {' '.join(map(str, DEFAULT_SIZES))})",
    )
    parser.add_argument(
        "--topologies",
        nargs="+",
        default=list(SCALE_TOPOLOGIES),
        choices=TOPOLOGY_NAMES,
        metavar="FAMILY",
        help=f"families to sweep (default: {' '.join(SCALE_TOPOLOGIES)})",
    )
    parser.add_argument(
        "--protocol",
        default="ghk",
        choices=runners.BROADCAST_PROTOCOL_NAMES,
        help="broadcast protocol to time (default: ghk)",
    )
    parser.add_argument("--seeds", type=int, default=1, help="seeds per cell")
    parser.add_argument("--preset", choices=("paper", "fast"), default="fast")
    parser.add_argument(
        "--backends",
        nargs="+",
        default=["dense", "sparse"],
        choices=SCALE_BACKENDS,
        metavar="BACKEND",
        help="channel backends to compare (default: dense sparse)",
    )
    parser.add_argument(
        "--max-dense-mib",
        type=int,
        default=1024,
        help="memory ceiling: skip cells whose kernel operand alone (8n² "
        "bytes dense, 8n·ceil(n/64) bitpacked) would exceed this many MiB "
        "(default: 1024)",
    )
    parser.add_argument(
        "--max-cell-seconds",
        type=float,
        default=None,
        help="time ceiling: once a backend exceeds this per cell, skip its "
        "larger sizes in the same family",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="smoke-test ceiling: fail if any executed cell takes longer "
        "than this many seconds",
    )
    parser.add_argument("--out", default="BENCH_scale.json", help="output JSON path")
    args = parser.parse_args(argv)
    try:
        record = bench_scale(
            sizes=tuple(args.n),
            topologies=tuple(args.topologies),
            protocol=args.protocol,
            seeds=args.seeds,
            preset=args.preset,
            backends=tuple(args.backends),
            max_dense_bytes=args.max_dense_mib << 20,
            max_cell_seconds=args.max_cell_seconds,
        )
    except AnalysisError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    path = write_bench(record, args.out)
    for entry in record["results"]:
        label = f"{entry['topology']:>10s} n={entry['n']:<6d} {entry['backend']:>6s}"
        if "skipped" in entry:
            print(f"{label}: skipped ({entry['skipped']})")
            continue
        speedup = entry.get("speedup_vs_dense")
        extra = f"  speedup-vs-dense={speedup}x" if speedup is not None else ""
        ratio = entry.get("memory_ratio_vs_dense")
        extra += f"  mem-ratio={ratio}x" if ratio is not None else ""
        print(
            f"{label}: {entry['rounds_per_sec']} r/s "
            f"peak={entry['peak_mib']} MiB{extra}"
        )
    print(f"wrote {path}")
    if args.max_seconds is not None:
        executed = [e["seconds"] for e in record["results"] if "seconds" in e]
        slowest = max(executed, default=0.0)
        if slowest > args.max_seconds:
            print(
                f"SMOKE FAIL: slowest cell took {slowest:.2f}s > "
                f"ceiling {args.max_seconds:.2f}s",
                file=sys.stderr,
            )
            return 1
        print(f"smoke OK: every cell under {args.max_seconds:.2f}s ceiling")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
