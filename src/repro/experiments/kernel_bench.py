"""Operand-level channel-kernel microbench (``BENCH_kernel.json``).

The scale bench times whole protocol runs; this bench isolates the two
kernel reductions every round pays — neighbour counts and sender-id
recovery — per backend per n, on identical seeded masks, so the backends'
raw per-round costs (and the bit-packed operand's ~64× density win over
the dense float64 matrix) are committed numbers rather than comments::

    python -m repro.experiments.kernel_bench --n 1024 4096 16384 65536 \\
        --out BENCH_kernel.json

For each (n, backend) cell the harness builds the operand from one seeded
topology, packs/converts a fixed transmit mask once per repeat (exactly
what :func:`~repro.sim.core.channel.resolve_channel` does per round), and
times ``transmit_counts`` and the clean-restricted sender pass separately
over ``--repeats`` calls.  Counts are asserted equal across backends
(``counts_match_dense``) so a kernel divergence cannot hide behind a
throughput number.

The same ``--max-operand-mib`` ceiling as the scale bench applies: cells
whose operand alone (``8·n²`` dense, ``8·n·ceil(n/64)`` bit-packed,
``8·(n+1) + 16·edges`` CSR) would exceed it are recorded as skipped,
which is how the record shows dense stopping at n=8192 while bit-packed
continues — the density win made measurable.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.errors import AnalysisError, TopologyError
from repro.experiments.record import bench_record, write_bench
from repro.sim.core.channel import BitOperand, DenseOperand, SparseOperand
from repro.sim.topology import TOPOLOGY_NAMES, from_spec

__all__ = [
    "DEFAULT_SIZES",
    "KERNEL_BACKENDS",
    "bench_kernel",
    "main",
]

#: Sizes spanning the dense regime into bit-packed-only territory.
DEFAULT_SIZES: tuple[int, ...] = (1024, 4096, 16384, 65536)

#: Every kernel operand the microbench can time.
KERNEL_BACKENDS: tuple[str, ...] = ("dense", "sparse", "bitpacked")

#: Fraction of nodes transmitting in the benchmark mask — dense enough
#: that clean listeners exist at every n (the sender pass has real work),
#: sparse enough to look like a contention-resolution round.
_TX_FRACTION = 0.05


def _operand_bytes(backend: str, n: int, edges: int) -> int:
    """The operand's own footprint (what the memory ceiling meters)."""
    if backend == "dense":
        return 8 * n * n
    if backend == "bitpacked":
        return 8 * n * (-(-n // 64))
    # Exactly the two arrays SparseOperand holds: int64 indptr (n + 1
    # entries) and int64 indices (two directed slots per undirected edge).
    return 8 * (n + 1) + 16 * edges


def _build_operand(backend: str, net):
    if backend == "dense":
        return DenseOperand(net.adjacency_matrix())
    if backend == "sparse":
        return SparseOperand(*net.csr())
    return BitOperand(*net.csr())


def _time_calls(fn, repeats: int) -> float:
    """Mean seconds per call over ``repeats`` timed calls (one warmup)."""
    fn()
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def bench_kernel(
    *,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    topology: str = "gnp",
    backends: tuple[str, ...] = KERNEL_BACKENDS,
    repeats: int = 10,
    seed: int = 0,
    max_operand_bytes: int = 1 << 30,
) -> dict:
    """Run the kernel microbench and return the bench record as a dict."""
    if not sizes or any(n < 1 for n in sizes):
        raise AnalysisError(f"sizes must be positive, got {list(sizes)}")
    if repeats < 1:
        raise AnalysisError(f"need at least one repeat, got repeats={repeats}")
    if topology not in TOPOLOGY_NAMES:
        raise AnalysisError(
            f"unknown topology {topology!r}; choose from {TOPOLOGY_NAMES}"
        )
    bad = [b for b in backends if b not in KERNEL_BACKENDS]
    if bad or not backends:
        raise AnalysisError(
            "backends must be a non-empty subset of "
            f"{'/'.join(KERNEL_BACKENDS)}, got {list(backends)}"
        )

    results = []
    for n in sorted(sizes):
        try:
            net = from_spec(topology, n, seed=seed)
        except TopologyError as exc:
            raise AnalysisError(f"cannot build {topology} with n={n}: {exc}") from exc
        rng = np.random.default_rng(seed)
        transmit = rng.random(n) < _TX_FRACTION
        listen = ~transmit
        cell: dict[str, dict] = {}
        counts_by_backend: dict[str, np.ndarray] = {}
        for backend in backends:
            entry = {
                "topology": topology,
                "n": n,
                "edges": net.num_edges,
                "backend": backend,
                "operand_mib": round(
                    _operand_bytes(backend, n, net.num_edges) / (1 << 20), 3
                ),
            }
            results.append(entry)
            if _operand_bytes(backend, n, net.num_edges) > max_operand_bytes:
                entry["skipped"] = (
                    f"{backend} kernel operand needs "
                    f"{_operand_bytes(backend, n, net.num_edges) >> 20} MiB "
                    f"> {max_operand_bytes >> 20} MiB ceiling"
                )
                continue
            op = _build_operand(backend, net)
            tx = op.prepare_transmit(transmit)
            counts = op.transmit_counts(tx)
            clean = listen & (counts == 1)
            entry["clean_listeners"] = int(clean.sum())
            entry["counts_seconds"] = _time_calls(
                lambda: op.transmit_counts(op.prepare_transmit(transmit)), repeats
            )
            entry["senders_seconds"] = _time_calls(
                lambda: op.sender_ids(tx, clean), repeats
            )
            entry["counts_per_sec"] = round(1.0 / entry["counts_seconds"], 1)
            entry["counts_seconds"] = round(entry["counts_seconds"], 6)
            entry["senders_seconds"] = round(entry["senders_seconds"], 6)
            cell[backend] = entry
            counts_by_backend[backend] = counts
        dense = cell.get("dense")
        for backend, entry in cell.items():
            if backend == "dense" or dense is None:
                continue
            entry["counts_match_dense"] = bool(
                (counts_by_backend[backend] == counts_by_backend["dense"]).all()
            )
            if dense["counts_seconds"] and entry["counts_seconds"]:
                entry["counts_speedup_vs_dense"] = round(
                    dense["counts_seconds"] / entry["counts_seconds"], 2
                )
            own_bytes = _operand_bytes(backend, n, net.num_edges)
            if own_bytes:
                entry["operand_ratio_vs_dense"] = round(
                    _operand_bytes("dense", n, net.num_edges) / own_bytes, 2
                )

    return bench_record(
        "kernel",
        topology=topology,
        seed=seed,
        repeats=repeats,
        tx_fraction=_TX_FRACTION,
        sizes=sorted(sizes),
        backends=list(backends),
        max_operand_mib=max_operand_bytes >> 20,
        results=results,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.kernel_bench",
        description="Time the channel kernel's reductions per backend per n.",
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
        "--topology",
        default="gnp",
        choices=TOPOLOGY_NAMES,
        help="topology family the operand is built from (default: gnp)",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=list(KERNEL_BACKENDS),
        choices=KERNEL_BACKENDS,
        metavar="BACKEND",
        help=f"backends to time (default: {' '.join(KERNEL_BACKENDS)})",
    )
    parser.add_argument(
        "--repeats", type=int, default=10, help="timed calls per cell (default: 10)"
    )
    parser.add_argument("--seed", type=int, default=0, help="topology/mask seed")
    parser.add_argument(
        "--max-operand-mib",
        type=int,
        default=1024,
        help="memory ceiling: skip cells whose operand alone would exceed "
        "this many MiB (default: 1024)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="smoke-test ceiling: fail if any timed reduction call takes "
        "longer than this many seconds",
    )
    parser.add_argument("--out", default="BENCH_kernel.json", help="output JSON path")
    args = parser.parse_args(argv)
    try:
        record = bench_kernel(
            sizes=tuple(args.n),
            topology=args.topology,
            backends=tuple(args.backends),
            repeats=args.repeats,
            seed=args.seed,
            max_operand_bytes=args.max_operand_mib << 20,
        )
    except AnalysisError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    path = write_bench(record, args.out)
    for entry in record["results"]:
        label = f"n={entry['n']:<6d} {entry['backend']:>9s}"
        if "skipped" in entry:
            print(f"{label}: skipped ({entry['skipped']})")
            continue
        speedup = entry.get("counts_speedup_vs_dense")
        extra = f"  counts-speedup={speedup}x" if speedup is not None else ""
        ratio = entry.get("operand_ratio_vs_dense")
        extra += f"  operand-ratio={ratio}x" if ratio is not None else ""
        print(
            f"{label}: counts={entry['counts_seconds'] * 1e3:.3f} ms "
            f"senders={entry['senders_seconds'] * 1e3:.3f} ms "
            f"operand={entry['operand_mib']} MiB{extra}"
        )
    print(f"wrote {path}")
    if args.max_seconds is not None:
        executed = [
            max(e["counts_seconds"], e["senders_seconds"])
            for e in record["results"]
            if "counts_seconds" in e
        ]
        slowest = max(executed, default=0.0)
        if slowest > args.max_seconds:
            print(
                f"SMOKE FAIL: slowest kernel call took {slowest:.3f}s > "
                f"ceiling {args.max_seconds:.2f}s",
                file=sys.stderr,
            )
            return 1
        print(f"smoke OK: every kernel call under {args.max_seconds:.2f}s ceiling")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
