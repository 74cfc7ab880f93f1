"""Longitudinal perf-regression gate over the committed bench records.

The committed ``BENCH_engine.json`` and ``BENCH_scale.json`` are each PR's
performance contract.  This gate re-measures a smoke-scale slice of both —
the engine sweep at the committed n with fewer seeds, one committed scale
size per backend — matches the fresh cells to the committed ones, and
**exits non-zero** when throughput or peak memory regressed beyond
tolerance::

    python -m repro.experiments.perf_gate --seeds 8 --scale-n 1024

``--kernel-record BENCH_kernel.json`` additionally gates the operand-level
kernel microbench at one committed size (``--kernel-n``): counts
throughput within the speed tolerance, and the operand's own footprint
exactly (``operand_mib`` is arithmetic, not a measurement, so any drift
is a real operand-layout change).

A cell regresses when ``fresh rounds/sec < committed × (1 − speed-tol)``
or ``fresh peak MiB > committed × (1 + mem-tol)``; a scale (family, n)
also regresses when its topology build slows past the same floor,
``fresh build_seconds > committed / (1 − speed-tol)``.  The default speed
tolerance is deliberately loose (0.6: fresh must keep 40% of committed
throughput) because CI machines and the committing machine differ; memory
is tight (0.25) because ``tracemalloc`` peaks are machine-independent.

The gate refuses to compare records whose ``schema_version`` differs from
the current :data:`~repro.experiments.record.SCHEMA_VERSION` — a schema
bump must regenerate the committed records in the same PR (exit 2, like
every other mis-configuration).  Exit codes: 0 all cells within tolerance,
1 at least one regression, 2 configuration/schema error.

``--fresh-engine``/``--fresh-scale`` inject pre-measured fresh records
instead of re-running (tests use this to prove the gate trips on a
synthetic regression); ``--out-dir`` saves whatever fresh records the gate
used, so CI can upload them as artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import AnalysisError
from repro.experiments.engine_bench import bench_engines
from repro.experiments.kernel_bench import bench_kernel
from repro.experiments.record import SCHEMA_VERSION, write_bench
from repro.experiments.scale_bench import bench_scale

__all__ = [
    "BUILD_NOISE_SECONDS",
    "DEFAULT_MEM_TOLERANCE",
    "DEFAULT_SPEED_TOLERANCE",
    "gate_engine",
    "gate_kernel",
    "gate_scale",
    "load_record",
    "main",
]

#: Fresh throughput may drop to (1 - tol) of committed before the gate
#: trips; loose because the CI machine is not the committing machine.
DEFAULT_SPEED_TOLERANCE = 0.6

#: Fresh peak memory may grow to (1 + tol) of committed; tight because
#: ``tracemalloc`` byte counts barely vary across machines.
DEFAULT_MEM_TOLERANCE = 0.25

#: Committed ``build_seconds`` below this count as this much when the build
#: ceiling is derived: records round to milliseconds, and builds that short
#: are timer noise on a shared runner.
BUILD_NOISE_SECONDS = 0.01


def load_record(path: str | Path) -> dict:
    """Load a bench record and insist it speaks the current schema."""
    path = Path(path)
    if not path.is_file():
        raise AnalysisError(f"bench record {path} does not exist")
    try:
        record = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"bench record {path} is not valid JSON: {exc}") from exc
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise AnalysisError(
            f"bench record {path} has schema_version={version!r}, gate speaks "
            f"{SCHEMA_VERSION}; regenerate the record with the current bench CLI"
        )
    # Records produced under REPRO_SANITIZE measure the sanitizer's
    # per-round checking, not the engine — a committed baseline that slow
    # would quietly absorb real regressions.  Missing key = legacy record
    # = sanitizer did not exist, which is fine.
    if record.get("sanitized"):
        raise AnalysisError(
            f"bench record {path} was produced with the runtime sanitizer "
            "enabled; regenerate it with REPRO_SANITIZE unset"
        )
    return record


def _check_speed(
    label: str, committed: float | None, fresh: float | None, tolerance: float
) -> tuple[str, bool]:
    floor = committed * (1 - tolerance) if committed else None
    if committed is None or fresh is None or floor is None:
        return f"SKIP {label}: rounds/sec missing on one side", False
    if fresh < floor:
        return (
            f"REGRESSION {label}: {fresh} rounds/sec < floor {floor:.1f} "
            f"(committed {committed}, tolerance {tolerance})",
            True,
        )
    return (
        f"OK {label}: {fresh} rounds/sec (floor {floor:.1f}, committed {committed})",
        False,
    )


def _check_memory(
    label: str, committed: float | None, fresh: float | None, tolerance: float
) -> tuple[str, bool]:
    if committed is None or fresh is None:
        return f"SKIP {label}: peak MiB missing on one side", False
    ceiling = committed * (1 + tolerance)
    if fresh > ceiling:
        return (
            f"REGRESSION {label}: {fresh} peak MiB > ceiling {ceiling:.2f} "
            f"(committed {committed}, tolerance {tolerance})",
            True,
        )
    return (
        f"OK {label}: {fresh} peak MiB (ceiling {ceiling:.2f}, committed {committed})",
        False,
    )


def _check_build(
    label: str, committed: float | None, fresh: float | None, tolerance: float
) -> tuple[str, bool]:
    if committed is None or fresh is None:
        return f"SKIP {label} build: build_seconds missing on one side", False
    ceiling = max(committed, BUILD_NOISE_SECONDS) / (1 - tolerance)
    if fresh > ceiling:
        return (
            f"REGRESSION {label} build: {fresh} s > ceiling {ceiling:.3f} "
            f"(committed {committed}, tolerance {tolerance})",
            True,
        )
    return (
        f"OK {label} build: {fresh} s (ceiling {ceiling:.3f}, committed {committed})",
        False,
    )


def gate_engine(
    committed: dict, fresh: dict, speed_tolerance: float = DEFAULT_SPEED_TOLERANCE
) -> tuple[list[str], int]:
    """Compare engine-bench throughput cell by cell.

    Cells match on (protocol, topology, n) and gate the ``array``
    (batch-engine) throughput.  Returns (report lines, violation count);
    raises :class:`AnalysisError` when no cells match at all — a vacuous
    gate must not pass silently.
    """
    fresh_by_key = {
        (e["protocol"], e["topology"], e["n"]): e for e in fresh.get("results", ())
    }
    lines: list[str] = []
    violations = 0
    matched = 0
    for entry in committed.get("results", ()):
        key = (entry["protocol"], entry["topology"], entry["n"])
        other = fresh_by_key.get(key)
        if other is None:
            lines.append(f"SKIP engine {'/'.join(map(str, key))}: no fresh cell")
            continue
        matched += 1
        line, bad = _check_speed(
            f"engine {'/'.join(map(str, key))} array",
            entry.get("array", {}).get("rounds_per_sec"),
            other.get("array", {}).get("rounds_per_sec"),
            speed_tolerance,
        )
        lines.append(line)
        violations += bad
    if not matched:
        raise AnalysisError(
            "no engine cells matched between the committed and fresh records; "
            "the gate would be vacuous"
        )
    return lines, violations


def gate_scale(
    committed: dict,
    fresh: dict,
    speed_tolerance: float = DEFAULT_SPEED_TOLERANCE,
    mem_tolerance: float = DEFAULT_MEM_TOLERANCE,
) -> tuple[list[str], int]:
    """Compare scale-bench throughput, peak memory and build time cell by cell.

    Cells match on (topology, n, backend); skipped cells (dense ceiling,
    time ceiling) are ignored on either side.  Memory only gates when the
    probe rounds agree — a different probe measures a different peak.  The
    topology build is shared by a (topology, n)'s backends, so its
    ``build_seconds`` is gated once per pair, against the speed floor.
    """
    fresh_by_key = {
        (e["topology"], e["n"], e["backend"]): e
        for e in fresh.get("results", ())
        if "skipped" not in e
    }
    probes_agree = committed.get("probe_rounds") == fresh.get("probe_rounds")
    lines: list[str] = []
    violations = 0
    matched = 0
    builds_checked: set[tuple[str, int]] = set()
    for entry in committed.get("results", ()):
        if "skipped" in entry:
            continue
        key = (entry["topology"], entry["n"], entry["backend"])
        other = fresh_by_key.get(key)
        if other is None:
            continue
        matched += 1
        if key[:2] not in builds_checked:
            builds_checked.add(key[:2])
            line, bad = _check_build(
                f"scale {entry['topology']}/n={entry['n']}",
                entry.get("build_seconds"), other.get("build_seconds"),
                speed_tolerance,
            )
            lines.append(line)
            violations += bad
        label = f"scale {entry['topology']}/n={entry['n']}/{entry['backend']}"
        line, bad = _check_speed(
            label, entry.get("rounds_per_sec"), other.get("rounds_per_sec"),
            speed_tolerance,
        )
        lines.append(line)
        violations += bad
        if probes_agree:
            line, bad = _check_memory(
                label, entry.get("peak_mib"), other.get("peak_mib"), mem_tolerance
            )
            lines.append(line)
            violations += bad
        else:
            lines.append(f"SKIP {label} memory: probe_rounds differ")
    if not matched:
        raise AnalysisError(
            "no scale cells matched between the committed and fresh records; "
            "the gate would be vacuous (is --scale-n a committed size?)"
        )
    return lines, violations


def gate_kernel(
    committed: dict,
    fresh: dict,
    speed_tolerance: float = DEFAULT_SPEED_TOLERANCE,
) -> tuple[list[str], int]:
    """Compare kernel-microbench cells: counts throughput and operand size.

    Cells match on (topology, n, backend).  ``operand_mib`` is compared
    exactly — it is computed from the operand's shape, not measured — so
    any change means the operand layout itself changed and the committed
    record must be regenerated deliberately.
    """
    fresh_by_key = {
        (e["topology"], e["n"], e["backend"]): e
        for e in fresh.get("results", ())
        if "skipped" not in e
    }
    lines: list[str] = []
    violations = 0
    matched = 0
    for entry in committed.get("results", ()):
        if "skipped" in entry:
            continue
        key = (entry["topology"], entry["n"], entry["backend"])
        other = fresh_by_key.get(key)
        if other is None:
            continue
        matched += 1
        label = f"kernel {entry['topology']}/n={entry['n']}/{entry['backend']}"
        line, bad = _check_speed(
            f"{label} counts",
            entry.get("counts_per_sec"),
            other.get("counts_per_sec"),
            speed_tolerance,
        )
        lines.append(line.replace("rounds/sec", "counts/sec"))
        violations += bad
        if entry.get("operand_mib") != other.get("operand_mib"):
            lines.append(
                f"REGRESSION {label}: operand_mib changed "
                f"{entry.get('operand_mib')} -> {other.get('operand_mib')} "
                "(operand layout drifted; regenerate BENCH_kernel.json "
                "deliberately if intended)"
            )
            violations += 1
        else:
            lines.append(f"OK {label}: operand_mib {entry.get('operand_mib')}")
    if not matched:
        raise AnalysisError(
            "no kernel cells matched between the committed and fresh records; "
            "the gate would be vacuous (is --kernel-n a committed size?)"
        )
    return lines, violations


def _fresh_engine(committed: dict, seeds: int) -> dict:
    protocols = committed.get("protocols")
    return bench_engines(
        n=committed["n"],
        seeds=seeds,
        topology=committed.get("topology", "grid"),
        protocols=tuple(protocols) if protocols else None,
        preset=committed.get("preset", "fast"),
        backend=committed.get("channel_backend", "auto"),
    )


def _fresh_scale(committed: dict, scale_n: int) -> dict:
    sizes = committed.get("sizes", ())
    if scale_n not in sizes:
        raise AnalysisError(
            f"--scale-n {scale_n} is not a committed size {list(sizes)}; "
            "the gate needs a size both records measured"
        )
    return bench_scale(
        sizes=(scale_n,),
        topologies=tuple(committed.get("topologies", ())),
        protocol=committed.get("protocol", "ghk"),
        seeds=committed.get("seeds", 1),
        preset=committed.get("preset", "fast"),
        backends=tuple(committed.get("backends", ("dense", "sparse"))),
        max_dense_bytes=committed.get("max_dense_mib", 1024) << 20,
    )


def _fresh_kernel(committed: dict, kernel_n: int) -> dict:
    sizes = committed.get("sizes", ())
    if kernel_n not in sizes:
        raise AnalysisError(
            f"--kernel-n {kernel_n} is not a committed size {list(sizes)}; "
            "the gate needs a size both records measured"
        )
    return bench_kernel(
        sizes=(kernel_n,),
        topology=committed.get("topology", "gnp"),
        backends=tuple(committed.get("backends", ("dense", "sparse", "bitpacked"))),
        repeats=committed.get("repeats", 10),
        seed=committed.get("seed", 0),
        max_operand_bytes=committed.get("max_operand_mib", 1024) << 20,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.perf_gate",
        description="Re-measure a smoke slice and fail on perf regression "
        "vs the committed bench records.",
    )
    parser.add_argument(
        "--engine-record", default="BENCH_engine.json",
        help="committed engine bench record (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--scale-record", default="BENCH_scale.json",
        help="committed scale bench record (default: BENCH_scale.json)",
    )
    parser.add_argument(
        "--seeds", type=int, default=8,
        help="seeds for the fresh engine sweep (default: 8; committed "
        "records use more, but rounds/sec is seed-count-insensitive)",
    )
    parser.add_argument(
        "--scale-n", type=int, default=1024,
        help="the single committed scale size to re-measure (default: 1024)",
    )
    parser.add_argument(
        "--kernel-record", default=None, metavar="PATH",
        help="committed kernel microbench record to gate as well "
        "(e.g. BENCH_kernel.json; off unless given)",
    )
    parser.add_argument(
        "--kernel-n", type=int, default=4096,
        help="the single committed kernel size to re-measure (default: 4096)",
    )
    parser.add_argument(
        "--speed-tolerance", type=float, default=DEFAULT_SPEED_TOLERANCE,
        help=f"allowed fractional throughput drop (default: {DEFAULT_SPEED_TOLERANCE})",
    )
    parser.add_argument(
        "--mem-tolerance", type=float, default=DEFAULT_MEM_TOLERANCE,
        help=f"allowed fractional peak-memory growth (default: {DEFAULT_MEM_TOLERANCE})",
    )
    parser.add_argument(
        "--fresh-engine", default=None, metavar="PATH",
        help="use this pre-measured engine record instead of re-running",
    )
    parser.add_argument(
        "--fresh-scale", default=None, metavar="PATH",
        help="use this pre-measured scale record instead of re-running",
    )
    parser.add_argument(
        "--fresh-kernel", default=None, metavar="PATH",
        help="use this pre-measured kernel record instead of re-running",
    )
    parser.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write the fresh records here (CI uploads them as artifacts)",
    )
    args = parser.parse_args(argv)
    if not (0 <= args.speed_tolerance < 1) or args.mem_tolerance < 0:
        print(
            "gate error: --speed-tolerance must be in [0, 1) and "
            "--mem-tolerance non-negative",
            file=sys.stderr,
        )
        return 2

    try:
        committed_engine = load_record(args.engine_record)
        committed_scale = load_record(args.scale_record)
        if args.fresh_engine:
            fresh_engine = load_record(args.fresh_engine)
        else:
            print(f"re-measuring engine sweep (seeds={args.seeds}) ...")
            fresh_engine = _fresh_engine(committed_engine, args.seeds)
        if args.fresh_scale:
            fresh_scale = load_record(args.fresh_scale)
        else:
            print(f"re-measuring scale sweep (n={args.scale_n}) ...")
            fresh_scale = _fresh_scale(committed_scale, args.scale_n)
        fresh_kernel = None
        committed_kernel = None
        if args.kernel_record:
            committed_kernel = load_record(args.kernel_record)
            if args.fresh_kernel:
                fresh_kernel = load_record(args.fresh_kernel)
            else:
                print(f"re-measuring kernel microbench (n={args.kernel_n}) ...")
                fresh_kernel = _fresh_kernel(committed_kernel, args.kernel_n)
        if args.out_dir:
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            fresh_records = [
                ("BENCH_engine.fresh.json", fresh_engine),
                ("BENCH_scale.fresh.json", fresh_scale),
            ]
            if fresh_kernel is not None:
                fresh_records.append(("BENCH_kernel.fresh.json", fresh_kernel))
            for name, record in fresh_records:
                print(f"wrote {write_bench(record, out_dir / name)}")
        engine_lines, engine_bad = gate_engine(
            committed_engine, fresh_engine, args.speed_tolerance
        )
        scale_lines, scale_bad = gate_scale(
            committed_scale, fresh_scale, args.speed_tolerance, args.mem_tolerance
        )
        kernel_lines: list[str] = []
        kernel_bad = 0
        if committed_kernel is not None:
            kernel_lines, kernel_bad = gate_kernel(
                committed_kernel, fresh_kernel, args.speed_tolerance
            )
    except AnalysisError as exc:
        print(f"gate error: {exc}", file=sys.stderr)
        return 2

    for line in engine_lines + scale_lines + kernel_lines:
        print(line)
    violations = engine_bad + scale_bad + kernel_bad
    if violations:
        print(f"PERF GATE FAIL: {violations} regression(s)", file=sys.stderr)
        return 1
    print("perf gate OK: every matched cell within tolerance")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
