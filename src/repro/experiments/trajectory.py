"""Cross-PR trajectory report over the committed ``BENCH_*.json`` history.

Every PR that regenerates a bench record leaves a snapshot in git history.
This module walks that history — ``git log`` for the commits that touched
each record, ``git show`` for the record as of each commit — flattens every
snapshot to its headline metrics, and merges them into one longitudinal
report: how rounds/sec, peak memory, and speedups moved PR over PR::

    python -m repro.experiments.trajectory --out TRAJECTORY.json

The report is derived entirely from committed data; nothing is re-run.  The
companion :mod:`repro.experiments.perf_gate` is the enforcement half — it
re-measures a smoke-scale slice and fails on regression — while this module
is the observability half: the full history, human- and tool-readable.

Records that predate :data:`~repro.experiments.record.SCHEMA_VERSION`
(or cannot be parsed at some commit) are kept in the report as skipped
snapshots with a note, never silently dropped: the trajectory should show
where the schema changed, not pretend history starts there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.errors import AnalysisError
from repro.experiments.record import PAPER_ID

__all__ = [
    "DEFAULT_RECORDS",
    "build_trajectory",
    "harvest_history",
    "record_metrics",
    "main",
]

#: The bench records every PR is expected to keep committed at the repo root.
DEFAULT_RECORDS: tuple[str, ...] = (
    "BENCH_broadcast.json",
    "BENCH_engine.json",
    "BENCH_faults.json",
    "BENCH_kernel.json",
    "BENCH_multimessage.json",
    "BENCH_scale.json",
)


def record_metrics(record: dict) -> dict[str, float]:
    """Flatten one bench record to its headline metrics.

    Keys are ``<cell>/<metric>`` strings that stay stable across PRs as
    long as the cell (protocol, topology, n, ...) is still measured, so
    the trajectory can line snapshots up by key.  Unknown bench kinds
    yield no metrics rather than raising: the trajectory must survive
    records written by older or newer schemas.  That includes the science
    records from before :mod:`repro.experiments.sweep` (bench kinds
    ``broadcast``, ``multimessage`` and ``faults``).
    """
    metrics: dict[str, float] = {}
    bench = record.get("bench")
    for entry in record.get("results", ()):  # tolerate headerless records
        if not isinstance(entry, dict) or "skipped" in entry:
            continue
        if bench == "engine":
            cell = f"{entry['protocol']}/{entry['topology']}/n={entry['n']}"
            for path_name in ("object", "array"):
                rps = entry.get(path_name, {}).get("rounds_per_sec")
                if rps is not None:
                    metrics[f"{cell}/{path_name}_rounds_per_sec"] = rps
            if entry.get("speedup_rounds_per_sec") is not None:
                metrics[f"{cell}/speedup"] = entry["speedup_rounds_per_sec"]
        elif bench == "scale":
            cell = f"{entry['topology']}/n={entry['n']}/{entry['backend']}"
            if entry.get("rounds_per_sec") is not None:
                metrics[f"{cell}/rounds_per_sec"] = entry["rounds_per_sec"]
            if entry.get("peak_mib") is not None:
                metrics[f"{cell}/peak_mib"] = entry["peak_mib"]
            if entry.get("speedup_vs_dense") is not None:
                metrics[f"{cell}/speedup_vs_dense"] = entry["speedup_vs_dense"]
        elif bench == "kernel":
            cell = f"{entry['topology']}/n={entry['n']}/{entry['backend']}"
            if entry.get("counts_per_sec") is not None:
                metrics[f"{cell}/counts_per_sec"] = entry["counts_per_sec"]
            if entry.get("operand_mib") is not None:
                metrics[f"{cell}/operand_mib"] = entry["operand_mib"]
            if entry.get("counts_speedup_vs_dense") is not None:
                metrics[f"{cell}/counts_speedup_vs_dense"] = entry[
                    "counts_speedup_vs_dense"
                ]
        elif bench == "sweep":
            family, level = entry["fault"]
            cell = (
                f"{entry['protocol']}/{entry['topology']}/n={entry['n']}"
                f"/k={entry['k']}/{family}={level}"
            )
            for name in ("failures", "rounds_mean", "energy_mean", "speedup_vs_baseline"):
                if entry.get(name) is not None:
                    metrics[f"{cell}/{name}"] = entry[name]
    return metrics


def _git(args: list[str], repo_root: Path) -> str:
    proc = subprocess.run(
        ["git", *args], cwd=repo_root, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise AnalysisError(
            f"git {' '.join(args)} failed: {proc.stderr.strip() or proc.returncode}"
        )
    return proc.stdout


def _snapshot(commit: str | None, raw: str) -> dict:
    """One trajectory entry: headline metrics, or a skip note on bad JSON."""
    entry: dict = {"commit": commit}
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        entry["skipped"] = f"unparsable JSON: {exc}"
        return entry
    entry["created_utc"] = record.get("created_utc")
    entry["schema_version"] = record.get("schema_version")
    entry["metrics"] = record_metrics(record)
    return entry


def harvest_history(record_path: str | Path, repo_root: str | Path = ".") -> list[dict]:
    """All snapshots of one bench record, oldest committed first.

    Each snapshot is ``{commit, created_utc, schema_version, metrics}``;
    the working-tree file is appended as a final ``commit: None`` snapshot
    when it differs from the newest committed version (so a PR in flight
    sees its own regenerated record in the report before committing).
    """
    repo_root = Path(repo_root)
    record_path = Path(record_path)
    try:
        rel = record_path.resolve().relative_to(repo_root.resolve())
    except ValueError as exc:
        raise AnalysisError(
            f"record {record_path} is outside the repo root {repo_root}"
        ) from exc
    shas = _git(
        ["log", "--format=%H", "--reverse", "--", str(rel)], repo_root
    ).split()
    snapshots = []
    last_raw: str | None = None
    for sha in shas:
        raw = _git(["show", f"{sha}:{rel.as_posix()}"], repo_root)
        snapshots.append(_snapshot(sha[:12], raw))
        last_raw = raw
    worktree = repo_root / rel
    if worktree.is_file():
        raw = worktree.read_text()
        if raw != last_raw:
            snapshots.append(_snapshot(None, raw))
    return snapshots


def build_trajectory(
    record_paths: tuple[str, ...] = DEFAULT_RECORDS, repo_root: str | Path = "."
) -> dict:
    """Merge every record's history into one longitudinal report dict."""
    if not record_paths:
        raise AnalysisError("need at least one record path")
    repo_root = Path(repo_root)
    records = {}
    for name in record_paths:
        history = harvest_history(repo_root / name, repo_root)
        if history:
            records[name] = history
    if not records:
        raise AnalysisError(
            f"no history found for any of {list(record_paths)} under {repo_root}"
        )
    return {"report": "trajectory", "paper": PAPER_ID, "records": records}


def _movers(history: list[dict], limit: int) -> list[str]:
    """The metrics that moved most between the first and last usable snapshot."""
    usable = [s for s in history if s.get("metrics")]
    if not usable:
        return []
    first, last = usable[0], usable[-1]
    lines = []
    for key, new in last["metrics"].items():
        old = first["metrics"].get(key)
        if old is None or old == new:
            continue
        change = (new - old) / old * 100 if old else float("inf")
        lines.append((abs(change), f"  {key}: {old} -> {new} ({change:+.1f}%)"))
    lines.sort(reverse=True)
    return [text for _, text in lines[:limit]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.trajectory",
        description="Merge committed bench-record history into one report.",
    )
    parser.add_argument(
        "--records",
        nargs="+",
        default=list(DEFAULT_RECORDS),
        metavar="PATH",
        help=f"bench records to harvest (default: {' '.join(DEFAULT_RECORDS)})",
    )
    parser.add_argument(
        "--repo-root", default=".", help="git repository root (default: .)"
    )
    parser.add_argument("--out", default=None, help="write the report JSON here")
    parser.add_argument(
        "--movers",
        type=int,
        default=8,
        help="biggest first-to-last metric movers to print per record (default: 8)",
    )
    args = parser.parse_args(argv)
    try:
        report = build_trajectory(tuple(args.records), args.repo_root)
    except AnalysisError as exc:
        print(f"trajectory error: {exc}", file=sys.stderr)
        return 2
    for name, history in report["records"].items():
        commits = [s["commit"] or "worktree" for s in history]
        print(f"{name}: {len(history)} snapshot(s) [{commits[0]} .. {commits[-1]}]")
        for note in (s for s in history if "skipped" in s):
            print(f"  skipped {note['commit'] or 'worktree'}: {note['skipped']}")
        for line in _movers(history, args.movers):
            print(line)
    if args.out:
        path = Path(args.out)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
