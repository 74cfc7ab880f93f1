"""Shared bench-record plumbing for every ``BENCH_*.json`` writer.

Every bench module builds its record through :func:`bench_record`, so the
header boilerplate (``bench`` kind, ``schema_version``, ``paper``,
``created_utc``) is stamped in exactly one place — and the longitudinal
perf gate (:mod:`repro.experiments.perf_gate`) can key on
``schema_version`` to refuse comparing records whose shapes have drifted
apart.

Bump :data:`SCHEMA_VERSION` whenever a bench record's *meaning* changes —
renamed metrics, changed units, a different measurement protocol — and
regenerate the committed records in the same PR; the perf gate fails
loudly on a version mismatch instead of producing a nonsense comparison.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from repro.analysis.simsan.core import sanitize_from_env
from repro.errors import AnalysisError
from repro.params import ProtocolParams

__all__ = [
    "DEFAULT_PROTOCOLS",
    "PAPER_ID",
    "SCHEMA_VERSION",
    "bench_record",
    "resolve_params",
    "rounds_per_sec",
    "write_bench",
]

#: The source paper every record reproduces.
PAPER_ID = "conf_podc_GhaffariHK13"

#: Version of the bench-record schemas.  v2 introduced the shared header
#: (this module) plus traffic/telemetry fields; v1 records (no
#: ``schema_version`` key) predate the perf gate and cannot be gated.
SCHEMA_VERSION = 2

#: The protocols the speed benches time by default: the Decay baseline and
#: the paper's collision-detection broadcast.
DEFAULT_PROTOCOLS: tuple[str, ...] = ("decay", "ghk")


def resolve_params(preset: str, backend: str = "auto") -> ProtocolParams:
    """Build a bench's :class:`ProtocolParams` from a preset + channel backend.

    Raises :class:`AnalysisError` on unknown names before any simulation runs.
    """
    if preset not in ("paper", "fast"):
        raise AnalysisError(f"unknown preset {preset!r}; choose paper or fast")
    if backend not in ("auto", "dense", "sparse", "bitpacked"):
        raise AnalysisError(
            f"unknown channel backend {backend!r}; choose auto, dense, sparse "
            "or bitpacked"
        )
    params = ProtocolParams.paper() if preset == "paper" else ProtocolParams.fast()
    return params.with_overrides(channel_backend=backend)


def rounds_per_sec(rounds: int, seconds: float) -> float | None:
    """Throughput rounded to the precision every bench reports, or ``None``."""
    return round(rounds / seconds, 1) if seconds > 0 else None


def bench_record(bench: str, **fields) -> dict:
    """Assemble one bench record: the shared header, then bench-specific fields.

    Key order is deliberate — header first, the caller's fields after, so
    committed records stay diffable across PRs.  The header stamps whether
    the process ran under ``REPRO_SANITIZE``: sanitized numbers measure
    the sanitizer, not the engine, so the perf gate refuses them.
    """
    return {
        "bench": bench,
        "schema_version": SCHEMA_VERSION,
        "paper": PAPER_ID,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "sanitized": sanitize_from_env(),
        **fields,
    }


def write_bench(record: dict, path: str | Path) -> Path:
    """Write a bench record as pretty-printed JSON and return the path."""
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path
