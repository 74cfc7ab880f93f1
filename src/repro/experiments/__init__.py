"""Experiment harnesses: the science sweep, the speed benches and the gate.

:mod:`repro.experiments.sweep` runs the science: a declarative matrix of
(protocol × topology × n × k × fault × seeds) blocks, stored in each
record's own header, produces the exact, seed-determined rounds of
``BENCH_broadcast.json`` (Decay vs GHK), ``BENCH_multimessage.json``
(k-message pipelining) and ``BENCH_faults.json`` (fault injection), and
``--check`` replays a record bit for bit.

Speed is measured apart from the science: :mod:`repro.experiments.engine_bench`
times the batch engine per protocol, :mod:`repro.experiments.scale_bench`
compares the dense, sparse and bit-packed channel backends across sizes
(rounds/sec and peak memory), and :mod:`repro.experiments.kernel_bench`
isolates the per-round kernel reductions per backend.

Every record is stamped through :mod:`repro.experiments.record`
(``schema_version``, ``created_utc``); :mod:`repro.experiments.trajectory`
merges the committed record history into one longitudinal report, and
:mod:`repro.experiments.perf_gate` re-measures a smoke slice and fails on
throughput or memory regression against the committed records.
"""

import importlib

#: Lazy re-exports, name -> submodule: importing the submodules eagerly
#: would trigger a double-import RuntimeWarning under
#: ``python -m repro.experiments.*``.
_EXPORTS = {
    "SCHEMA_VERSION": "record",
    "bench_record": "record",
    "resolve_params": "record",
    "write_bench": "record",
    "run_matrix": "sweep",
    "bench_engines": "engine_bench",
    "bench_scale": "scale_bench",
    "bench_kernel": "kernel_bench",
    "build_trajectory": "trajectory",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
