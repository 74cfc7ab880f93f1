"""Experiment harnesses: the science sweep and the speed benches.

:mod:`repro.experiments.sweep` runs the science: a declarative matrix of
(protocol × topology × n × k × fault × seeds) blocks, stored in each
record's own header, produces the exact, seed-determined rounds of
``BENCH_broadcast.json`` (Decay vs GHK), ``BENCH_multimessage.json``
(k-message pipelining) and ``BENCH_faults.json`` (fault injection), and
``--check`` replays a record bit for bit.

Speed is measured apart from the science: :mod:`repro.experiments.scale_bench`
times whole runs per protocol and channel backend across sizes (rounds/sec
and peak memory; ``BENCH_scale.json`` and ``BENCH_engine.json``), and
:mod:`repro.experiments.kernel_bench` isolates the per-round kernel
reductions per backend (``BENCH_kernel.json``).

Every record is stamped through :mod:`repro.experiments.record`
(``schema_version``, ``created_utc``).  Speed regressions are gated by the
perfbench benchmark and CI's ``--max-seconds`` smoke ceilings, not by the
committed speed records; their seed-determined fields replay in
``tests/test_sweep_replay.py``.
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
    "bench_scale": "scale_bench",
    "bench_kernel": "kernel_bench",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
