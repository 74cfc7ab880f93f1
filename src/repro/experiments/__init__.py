"""Experiment harnesses: multi-seed sweeps over the topology suite.

The modules here drive the protocols in :mod:`repro.sim` across graph
families and seed batches, aggregate the outcomes, and emit JSON perf
records (``BENCH_*.json``) that chart the repository's bench trajectory
over time.  :mod:`repro.experiments.broadcast_bench` compares the Decay
baseline against the paper's collision-detection broadcast;
:mod:`repro.experiments.engine_bench` times the batch engine's
throughput over one multi-seed sweep per protocol;
:mod:`repro.experiments.multimessage_bench` sweeps the k-message pipeline
across message counts and measures whether pipelining beats k sequential
broadcasts; :mod:`repro.experiments.scale_bench` compares the dense,
sparse, and bit-packed channel backends across network sizes (rounds/sec
and peak memory); :mod:`repro.experiments.kernel_bench` isolates the
per-round kernel reductions (neighbour counts, sender recovery) per
backend at the operand level.

Every record is stamped through :mod:`repro.experiments.record`
(``schema_version``, ``created_utc``); :mod:`repro.experiments.trajectory`
merges the committed record history into one longitudinal report, and
:mod:`repro.experiments.perf_gate` re-measures a smoke slice and fails on
throughput or memory regression against the committed records.
"""

__all__ = [
    "DEFAULT_K_VALUES",
    "DEFAULT_PROTOCOLS",
    "DEFAULT_TOPOLOGIES",
    "SCHEMA_VERSION",
    "bench_engines",
    "bench_kernel",
    "bench_record",
    "bench_scale",
    "build_trajectory",
    "merge_records",
    "resolve_params",
    "sweep_broadcast",
    "sweep_multimessage",
    "write_bench",
]

_BROADCAST_EXPORTS = {
    "DEFAULT_PROTOCOLS",
    "DEFAULT_TOPOLOGIES",
    "merge_records",
    "resolve_params",
    "sweep_broadcast",
    "write_bench",
}
_MULTIMESSAGE_EXPORTS = {"DEFAULT_K_VALUES", "sweep_multimessage"}


def __getattr__(name: str):
    # Lazy re-export: importing the submodules here eagerly would trigger a
    # double-import RuntimeWarning under `python -m repro.experiments.*`.
    if name in _BROADCAST_EXPORTS:
        from repro.experiments import broadcast_bench

        return getattr(broadcast_bench, name)
    if name in _MULTIMESSAGE_EXPORTS:
        from repro.experiments import multimessage_bench

        return getattr(multimessage_bench, name)
    if name == "bench_engines":
        from repro.experiments import engine_bench

        return engine_bench.bench_engines
    if name == "bench_scale":
        from repro.experiments import scale_bench

        return scale_bench.bench_scale
    if name == "bench_kernel":
        from repro.experiments import kernel_bench

        return kernel_bench.bench_kernel
    if name in ("SCHEMA_VERSION", "bench_record"):
        from repro.experiments import record

        return getattr(record, name)
    if name == "build_trajectory":
        from repro.experiments import trajectory

        return trajectory.build_trajectory
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
