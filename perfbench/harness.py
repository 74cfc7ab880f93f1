"""Measurement loop: warm-up, timed passes, the memory probe, the report.

An untraced run (``trace=False``) reports the end-to-end metrics: it runs
one probe pass under ``tracemalloc`` (peak memory; it also serves as the
untimed warm-up), then untraced spec-to-result passes that cycle through
``COIN_SETS`` coin sets until ``seconds`` have elapsed.  Each coin set's
time is its fastest pass (the host's slow spells only ever add time), and
the run reports the mean over the coin sets; the simulated-time metric
covers every coin set once.  A traced run (``trace=True``) runs an
untimed warm-up pass, then alternates untraced and traced passes on the
warm-up's coins and reports the per-layer metrics.  Every pass is checked instance by instance.  The passes on the
reference coins (pass index 0) are digested, and their digests must agree.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim.core.batch import resolve_channel_backend
from repro.sim.core.channel import HAVE_BITWISE_COUNT
from repro.sim.runners import broadcast_spec

from perfbench import nproc
from perfbench.checks import check_pass, digest
from perfbench.tracing import Tracer, run_traced_pass
from perfbench.workloads import WORKLOADS, PassResult, Workload, run_pass

__all__ = ["END_TO_END", "PER_LAYER", "run_benchmark"]

#: Coin sets an untraced run cycles through (pass indices 1..COIN_SETS).
#: Averaging over several draws keeps GHK's heavy-tailed rounds to
#: delivery from deciding a run's figures.
COIN_SETS = 8
#: However short ``seconds`` is, an untraced run times every coin set once
#: and a traced run takes this many traced passes, plus as many untraced.
MIN_TRACED_PASSES = 3
#: No new pass starts once a run has used this many seconds, so a run
#: always ends well inside its 180 s allowance.
RUN_CEILING_S = 120.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "node_rounds_per_s": "node-rounds/s",
    "peak_mib": "MiB",
    "delivered_frac": "ratio",
    "informed_round_mean": "rounds",
}

#: Span self times reported as ``<span>_s``, in seconds per pass.
SPANS = (
    "topology.build", "topology.bfs", "topology.csr", "topology.key",
    "faults.schedule", "runners.batch",
    "rng.streams",
    "channel.operand", "channel.prepare", "channel.counts", "channel.senders",
    "channel.masks",
    "protocol.setup", "protocol.act", "protocol.coins", "protocol.feedback",
    "protocol.done",
    "faults.begin", "faults.perceive",
    "engine.construct", "engine.round", "engine.result",
    "runners.result",
)

#: Exact work counters, identical on every traced pass of the same inputs.
COUNTERS = (
    "topology.edges", "topology.ecc",
    "rng.generators",
    "channel.calls", "channel.rows", "channel.transmitters",
    "channel.tx_degree_sum", "channel.clean",
    "protocol.informed", "protocol.coins", "protocol.rounds",
    "faults.dropped", "faults.crashed_node_rounds",
    "engine.instances", "engine.groups", "engine.fused_calls",
)


def _span_metric(span: str) -> str:
    """The metric name of a span's self time (spans with child layers say ``self``)."""
    if span in ("engine.construct", "engine.round", "runners.batch"):
        return f"{span}_self_s"
    return f"{span}_s"


#: Per-layer metrics: name -> unit.
PER_LAYER = {
    **{_span_metric(span): "s" for span in SPANS},
    **{name: "count" for name in COUNTERS},
    "channel.active_edge_frac": "ratio",
    "protocol.rounds_to_delivery_mean": "rounds",
    "trace.attributed_frac": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Tally:
    """Instances attempted/failed and problems found across a run's passes."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)

    def record(self, result: PassResult, *, digested: bool = True) -> None:
        """Check a pass; ``digested`` passes ran the run's reference coins."""
        verdict = check_pass(result.instance_networks, result.results)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems.extend(verdict.problems)
        if digested:
            self.digests.add(digest(result.results))


def _guarded(tally: Tally, workload: Workload, fn: Callable[[], Any]) -> Any:
    """Run one pass; a pass that raises counts all its instances as failed."""
    try:
        return fn()
    except Exception:  # a benchmark boundary: record, report, keep measuring
        traceback.print_exc(file=sys.stderr)
        tally.attempted += workload.instances
        tally.failed += workload.instances
        tally.problems.append("a pass raised (traceback on stderr)")
        return None


def _probe_pass(workload: Workload, seed: int, params: ProtocolParams) -> tuple[PassResult, float]:
    """One pass under tracemalloc: its peak traced allocation in MiB."""
    tracemalloc.start()
    try:
        result = run_pass(workload, seed, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def _informed_round_mean(passes: list[PassResult]) -> float:
    """Mean round at which a node got the message, over every node and instance.

    Undelivered instances count each node at the budget they exhausted.
    """
    total = 0
    nodes = 0
    for result in passes:
        for net, instance in zip(result.instance_networks, result.results):
            if isinstance(instance, BroadcastFailure):
                total += instance.budget * net.n
            else:
                total += sum(instance.informed_rounds)
            nodes += net.n
    return total / nodes


def rounds_to_delivery_mean(result: PassResult) -> float:
    """Mean rounds run per instance (undelivered ones ran their whole budget)."""
    return statistics.fmean(instance.sim.rounds_run for instance in result.results)


def _end_to_end(passes: list[PassResult], peak_mib: float, tally: Tally) -> dict[str, Any]:
    by_set: dict[int, list[PassResult]] = {}
    for p in passes:
        by_set.setdefault(p.pass_index, []).append(p)

    def fastest(attr: str) -> list[float]:
        return [min(getattr(p, attr) for p in group) for group in by_set.values()]

    node_rounds = sum(group[0].node_rounds for group in by_set.values())
    values = {
        "wall_s": statistics.fmean(fastest("wall_s")),
        "setup_s": statistics.fmean(fastest("setup_s")),
        "node_rounds_per_s": node_rounds / sum(fastest("loop_s")),
        "peak_mib": peak_mib,
        "delivered_frac": 1.0 - tally.failed / tally.attempted,
        "informed_round_mean": _informed_round_mean([group[0] for group in by_set.values()]),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def _per_layer(
    untraced: list[PassResult], traced: list[tuple[PassResult, Tracer]], tally: Tally
) -> dict[str, Any]:
    tracers = [tracer for _, tracer in traced]
    reference = {name: tracers[0].counts.get(name, 0) for name in COUNTERS}
    for tracer in tracers[1:]:
        again = {name: tracer.counts.get(name, 0) for name in COUNTERS}
        if again != reference:
            tally.problems.append(
                f"work counters differ between traced passes: {reference} vs {again}"
            )
    values: dict[str, float] = {
        _span_metric(span): statistics.median(t.self_s.get(span, 0.0) for t in tracers)
        for span in SPANS
    }
    values.update(reference)
    slots = tracers[0].counts.get("channel.edge_slots", 0)
    values["channel.active_edge_frac"] = (
        reference["channel.tx_degree_sum"] / slots if slots else 0.0
    )
    values["protocol.rounds_to_delivery_mean"] = rounds_to_delivery_mean(traced[0][0])
    values["trace.attributed_frac"] = statistics.median(
        t.layer_seconds() / p.wall_s for p, t in traced
    )
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    values["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def _environment(
    workload: Workload, seed: int, params: ProtocolParams, networks: list[Any], blas_threads: int
) -> dict[str, Any]:
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": nproc(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "HAVE_BITWISE_COUNT": HAVE_BITWISE_COUNT,
        "blas_threads": blas_threads,
        "backends": [resolve_channel_backend(net, params) for net in networks],
    }


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool, *, blas_threads: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Measure one workload; returns ``(result line, details line)``."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    params = ProtocolParams.paper()
    broadcast_spec(workload.protocol)  # import the protocol modules up front
    tally = Tally()

    def keep_going(count: int, deadline: float) -> bool:
        now = time.perf_counter()
        if now - started > RUN_CEILING_S:
            return False
        return count < (MIN_TRACED_PASSES if trace else COIN_SETS) or now < deadline

    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, Tracer]] = []
    reference: PassResult | None = None
    peak_mib = 0.0

    def plain_pass() -> PassResult:
        return run_pass(workload, seed, params)

    def traced_pass() -> tuple[PassResult, Tracer]:
        return run_traced_pass(workload, seed, params)

    if trace:
        reference = _guarded(tally, workload, plain_pass)  # warm-up, untimed
        if reference is not None:
            tally.record(reference)
        deadline = time.perf_counter() + seconds
        healthy = True
        while healthy and reference is not None and keep_going(len(traced), deadline):
            # Alternate which side runs first, so drift favours neither.
            steps = [(plain_pass, untraced), (traced_pass, traced)]
            if len(traced) % 2:
                steps.reverse()
            for fn, sink in steps:
                gc.collect()
                out = _guarded(tally, workload, fn)
                if out is None:
                    healthy = False
                    break
                tally.record(out[0] if sink is traced else out)
                sink.append(out)
    else:
        probe = _guarded(tally, workload, lambda: _probe_pass(workload, seed, params))
        if probe is not None:
            reference, peak_mib = probe
            tally.record(reference)
            deadline = time.perf_counter() + seconds
            while keep_going(len(untraced), deadline):
                gc.collect()
                index = len(untraced) % COIN_SETS + 1
                result = _guarded(
                    tally, workload, lambda: run_pass(workload, seed, params, pass_index=index)
                )
                if result is None:
                    break
                tally.record(result, digested=False)
                untraced.append(result)
    if reference is None or not untraced or (trace and not traced):
        raise RuntimeError(f"no {name} pass completed; see the tracebacks above")
    if len(tally.digests) != 1:
        tally.problems.append(f"passes disagree on the observables digest: {sorted(tally.digests)}")
    metrics = (
        _per_layer(untraced, traced, tally) if trace else _end_to_end(untraced, peak_mib, tally)
    )
    details = {
        "env": _environment(workload, seed, params, untraced[0].networks, blas_threads),
        "digest": sorted(tally.digests),
        "passes": len(traced) if trace else len(untraced),
        "rounds_to_delivery_mean": rounds_to_delivery_mean(reference),
        "pass_wall_s": [p.wall_s for p in untraced],
        "pass_setup_s": [p.setup_s for p in untraced],
        "problems": tally.problems,
    }
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, details
