"""The benchmark's workloads and the spec-to-result pass each one runs.

A workload is a fixed recipe: protocol, topology family, size, the seeds
of its graphs, its fault rates, and how many protocol seeds run on each
graph.  The ``--seed`` argument and a pass index pick the protocol seeds,
i.e. every node's coins.  A timed run cycles through several coin sets,
because GHK's rounds to delivery are heavy-tailed in the coins (60 to 155
rounds on one unit-disk graph): a run on one draw times its luck as much
as the code.  The same (seed, pass index) always yields the same inputs,
so the simulated observables of a pass are a pure function of (workload,
seed, pass index, commit).  Graphs and faults are fixed because where the
source sits in a random geometric graph, or how late a shared crash
window ends, moves every timing by tens of percent, which would drown the
differences between commits the benchmark is for.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.params import ProtocolParams
from repro.sim.faults import FaultSchedule, sample_fault_schedule
from repro.sim.runners import broadcast_spec, run_broadcast_batch
from repro.sim.topology import RadioNetwork, from_spec

__all__ = ["WORKLOADS", "PassResult", "Workload", "run_pass"]


@dataclass(frozen=True)
class Workload:
    """One benchmark input recipe; the methods derive a pass's inputs from it."""

    name: str
    protocol: str
    family: str
    n: int
    #: one topology is built per entry, from that seed (grids ignore it).
    graph_seeds: tuple[int, ...]
    #: protocol seeds run on every topology; > 1 fuses them in one group.
    seeds_per_graph: int
    p: float | None = None
    options: Mapping[str, Any] = field(default_factory=dict)
    crash_rate: float = 0.0
    loss_rate: float = 0.0

    @property
    def instances(self) -> int:
        return len(self.graph_seeds) * self.seeds_per_graph

    @property
    def faulted(self) -> bool:
        return self.crash_rate > 0.0 or self.loss_rate > 0.0

    def build_networks(self) -> list[RadioNetwork]:
        """The pass's distinct topologies, built from their specs."""
        return [from_spec(self.family, self.n, seed=s, p=self.p) for s in self.graph_seeds]

    def protocol_seeds(self, seed: int, pass_index: int) -> list[int]:
        base = (seed << 20) + pass_index * self.instances
        return list(range(base, base + self.instances))

    def fault_schedule(
        self, network: RadioNetwork, params: ProtocolParams
    ) -> FaultSchedule | None:
        """One schedule shared by every instance (so they stay fused)."""
        if not self.faulted:
            return None
        horizon = broadcast_spec(self.protocol).budget_for(
            params, network, network.n, self.options
        )
        return sample_fault_schedule(
            network,
            seed=0,
            horizon=horizon,
            crash_rate=self.crash_rate,
            loss_rate=self.loss_rate,
        )


#: Why each workload is here: BENCHMARK.json's ``why`` and perfbench/README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ghk-udg1kx8",
            protocol="ghk",
            family="unit_disk",
            n=1024,
            graph_seeds=tuple(range(8)),
            seeds_per_graph=1,
        ),
        Workload(
            name="decay-sweep-faults",
            protocol="decay",
            family="grid",
            n=64,
            graph_seeds=(0,),
            seeds_per_graph=64,
            crash_rate=0.05,
            loss_rate=0.1,
        ),
    )
}


@dataclass
class PassResult:
    """One spec-to-result pass: inputs, outputs and its wall-clock split."""

    networks: list[RadioNetwork]
    #: the network each instance ran on, in result order.
    instance_networks: list[RadioNetwork]
    results: list[Any]
    #: picks the coins with the run's seed; 0 is the reference coin set.
    pass_index: int
    wall_s: float
    #: seconds inside the engine's round loop (its own ``wall_seconds``).
    loop_s: float

    @property
    def setup_s(self) -> float:
        return self.wall_s - self.loop_s

    @property
    def node_rounds(self) -> int:
        return sum(
            net.n * result.sim.rounds_run
            for net, result in zip(self.instance_networks, self.results)
        )


def _call(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


def run_pass(
    workload: Workload,
    seed: int,
    params: ProtocolParams,
    call: Callable[..., Any] = _call,
    *,
    pass_index: int = 0,
) -> PassResult:
    """Spec to result objects through the public API, timed end to end.

    ``call(span, fn, *args)`` runs each stage; the traced pass passes
    :meth:`perfbench.tracing.Tracer.call` to time the stages as spans.
    """
    telemetry: dict = {}
    t0 = time.perf_counter()
    networks = call("topology.build", workload.build_networks)
    instance_networks = [
        net for net in networks for _ in range(workload.seeds_per_graph)
    ]
    schedule = call("faults.schedule", workload.fault_schedule, networks[0], params)
    results = call(
        "runners.batch",
        run_broadcast_batch,
        workload.protocol,
        instance_networks,
        seeds=workload.protocol_seeds(seed, pass_index),
        params=params,
        options=workload.options,
        telemetry=telemetry,
        faults=schedule,
        sanitize=False,
    )
    wall = time.perf_counter() - t0
    return PassResult(
        networks=networks,
        instance_networks=instance_networks,
        results=results,
        pass_index=pass_index,
        wall_s=wall,
        loop_s=float(telemetry["wall_seconds"]),
    )
