"""The benchmark's own tests: run with ``python -m pytest perfbench/tests -q``.

They use small versions of the workloads so they finish in seconds; the
command-line tests run the real fault workload for one second.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import BroadcastFailure
from repro.params import ProtocolParams
from repro.sim.core.channel import DenseOperand
from repro.sim.faults import FaultState

from perfbench.checks import check_pass, digest
from perfbench.harness import END_TO_END, PER_LAYER, Tally, _end_to_end
from perfbench.tracing import run_traced_pass
from perfbench.workloads import WORKLOADS, Workload, run_pass

ROOT = Path(__file__).resolve().parents[2]
PAPER = ProtocolParams.paper()

TINY = {
    "faults": (
        Workload(
            name="tiny-faults", protocol="decay", family="grid", n=64,
            graph_seeds=(0,), seeds_per_graph=4, crash_rate=0.2, loss_rate=0.1,
        ),
        PAPER,
    ),
    "udg": (
        Workload(
            name="tiny-udg", protocol="ghk", family="unit_disk", n=256,
            graph_seeds=(0, 1), seeds_per_graph=1,
        ),
        PAPER.with_overrides(channel_backend="sparse"),
    ),
    "gnp": (
        Workload(
            name="tiny-gnp", protocol="ghk", family="gnp", n=256,
            graph_seeds=(0,), seeds_per_graph=3, p=0.3,
        ),
        PAPER.with_overrides(channel_backend="bitpacked"),
    ),
    "mm": (
        Workload(
            name="tiny-mm", protocol="multimessage", family="grid", n=64,
            graph_seeds=(0,), seeds_per_graph=3, options={"k_messages": 4},
        ),
        PAPER,
    ),
}


@pytest.mark.parametrize("key", sorted(TINY))
def test_traced_pass_reproduces_untraced_observables(key: str) -> None:
    workload, params = TINY[key]
    plain = run_pass(workload, 5, params)
    traced, tracer = run_traced_pass(workload, 5, params)
    assert digest(traced.results) == digest(plain.results)
    assert check_pass(traced.instance_networks, traced.results).failed == 0
    assert tracer.counts["engine.instances"] == workload.instances
    assert tracer.layer_seconds() <= traced.wall_s


@pytest.mark.parametrize("key", sorted(TINY))
def test_work_counters_repeat_exactly(key: str) -> None:
    workload, params = TINY[key]
    _, first = run_traced_pass(workload, 7, params)
    _, second = run_traced_pass(workload, 7, params)
    assert dict(first.counts) == dict(second.counts)
    assert first.counts["channel.calls"] > 0
    assert first.counts["rng.generators"] == workload.instances * (workload.n + 1)
    if workload.faulted:
        assert first.counts["faults.crashed_node_rounds"] > 0


def test_inputs_follow_the_seed() -> None:
    workload, params = TINY["udg"]
    assert digest(run_pass(workload, 3, params).results) == digest(
        run_pass(workload, 3, params).results
    )
    assert digest(run_pass(workload, 3, params).results) != digest(
        run_pass(workload, 4, params).results
    )


def test_end_to_end_takes_each_coin_sets_fastest_pass() -> None:
    workload, params = TINY["faults"]
    fast = [run_pass(workload, 1, params, pass_index=index) for index in (1, 2)]
    assert digest(fast[0].results) != digest(fast[1].results)
    slow = [dataclasses.replace(p, wall_s=p.wall_s + 1.0, loop_s=p.loop_s + 0.5) for p in fast]
    metrics = _end_to_end(slow + fast, 1.0, Tally(attempted=1))
    assert metrics["wall_s"]["value"] == pytest.approx(statistics.fmean(p.wall_s for p in fast))
    assert metrics["setup_s"]["value"] == pytest.approx(statistics.fmean(p.setup_s for p in fast))
    assert metrics["node_rounds_per_s"]["value"] == pytest.approx(
        sum(p.node_rounds for p in fast) / sum(p.loop_s for p in fast)
    )


def _slow(monkeypatch: pytest.MonkeyPatch, owner: type, method: str, delay: float) -> None:
    original = getattr(owner, method)

    def slowed(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        time.sleep(delay)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, method, slowed)


@pytest.mark.parametrize(
    ("owner", "method", "span", "calls"),
    [
        (DenseOperand, "transmit_counts", "channel.counts", "channel.calls"),
        (FaultState, "perceive", "faults.perceive", "protocol.rounds"),
    ],
)
def test_slowed_layer_raises_its_own_metric(
    monkeypatch: pytest.MonkeyPatch, owner: type, method: str, span: str, calls: str
) -> None:
    workload, params = TINY["faults"]
    _, base = run_traced_pass(workload, 2, params)
    delay = 0.002
    _slow(monkeypatch, owner, method, delay)
    _, slow = run_traced_pass(workload, 2, params)
    # counts runs once per kernel call, perceive once per instance-round.
    injected = delay * base.counts[calls]
    rise = slow.self_s[span] - base.self_s[span]
    assert rise >= 0.9 * injected
    others = sum(slow.self_s.values()) - slow.self_s[span]
    assert others - (sum(base.self_s.values()) - base.self_s[span]) < 0.25 * injected


def test_checks_catch_wrong_outputs() -> None:
    workload, params = TINY["faults"]
    result = run_pass(workload, 1, params)
    nets, results = result.instance_networks, list(result.results)
    assert check_pass(nets, results).problems == []
    far = max(range(nets[0].n), key=lambda v: result.results[0].informed_rounds[v])
    informed = list(results[0].informed_rounds)
    informed[far] = 0
    results[0] = dataclasses.replace(results[0], informed_rounds=tuple(informed))
    sim = results[1].sim
    results[1] = dataclasses.replace(
        results[1], sim=dataclasses.replace(sim, total_transmissions=sim.total_transmissions + 1)
    )
    results[2] = dataclasses.replace(results[2], rounds_to_delivery=results[2].budget + 1)
    results[3] = BroadcastFailure(
        "forced", (far,), sim=results[3].sim, budget=results[3].budget
    )
    verdict = check_pass(nets, results)
    assert verdict.failed == 4
    assert [p.split(":")[0] for p in verdict.problems] == [
        "instance 0", "instance 1", "instance 2", "instance 3",
    ]
    assert digest(results) != digest(result.results)


def test_benchmark_json_declares_what_the_harness_prints() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[key]} == printed


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(("trace", "names"), [("0", END_TO_END), ("1", PER_LAYER)])
def test_command_prints_the_result_line(trace: str, names: dict) -> None:
    out = _run_cli(
        ROOT, "--workload", "decay-sweep-faults", "--seed", "3", "--seconds", "1",
        "--trace", trace,
    )
    assert out.returncode == 0, out.stderr
    details, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert len(details["digest"]) == 1
    assert details["env"]["seed"] == 3 and details["env"]["backends"] == ["dense"]


def test_command_fails_without_the_sources(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run_cli(
        tmp_path, "--workload", "decay-sweep-faults", "--seed", "0", "--seconds", "1"
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
