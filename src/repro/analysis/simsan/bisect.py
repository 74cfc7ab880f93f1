"""The divergence bisector: localize a cross-backend mismatch to its round.

When the sanitizer's differential check reports a ``diff.*`` violation,
the :class:`~repro.errors.SanitizerError` carries everything needed to
run it again: seed, topology, protocol backend.  This module runs that
spec once, on the suspect backend, with the differential check in full
mode at every size: each round is re-resolved on the dense reference, so
the first ``diff.*`` error names the **first divergent round**.  The
error's details hold the minimal repro bundle (packed plan masks at that
round, adjacency version, the mismatching node's active and reference
values), dumped as JSON.  Coins are a pure function of the seed, node
and round (:mod:`repro.sim.rng`), so the spec alone reproduces them.

Usage::

    python -m repro.analysis.simsan.bisect --protocol decay \\
        --topology grid --n 64 --seed 3 --backend sparse --out-dir /tmp

Exit status: 0 when every round matches the reference, 1 when a
divergence was found (the bundle path is printed), 2 on usage errors.

``--inject-wrong-at R`` wraps the suspect backend's operand so it returns
a corrupted neighbour count from round ``R`` on — the self-test knob the
test suite (and the README walkthrough) uses to prove the bisector
pinpoints the injected round exactly.  Injection composes with crash,
loss, and jammer schedules but not with edge flips: the fault layer
rebuilds the operand after each flip, which drops the wrapper mid-run.
"""

from __future__ import annotations

import argparse
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.simsan.core import SanitizerConfig
from repro.errors import ConfigurationError, SanitizerError
from repro.params import ProtocolParams
from repro.sim.core.batch import ArrayEngine, select_kernel_operand
from repro.sim.core.channel import KernelOperand
from repro.sim.faults import FaultSchedule, sample_fault_schedule
from repro.sim.runners import broadcast_spec
from repro.sim.topology import TOPOLOGY_NAMES, RadioNetwork, from_spec

__all__ = [
    "BisectOutcome",
    "ReplaySpec",
    "WrongFeedbackOperand",
    "bisect_run",
    "main",
    "write_bundle",
]

BUNDLE_SCHEMA = "simsan-bundle-2"

#: The fixed reference backend — the BLAS matmul operand, the simplest
#: kernel and the one the differential checker certifies against.
REFERENCE_BACKEND = "dense"


@dataclass(frozen=True)
class ReplaySpec:
    """Everything needed to deterministically reproduce one run."""

    protocol: str
    topology: str
    n: int
    seed: int
    #: the backend under suspicion (the sanitized run's ``backend`` field).
    backend: str
    preset: str = "fast"
    #: round budget; ``None`` means the protocol spec's default rule.
    budget: int | None = None
    crash_rate: float = 0.0
    loss_rate: float = 0.0
    jammers: int = 0
    edge_flip_rate: float = 0.0


class WrongFeedbackOperand:
    """Self-test corruption: a backend returning wrong counts from round R.

    Wraps a real operand and adds 1 to node 0's transmitting-neighbour
    count on every kernel call from ``wrong_from`` onward — the minimal
    "buggy new backend" the bisector must localize to exactly that round.
    """

    def __init__(self, inner: KernelOperand, wrong_from: int) -> None:
        self._inner = inner
        self._calls = 0
        self.wrong_from = wrong_from
        self.backend: str = inner.backend
        self.n: int = inner.n

    def prepare_transmit(self, transmit: np.ndarray) -> Any:
        return self._inner.prepare_transmit(transmit)

    def transmit_counts(self, tx: Any) -> np.ndarray:
        counts = self._inner.transmit_counts(tx)
        call = self._calls
        self._calls += 1
        if call >= self.wrong_from:
            counts = counts.copy()
            counts[..., 0] += 1
        return counts

    def sender_ids(self, tx: Any, clean: np.ndarray) -> np.ndarray:
        return self._inner.sender_ids(tx, clean)


def _fault_schedule(
    spec: ReplaySpec, budget: int, network: RadioNetwork
) -> FaultSchedule | None:
    if not (
        spec.crash_rate or spec.loss_rate or spec.jammers or spec.edge_flip_rate
    ):
        return None
    return sample_fault_schedule(
        network,
        seed=spec.seed,
        horizon=budget,
        crash_rate=spec.crash_rate,
        loss_rate=spec.loss_rate,
        jammers=spec.jammers,
        edge_flip_rate=spec.edge_flip_rate,
    )


def _build_engine(
    spec: ReplaySpec, inject_wrong_at: int | None
) -> tuple[ArrayEngine, int]:
    """One sanitized engine on the suspect backend, plus its round budget.

    ``full_diff_max_n`` is the network size, so every round is compared
    whole on the dense reference: sampled rows could miss the first
    divergent round and report a later one.
    """
    network = from_spec(spec.topology, spec.n)
    base = (
        ProtocolParams.paper() if spec.preset == "paper" else ProtocolParams.fast()
    )
    params = base.with_overrides(channel_backend=spec.backend)
    bspec = broadcast_spec(spec.protocol)
    budget = (
        spec.budget
        if spec.budget is not None
        else bspec.budget_for(params, network, network.n, {})
    )
    faults = _fault_schedule(spec, budget, network)
    if inject_wrong_at is not None and spec.edge_flip_rate:
        raise ConfigurationError(
            "--inject-wrong-at cannot combine with edge flips: the fault "
            "layer's operand rebuilds would drop the injection mid-run"
        )
    operand: KernelOperand = select_kernel_operand(network, params)
    if inject_wrong_at is not None:
        operand = WrongFeedbackOperand(operand, inject_wrong_at)
    engine = ArrayEngine(
        network,
        bspec.array_factory(),
        seed=spec.seed,
        params=params,
        kernel_operand=operand,
        faults=faults,
        sanitize=SanitizerConfig(full_diff_max_n=network.n),
    )
    return engine, budget


@dataclass(frozen=True)
class BisectOutcome:
    """Result of one bisection: where the backends first disagreed."""

    #: rounds run, the divergent one included.
    rounds: int
    #: the first ``diff.*`` finding, or ``None`` when every round matched.
    error: SanitizerError | None

    @property
    def divergent_round(self) -> int | None:
        return None if self.error is None else self.error.round_index


def bisect_run(
    spec: ReplaySpec, *, inject_wrong_at: int | None = None
) -> BisectOutcome:
    """Run ``spec`` sanitized on its backend; the first ``diff.*`` finding.

    Any other sanitizer finding is not a backend divergence and propagates.
    """
    engine, budget = _build_engine(spec, inject_wrong_at)
    try:
        engine.run(budget, stop_when=lambda eng: eng.protocol.done())
    except SanitizerError as exc:
        if not exc.check.startswith("diff."):
            raise
        return BisectOutcome(rounds=exc.round_index + 1, error=exc)
    return BisectOutcome(rounds=engine.round_index, error=None)


def write_bundle(spec: ReplaySpec, error: SanitizerError, out_dir: Path) -> Path:
    """Dump the repro bundle of a ``diff.*`` finding as JSON."""
    details = dict(error.details)
    bundle = {
        "schema": BUNDLE_SCHEMA,
        "spec": asdict(spec),
        "reference_backend": REFERENCE_BACKEND,
        "check": error.check,
        "divergent_round": error.round_index,
        "transmit_packed": details.pop("transmit_packed"),
        "listen_packed": details.pop("listen_packed"),
        "adjacency_version": details.pop("adjacency_version"),
        "finding": details,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (
        f"simsan-bundle-{spec.protocol}-{spec.topology}-n{spec.n}"
        f"-seed{spec.seed}-{spec.backend}-round{error.round_index}.json"
    )
    path.write_text(json.dumps(bundle, indent=2) + "\n")
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.simsan.bisect",
        description=(
            "Run a spec sanitized on its backend, every round checked whole "
            "against the dense reference; report the first divergent round "
            "and dump a repro bundle."
        ),
    )
    parser.add_argument("--protocol", default="decay", help="broadcast protocol name")
    parser.add_argument(
        "--topology", default="grid", choices=TOPOLOGY_NAMES, help="topology family"
    )
    parser.add_argument("--n", type=int, default=64, help="network size")
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--backend",
        default="sparse",
        choices=("dense", "sparse", "bitpacked"),
        help="the backend under suspicion",
    )
    parser.add_argument(
        "--preset", default="fast", choices=("fast", "paper"), help="params preset"
    )
    parser.add_argument(
        "--budget", type=int, default=None, help="round budget (default: spec rule)"
    )
    parser.add_argument("--crash-rate", type=float, default=0.0)
    parser.add_argument("--loss-rate", type=float, default=0.0)
    parser.add_argument("--jammers", type=int, default=0)
    parser.add_argument("--edge-flip-rate", type=float, default=0.0)
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path("."),
        help="directory the repro bundle is written to",
    )
    parser.add_argument(
        "--inject-wrong-at",
        type=int,
        default=None,
        metavar="R",
        help="self-test: corrupt the active backend's counts from round R on",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = ReplaySpec(
        protocol=args.protocol,
        topology=args.topology,
        n=args.n,
        seed=args.seed,
        backend=args.backend,
        preset=args.preset,
        budget=args.budget,
        crash_rate=args.crash_rate,
        loss_rate=args.loss_rate,
        jammers=args.jammers,
        edge_flip_rate=args.edge_flip_rate,
    )
    try:
        outcome = bisect_run(spec, inject_wrong_at=args.inject_wrong_at)
    except ConfigurationError as exc:
        parser.exit(2, f"error: {exc}\n")
    if outcome.error is None:
        print(
            f"no divergence: {spec.backend} and {REFERENCE_BACKEND} agree on "
            f"all {outcome.rounds} rounds "
            f"({spec.protocol} on {spec.topology}-{spec.n}, seed {spec.seed})"
        )
        return 0
    bundle = write_bundle(spec, outcome.error, args.out_dir)
    print(
        f"first divergent round: {outcome.divergent_round} "
        f"({spec.backend} vs {REFERENCE_BACKEND}, {spec.protocol} on "
        f"{spec.topology}-{spec.n}, seed {spec.seed})"
    )
    print(f"repro bundle: {bundle}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
