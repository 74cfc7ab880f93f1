"""The divergence bisector: localize a cross-backend mismatch to its round.

When the sanitizer's differential check reports a ``diff.*`` violation,
the :class:`~repro.errors.SanitizerError` carries everything needed to
replay the run: seed, topology, protocol backend.  This module does the
replay — once on the active backend, once on the dense reference — records
a per-round sha256 digest over the packed plan masks and the raw kernel
output, binary-searches the digest sequences to the **first divergent
round**, and dumps a minimal repro bundle (packed masks at the divergent
round, adjacency version) as JSON.  Coins are a pure function of the
seed, node and round (:mod:`repro.sim.rng`), so the spec replays them.

Usage::

    python -m repro.analysis.simsan.bisect --protocol decay \\
        --topology grid --n 64 --seed 3 --backend sparse --out-dir /tmp

Exit status: 0 when the replays agree on every round, 1 when a divergence
was found (the bundle path is printed), 2 on usage errors.

``--inject-wrong-at R`` wraps the active backend's operand so it returns
a corrupted neighbour count from round ``R`` on — the self-test knob the
test suite (and the README walkthrough) uses to prove the bisector
pinpoints the injected round exactly.  Injection composes with crash,
loss, and jammer schedules but not with edge flips, whose operand
rebuilds would silently drop the wrapper mid-run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.params import ProtocolParams
from repro.sim.core.array_protocol import RoundPlan
from repro.sim.core.batch import ArrayEngine, select_kernel_operand
from repro.sim.core.channel import ChannelRound, KernelOperand, pack_mask
from repro.sim.faults import FaultSchedule, sample_fault_schedule
from repro.sim.runners import broadcast_spec
from repro.sim.topology import TOPOLOGY_NAMES, RadioNetwork, from_spec

__all__ = [
    "BisectOutcome",
    "ReplaySpec",
    "WrongFeedbackOperand",
    "bisect_run",
    "first_divergent_round",
    "main",
    "replay_digests",
]

BUNDLE_SCHEMA = "simsan-bundle-1"

#: The fixed reference backend — the BLAS matmul operand, the simplest
#: kernel and the one the differential checker certifies against.
REFERENCE_BACKEND = "dense"


@dataclass(frozen=True)
class ReplaySpec:
    """Everything needed to deterministically replay one run."""

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
    spec: ReplaySpec, backend: str, inject_wrong_at: int | None
) -> tuple[ArrayEngine, int]:
    """One fresh engine on the named backend, plus its round budget."""
    network = from_spec(spec.topology, spec.n)
    base = (
        ProtocolParams.paper() if spec.preset == "paper" else ProtocolParams.fast()
    )
    params = base.with_overrides(channel_backend=backend)
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
    )
    return engine, budget


def _round_digest(plan: RoundPlan, channel: ChannelRound) -> bytes:
    """Backend-independent fingerprint of one raw kernel round."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pack_mask(plan.transmit)).tobytes())
    h.update(np.ascontiguousarray(pack_mask(plan.listen)).tobytes())
    h.update(np.ascontiguousarray(channel.counts, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(pack_mask(channel.clean)).tobytes())
    senders = np.where(channel.clean, channel.senders, 0).astype(np.int64)
    h.update(np.ascontiguousarray(senders).tobytes())
    return h.digest()


def replay_digests(
    spec: ReplaySpec,
    *,
    backend: str,
    inject_wrong_at: int | None = None,
    capture_at: int | None = None,
) -> tuple[list[bytes], dict | None]:
    """Replay one run on ``backend``; per-round digests plus an optional capture.

    ``capture_at`` snapshots the repro-bundle ingredients (packed plan
    masks, adjacency version) just before that round's
    feedback is applied — the state a debugger needs to re-resolve the
    divergent round in isolation.
    """
    engine, budget = _build_engine(spec, backend, inject_wrong_at)
    digests: list[bytes] = []
    captured: dict | None = None
    while engine.round_index < budget and not engine.protocol.done():
        current = engine.round_index
        plan = engine.begin_round()
        channel = engine.resolve_round()
        digests.append(_round_digest(plan, channel))
        if capture_at is not None and current == capture_at:
            fault_state = engine.fault_state
            captured = {
                "round": current,
                "transmit_packed": pack_mask(plan.transmit).tolist(),
                "listen_packed": pack_mask(plan.listen).tolist(),
                "adjacency_version": (
                    0 if fault_state is None else fault_state.adjacency_version
                ),
                "digest": digests[-1].hex(),
            }
        engine.complete_round(channel)
        if capture_at is not None and current >= capture_at:
            break
    return digests, captured


def first_divergent_round(active: list[bytes], reference: list[bytes]) -> int | None:
    """Binary-search the longest agreeing prefix; first differing index or None.

    Digest sequences agree on a prefix and (if the backends diverge)
    disagree forever after — once one round's feedback differs, the
    protocols' subsequent masks differ too — so "all of the first ``k``
    rounds agree" is monotone in ``k`` and bisectable.  Replays of
    different lengths with an agreeing common prefix diverge at the
    shorter length (one run ended while the other continued).
    """
    m = min(len(active), len(reference))
    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if active[:mid] == reference[:mid]:
            lo = mid
        else:
            hi = mid - 1
    if lo < m:
        return lo
    return None if len(active) == len(reference) else m


@dataclass(frozen=True)
class BisectOutcome:
    """Result of one bisection: where the backends first disagreed."""

    spec: ReplaySpec
    divergent_round: int | None
    active_rounds: int
    reference_rounds: int


def bisect_run(
    spec: ReplaySpec, *, inject_wrong_at: int | None = None
) -> BisectOutcome:
    """Replay ``spec`` on its backend and the dense reference; locate divergence."""
    active, _ = replay_digests(
        spec, backend=spec.backend, inject_wrong_at=inject_wrong_at
    )
    reference, _ = replay_digests(spec, backend=REFERENCE_BACKEND)
    return BisectOutcome(
        spec=spec,
        divergent_round=first_divergent_round(active, reference),
        active_rounds=len(active),
        reference_rounds=len(reference),
    )


def write_bundle(
    spec: ReplaySpec,
    divergent_round: int,
    out_dir: Path,
    *,
    inject_wrong_at: int | None = None,
) -> Path:
    """Re-replay to the divergent round and dump the repro bundle as JSON."""
    _, active_capture = replay_digests(
        spec,
        backend=spec.backend,
        inject_wrong_at=inject_wrong_at,
        capture_at=divergent_round,
    )
    _, reference_capture = replay_digests(
        spec, backend=REFERENCE_BACKEND, capture_at=divergent_round
    )
    bundle = {
        "schema": BUNDLE_SCHEMA,
        "spec": asdict(spec),
        "reference_backend": REFERENCE_BACKEND,
        "divergent_round": divergent_round,
        "active": active_capture,
        "reference": reference_capture,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (
        f"simsan-bundle-{spec.protocol}-{spec.topology}-n{spec.n}"
        f"-seed{spec.seed}-{spec.backend}-round{divergent_round}.json"
    )
    path.write_text(json.dumps(bundle, indent=2, default=int) + "\n")
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.simsan.bisect",
        description=(
            "Replay a sanitized run on its backend and the dense reference, "
            "binary-search to the first divergent round, and dump a repro "
            "bundle."
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
    if outcome.divergent_round is None:
        print(
            f"no divergence: {spec.backend} and {REFERENCE_BACKEND} agree on "
            f"all {outcome.active_rounds} rounds "
            f"({spec.protocol} on {spec.topology}-{spec.n}, seed {spec.seed})"
        )
        return 0
    bundle = write_bundle(
        spec,
        outcome.divergent_round,
        args.out_dir,
        inject_wrong_at=args.inject_wrong_at,
    )
    print(
        f"first divergent round: {outcome.divergent_round} "
        f"({spec.backend} vs {REFERENCE_BACKEND}, {spec.protocol} on "
        f"{spec.topology}-{spec.n}, seed {spec.seed})"
    )
    print(f"repro bundle: {bundle}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
