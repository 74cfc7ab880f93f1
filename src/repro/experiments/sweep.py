"""The science sweep: every exact, seed-determined record from one cell matrix.

A *matrix* is a list of blocks.  Each block is the product of five axes
plus a seed count, a preset and an optional baseline::

    {"protocol": ["decay", "ghk"], "topology": ["line", "grid"],
     "n": [64, 256], "k": [1], "fault": [["none", 0]],
     "seeds": 30, "preset": "fast", "baseline": {"protocol": "decay"}}

``k`` is the message count (``k > 1`` only for protocols that accept the
``k_messages`` option) and ``fault`` lists ``[family, level]`` pairs:
``none`` (level 0), ``crash``/``loss``/``flip`` (a rate in [0, 1]) or
``jam`` (a jammer count).  Seed ``s`` of a block runs on
``from_spec(topology, n, seed=s)``; each network is built once per block
and shared by every cell that uses it.  A faulted run samples its schedule
from its own seed over the protocol's default budget, so every number in
the record is a pure function of the matrix.

Each cell stores exact outcomes only: per-seed ``rounds`` (``null`` for a
failed run), ``failures``, the means over delivered runs of rounds,
transmissions, energy, collisions and budget, the mean source
eccentricity, the fault-total means over all runs (faulted cells only) and
``speedup_vs_baseline``.  The last is ``k·baseline_mean / (k_base·mean)``
against the cell that differs only on the block's baseline axis: GHK over
Decay, k pipelined messages over k single-message broadcasts, or a
fault-free run over a faulted one (below 1 means the faults cost rounds).

The record stores its own matrix, so regenerating or replaying a committed
record needs no flags::

    python -m repro.experiments.sweep BENCH_broadcast.json   # regenerate in place
    python -m repro.experiments.sweep --check BENCH_faults.json   # exit 1 on drift

Input errors (:class:`~repro.errors.AnalysisError`,
:class:`~repro.errors.ConfigurationError`) are found before any simulation
runs and exit 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from repro.errors import AnalysisError, BroadcastFailure, ConfigurationError, TopologyError
from repro.experiments.record import bench_record, resolve_params, write_bench
from repro.sim import runners
from repro.sim.faults import sample_fault_schedule
from repro.sim.runners import run_broadcast_batch
from repro.sim.topology import TOPOLOGY_NAMES, from_spec

__all__ = ["AXES", "FAULT_KNOBS", "check_matrix", "replay_diff", "run_matrix", "main"]

#: A cell's coordinates, outermost first: the order cells appear in a record.
AXES: tuple[str, ...] = ("n", "topology", "protocol", "k", "fault")

#: Fault family -> the :func:`sample_fault_schedule` knob its level sets.
FAULT_KNOBS: dict[str, str] = {
    "crash": "crash_rate",
    "loss": "loss_rate",
    "jam": "jammers",
    "flip": "edge_flip_rate",
}

_FAULT_TOTALS = (
    "dropped_receptions",
    "jammed_listens",
    "crashed_node_rounds",
    "edge_flips_applied",
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_block(block: dict) -> None:
    """Reject a malformed block with :class:`AnalysisError`."""
    unknown = set(block) - {*AXES, "seeds", "preset", "baseline"}
    if unknown:
        raise AnalysisError(f"unknown block keys {sorted(unknown)}")
    for axis in AXES:
        if not isinstance(block.get(axis), list) or not block[axis]:
            raise AnalysisError(f"block axis {axis!r} must be a non-empty list")
    resolve_params(block.get("preset"))
    if not _is_int(block.get("seeds")) or block["seeds"] < 1:
        raise AnalysisError(f"need at least one seed, got seeds={block.get('seeds')!r}")
    for n in block["n"]:
        if not _is_int(n) or n < 1:
            raise AnalysisError(f"need at least one node, got n={n!r}")
    for k in block["k"]:
        if not _is_int(k) or k < 1:
            raise AnalysisError(f"k must be a positive integer, got k={k!r}")
    bad = [t for t in block["topology"] if t not in TOPOLOGY_NAMES]
    if bad:
        raise AnalysisError(f"unknown topologies {bad}; choose from {TOPOLOGY_NAMES}")
    for protocol in block["protocol"]:
        if protocol not in runners.BROADCAST_PROTOCOL_NAMES:
            raise AnalysisError(
                f"unknown protocol {protocol!r}; "
                f"choose from {runners.BROADCAST_PROTOCOL_NAMES}"
            )
        spec = runners.broadcast_spec(protocol)
        if "k_messages" not in spec.option_names and max(block["k"]) > 1:
            raise AnalysisError(f"{protocol} sends one message; it cannot take k > 1")
    for fault in block["fault"]:
        family, level = fault if isinstance(fault, list) and len(fault) == 2 else (None, None)
        number = isinstance(level, (int, float)) and not isinstance(level, bool)
        if family == "none":
            ok = number and level == 0
        elif family == "jam":
            ok = _is_int(level) and 0 <= level < min(block["n"])
        elif family in FAULT_KNOBS:
            ok = number and 0 <= level <= 1
        else:
            raise AnalysisError(
                f"fault {fault!r} is not [family, level] with family in "
                f"{['none', *FAULT_KNOBS]}"
            )
        if not ok:
            raise AnalysisError(
                f"bad {family} level {level!r}: jam takes a jammer count below n, "
                "crash/loss/flip a rate in [0, 1], none only 0"
            )
    baseline = block.get("baseline")
    if baseline is not None and not (
        isinstance(baseline, dict)
        and len(baseline) == 1
        and all(axis in AXES and value in block[axis] for axis, value in baseline.items())
    ):
        raise AnalysisError(
            f"baseline {baseline!r} must name one axis and one of that axis' values"
        )


def _networks(block: dict) -> dict:
    """Every ``(topology, n)`` network list of a block, one network per seed."""
    try:
        return {
            (topology, n): [
                from_spec(topology, n, seed=seed) for seed in range(block["seeds"])
            ]
            for n in block["n"]
            for topology in block["topology"]
        }
    except TopologyError as exc:
        raise AnalysisError(f"cannot build a block network: {exc}") from exc


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _run_cell(cell: dict, nets: list, params) -> dict:
    """Run one cell's seed batch and fill in its exact outcomes."""
    family, level = cell["fault"]
    spec = runners.broadcast_spec(cell["protocol"])
    options = {"k_messages": cell["k"]} if "k_messages" in spec.option_names else {}
    schedules = None
    if family != "none":
        knob = FAULT_KNOBS[family]
        schedules = [
            sample_fault_schedule(
                net,
                seed=seed,
                horizon=spec.budget_for(params, net, net.n, options),
                **{knob: level if family == "jam" else float(level)},
            )
            for seed, net in enumerate(nets)
        ]
    batch = run_broadcast_batch(
        cell["protocol"], nets, params=params, options=options or None, faults=schedules
    )
    done = [r for r in batch if not isinstance(r, BroadcastFailure)]
    cell.update(
        failures=len(batch) - len(done),
        rounds=[
            None if isinstance(r, BroadcastFailure) else r.rounds_to_delivery
            for r in batch
        ],
        rounds_mean=_mean(r.rounds_to_delivery for r in done),
        transmissions_mean=_mean(r.sim.total_transmissions for r in done),
        energy_mean=_mean(r.sim.traffic.energy for r in done),
        collisions_mean=_mean(r.sim.total_collisions for r in done),
        budget_mean=_mean(r.budget for r in done),
        source_eccentricity_mean=_mean(net.eccentricity() for net in nets),
        speedup_vs_baseline=None,
    )
    if schedules is not None:
        cell["fault_totals_mean"] = {
            name: _mean(getattr(r.sim.faults, name) for r in batch)
            for name in _FAULT_TOTALS
        }
    return cell


def _key(cell: dict) -> tuple:
    return tuple(
        tuple(cell[axis]) if axis == "fault" else cell[axis] for axis in AXES
    )


def _run_block(block: dict, networks: dict) -> list[dict]:
    params = resolve_params(block["preset"])
    cells = []
    for values in itertools.product(*(block[axis] for axis in AXES)):
        cell = dict(zip(AXES, values))
        cells.append(_run_cell(cell, networks[cell["topology"], cell["n"]], params))
    if block.get("baseline"):
        # Ratios are filled in after the whole block ran, so the baseline
        # cell is found whatever order the axis values are listed in.
        axis, value = next(iter(block["baseline"].items()))
        means = {_key(cell): cell["rounds_mean"] for cell in cells}
        for cell in cells:
            base, mean = means[_key({**cell, axis: value})], cell["rounds_mean"]
            if base and mean:
                k_base = value if axis == "k" else cell["k"]
                cell["speedup_vs_baseline"] = cell["k"] * base / (k_base * mean)
    return cells


def check_matrix(matrix: list[dict]) -> None:
    """Reject a malformed matrix with :class:`AnalysisError`, running nothing."""
    if not isinstance(matrix, list) or not matrix:
        raise AnalysisError("a matrix is a non-empty list of blocks")
    for block in matrix:
        if not isinstance(block, dict):
            raise AnalysisError(f"a block is a JSON object, got {block!r}")
        _check_block(block)


def run_matrix(matrix: list[dict]) -> dict:
    """Run every block of ``matrix`` and return the science record.

    The whole matrix is validated, and every network built, before the
    first simulation runs.  A :class:`~repro.errors.BroadcastFailure` is
    counted in its cell, never raised.
    """
    check_matrix(matrix)
    networks = [_networks(block) for block in matrix]
    results = [
        cell
        for block, nets in zip(matrix, networks)
        for cell in _run_block(block, nets)
    ]
    return bench_record("sweep", matrix=matrix, results=results)


def _label(cell: dict) -> str:
    family, level = cell["fault"]
    return (
        f"{cell['protocol']} {cell['topology']} n={cell['n']} k={cell['k']} "
        f"{family}={level}"
    )


def replay_diff(record: dict) -> str | None:
    """Re-run a record's own matrix; describe the first differing field, if any."""
    if "results" not in record:
        raise AnalysisError("--check needs a record (matrix plus results)")
    stored = record["results"]
    fresh = json.loads(json.dumps(run_matrix(record["matrix"])["results"]))
    if len(stored) != len(fresh):
        return f"{len(stored)} stored cells, {len(fresh)} replayed"
    for old, new in zip(stored, fresh):
        for field in dict.fromkeys([*old, *new]):
            if old.get(field) != new.get(field):
                return (
                    f"cell [{_label(new)}] field {field!r}: "
                    f"stored {old.get(field)!r}, replayed {new.get(field)!r}"
                )
    return None


def _load(path: str) -> dict:
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    return spec if isinstance(spec, dict) else {"matrix": spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description="Run (or replay with --check) the science sweep of each "
        "record or matrix file.",
    )
    parser.add_argument(
        "inputs",
        nargs="+",
        metavar="RECORD_OR_MATRIX",
        help="a record, or a JSON matrix (a list of blocks)",
    )
    parser.add_argument(
        "--out", help="write the record here instead of over its input (one input only)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="replay each record's matrix; exit 1 naming the first cell that differs",
    )
    args = parser.parse_args(argv)
    if args.out and (args.check or len(args.inputs) > 1):
        parser.error("--out takes exactly one input and no --check")
    try:
        specs = {path: _load(path) for path in args.inputs}
        for spec in specs.values():
            check_matrix(spec.get("matrix"))
        for path, spec in specs.items():
            if args.check:
                diff = replay_diff(spec)
                if diff:
                    print(f"{path}: REPLAY MISMATCH at {diff}", file=sys.stderr)
                    return 1
                print(f"{path}: all {len(spec['results'])} cells replay exactly")
                continue
            record = run_matrix(spec.get("matrix"))
            for cell in record["results"]:
                ratio = cell["speedup_vs_baseline"]
                extra = f" speedup-vs-baseline={ratio:.2f}x" if ratio else ""
                mean = cell["rounds_mean"]
                print(
                    f"{_label(cell)}: mean rounds="
                    f"{'-' if mean is None else round(mean, 2)} "
                    f"failures={cell['failures']}/{len(cell['rounds'])}{extra}"
                )
            print(f"wrote {write_bench(record, args.out or path)}")
    except (AnalysisError, ConfigurationError) as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
