"""Exact replay of the committed records (``BENCH_*.json``).

Every number in a science record is a pure function of the matrix stored
in its header, so re-running a slice of that matrix must reproduce the
stored cells field for field: no tolerance, no noise.  The slice is one
cheap cell per block plus the cell its ``speedup_vs_baseline`` divides
by; ``python -m repro.experiments.sweep --check`` replays whole records.

The speed records replay their seed-determined fields the same way: the
rounds, completions and per-seed delivery rounds of every
``BENCH_engine.json`` and small ``BENCH_scale.json`` cell, and the edge
counts and operand sizes of the small ``BENCH_kernel.json`` cells.  Their
timings and memory peaks are machine-dependent and are not checked.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.record import resolve_params
from repro.experiments.scale_bench import batch_outcome
from repro.experiments.sweep import AXES, main, run_matrix
from repro.sim.core import BitOperand, SparseOperand
from repro.sim.runners import run_broadcast_batch
from repro.sim.topology import from_spec

ROOT = Path(__file__).resolve().parent.parent

#: (record, block index, the cell's axis values that differ from the block's
#: first value) — one cheap cell per block.
SUBSAMPLE = [
    ("BENCH_broadcast.json", 0, {"protocol": "ghk", "topology": "grid", "n": 64}),
    ("BENCH_multimessage.json", 0, {"topology": "grid", "k": 4}),
    ("BENCH_faults.json", 0, {"protocol": "ghk", "fault": ["loss", 0.1]}),
    ("BENCH_faults.json", 1, {"fault": ["loss", 0.1]}),
]


def _slice(block: dict, cell: dict) -> dict:
    """The smallest block that still computes ``cell`` and its baseline."""
    sliced = {**block, **{axis: [block[axis][0]] for axis in AXES}}
    for axis, value in cell.items():
        sliced[axis] = [value]
    for axis, value in block.get("baseline", {}).items():
        if value not in sliced[axis]:
            sliced[axis] = [value, *sliced[axis]]
    return sliced


def _record(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def _key(cell: dict) -> str:
    return json.dumps([cell[axis] for axis in AXES])


def _replay(name: str, index: int, cell: dict) -> tuple[dict, dict, list[dict]]:
    """The committed record, its sliced block, and that block's fresh cells."""
    record = _record(name)
    assert record["bench"] == "sweep"
    block = _slice(record["matrix"][index], cell)
    fresh = json.loads(json.dumps(run_matrix([block])["results"]))
    return record, block, fresh


@pytest.mark.parametrize(("name", "index", "cell"), SUBSAMPLE)
def test_committed_cells_replay_exactly(name, index, cell):
    record, _, fresh = _replay(name, index, cell)
    stored = {_key(entry): entry for entry in record["results"]}
    assert len(fresh) == 2  # the cell and its baseline
    for entry in fresh:
        assert entry == stored[_key(entry)], entry


def test_check_names_the_cell_of_an_edited_record(tmp_path, capsys):
    record, block, fresh = _replay(*SUBSAMPLE[0])
    stored = {_key(entry): entry for entry in record["results"]}
    copy = {**record, "matrix": [block], "results": [stored[_key(e)] for e in fresh]}
    path = tmp_path / "BENCH_broadcast.json"
    path.write_text(json.dumps(copy))
    assert main(["--check", str(path)]) == 0

    copy["results"][-1]["rounds"][3] += 1  # one seed of the ghk cell
    path.write_text(json.dumps(copy))
    assert main(["--check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "REPLAY MISMATCH" in err
    assert "ghk grid n=64 k=1 none=0" in err
    assert "'rounds'" in err


#: (record, largest n replayed): every scale-bench cell up to that size.
SPEED_RECORDS = [("BENCH_engine.json", 256), ("BENCH_scale.json", 1024)]

SPEED_CELLS = sorted(
    {
        (name, entry["protocol"], entry["topology"], entry["n"])
        for name, max_n in SPEED_RECORDS
        for entry in _record(name)["results"]
        if entry["n"] <= max_n
    }
)


def test_engine_record_keeps_its_totals():
    record = _record("BENCH_engine.json")
    assert record["bench"] == "scale"
    totals = {e["protocol"]: (e["rounds"], e["completed"]) for e in record["results"]}
    assert totals == {"decay": (7146, 30), "ghk": (1537, 30)}


@pytest.mark.parametrize(("name", "protocol", "topology", "n"), SPEED_CELLS)
def test_speed_cells_replay_exactly(name, protocol, topology, n):
    record = _record(name)
    entries = [
        e
        for e in record["results"]
        if (e["protocol"], e["topology"], e["n"]) == (protocol, topology, n)
        and "skipped" not in e
    ]
    assert entries
    seeds = record["seeds"]
    nets = [from_spec(topology, n, seed=seed) for seed in range(seeds)]
    # The backends are bit-identical (test_sparse_equivalence,
    # test_bitpacked_equivalence), so one sparse run replays every entry.
    batch = run_broadcast_batch(
        protocol, nets, seeds=range(seeds),
        params=resolve_params(record["preset"], "sparse"),
    )
    fresh = {"edges": nets[0].num_edges, **batch_outcome(batch)}
    for entry in entries:
        assert {key: entry[key] for key in fresh} == fresh, entry["backend"]
        assert entry.get("results_match_dense", True) is True, entry["backend"]


def _nbytes(operand) -> int:
    """Bytes of every array an operand holds."""
    slots = (getattr(operand, slot) for slot in type(operand).__slots__)
    return sum(value.nbytes for value in slots if isinstance(value, np.ndarray))


@pytest.mark.parametrize(
    "n", [n for n in _record("BENCH_kernel.json")["sizes"] if n <= 4096]
)
def test_kernel_operand_sizes_replay_exactly(n):
    record = _record("BENCH_kernel.json")
    net = from_spec(record["topology"], n, seed=record["seed"])
    nbytes = {
        "dense": 8 * n * n,  # float64 n×n; not built
        "sparse": _nbytes(SparseOperand(*net.csr())),
        "bitpacked": _nbytes(BitOperand(*net.csr())),
    }
    entries = [e for e in record["results"] if e["n"] == n]
    assert {e["backend"] for e in entries} == set(nbytes)
    for entry in entries:
        assert entry["edges"] == net.num_edges
        assert entry["operand_mib"] == round(
            nbytes[entry["backend"]] / (1 << 20), 3
        ), entry["backend"]
