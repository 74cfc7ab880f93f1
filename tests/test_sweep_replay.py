"""Exact replay of the committed science records (``BENCH_*.json``).

Every number in a science record is a pure function of the matrix stored
in its header, so re-running a slice of that matrix must reproduce the
stored cells field for field: no tolerance, no noise.  The slice is one
cheap cell per block plus the cell its ``speedup_vs_baseline`` divides
by; ``python -m repro.experiments.sweep --check`` replays whole records.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.sweep import AXES, main, run_matrix

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


def _key(cell: dict) -> str:
    return json.dumps([cell[axis] for axis in AXES])


def _replay(name: str, index: int, cell: dict) -> tuple[dict, dict, list[dict]]:
    """The committed record, its sliced block, and that block's fresh cells."""
    record = json.loads((ROOT / name).read_text())
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
