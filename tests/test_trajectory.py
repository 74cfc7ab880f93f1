"""The trajectory report must follow a record across commits faithfully."""

import json
import subprocess

import pytest

from repro.errors import AnalysisError
from repro.experiments import trajectory
from repro.experiments.record import SCHEMA_VERSION, bench_record
from repro.experiments.trajectory import (
    build_trajectory,
    harvest_history,
    record_metrics,
)


class TestRecordMetrics:
    def test_engine_record(self):
        record = bench_record(
            "engine",
            results=[
                {
                    "protocol": "ghk",
                    "topology": "grid",
                    "n": 256,
                    "object": {"rounds_per_sec": 1500.0},
                    "array": {"rounds_per_sec": 7000.0},
                    "speedup_rounds_per_sec": 4.67,
                }
            ],
        )
        assert record_metrics(record) == {
            "ghk/grid/n=256/object_rounds_per_sec": 1500.0,
            "ghk/grid/n=256/array_rounds_per_sec": 7000.0,
            "ghk/grid/n=256/speedup": 4.67,
        }

    def test_scale_record_skips_skipped_cells(self):
        record = bench_record(
            "scale",
            results=[
                {
                    "topology": "line",
                    "n": 1024,
                    "backend": "sparse",
                    "rounds_per_sec": 8000.0,
                    "peak_mib": 1.5,
                    "speedup_vs_dense": 6.7,
                },
                {"topology": "line", "n": 16384, "backend": "dense", "skipped": "x"},
            ],
        )
        metrics = record_metrics(record)
        assert metrics["line/n=1024/sparse/rounds_per_sec"] == 8000.0
        assert metrics["line/n=1024/sparse/peak_mib"] == 1.5
        assert metrics["line/n=1024/sparse/speedup_vs_dense"] == 6.7
        assert not any("16384" in key for key in metrics)

    def test_broadcast_and_multimessage_records(self):
        cell = {
            "topology": "grid",
            "protocol": "ghk",
            "n": 64,
            "k": 1,
            "fault": ["none", 0],
            "failures": 0,
            "rounds_mean": 30.5,
            "energy_mean": 900.0,
            "speedup_vs_baseline": 1.4,
        }
        pipelined = dict(
            cell, protocol="multimessage", topology="line", k=4,
            rounds_mean=120.0, speedup_vs_baseline=2.1,
        )
        metrics = record_metrics(bench_record("sweep", results=[cell, pipelined]))
        assert metrics["ghk/grid/n=64/k=1/none=0/rounds_mean"] == 30.5
        assert metrics["ghk/grid/n=64/k=1/none=0/energy_mean"] == 900.0
        assert metrics["ghk/grid/n=64/k=1/none=0/speedup_vs_baseline"] == 1.4
        assert metrics["multimessage/line/n=64/k=4/none=0/rounds_mean"] == 120.0
        assert metrics["multimessage/line/n=64/k=4/none=0/speedup_vs_baseline"] == 2.1
        # Pre-sweep science snapshots are unknown kinds: no metrics.
        assert record_metrics({"bench": "broadcast", "results": [cell]}) == {}

    def test_unknown_bench_yields_no_metrics(self):
        assert record_metrics({"bench": "mystery", "results": [{"x": 1}]}) == {}


@pytest.fixture
def bench_repo(tmp_path):
    """A throwaway git repo with two committed versions of one record."""
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    path = tmp_path / "BENCH_engine.json"
    versions = []
    for rps in (5000.0, 7000.0):
        record = bench_record(
            "engine",
            results=[
                {
                    "protocol": "ghk",
                    "topology": "grid",
                    "n": 256,
                    "array": {"rounds_per_sec": rps},
                }
            ],
        )
        path.write_text(json.dumps(record) + "\n")
        git("add", "BENCH_engine.json")
        git("commit", "-q", "-m", f"record at {rps}")
        versions.append(rps)
    return tmp_path, path, versions


class TestHarvestHistory:
    def test_snapshots_are_oldest_first(self, bench_repo):
        repo, path, versions = bench_repo
        history = harvest_history(path, repo)
        assert len(history) == 2
        key = "ghk/grid/n=256/array_rounds_per_sec"
        assert [s["metrics"][key] for s in history] == versions
        assert all(s["commit"] for s in history)
        assert all(s["schema_version"] == SCHEMA_VERSION for s in history)

    def test_dirty_worktree_appends_snapshot(self, bench_repo):
        repo, path, _ = bench_repo
        record = json.loads(path.read_text())
        record["results"][0]["array"]["rounds_per_sec"] = 9000.0
        path.write_text(json.dumps(record) + "\n")
        history = harvest_history(path, repo)
        assert len(history) == 3
        assert history[-1]["commit"] is None
        key = "ghk/grid/n=256/array_rounds_per_sec"
        assert history[-1]["metrics"][key] == 9000.0

    def test_unparsable_committed_blob_is_skipped_not_fatal(self, bench_repo, tmp_path):
        repo, path, _ = bench_repo
        path.write_text("{broken")
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t",
             "add", "BENCH_engine.json"],
            cwd=repo, check=True, capture_output=True,
        )
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t",
             "commit", "-q", "-m", "corrupt"],
            cwd=repo, check=True, capture_output=True,
        )
        history = harvest_history(path, repo)
        assert "skipped" in history[-1]
        assert "metrics" in history[0]

    def test_record_outside_repo_root_is_an_error(self, bench_repo, tmp_path):
        repo, _, _ = bench_repo
        outside = tmp_path.parent / "elsewhere.json"
        with pytest.raises(AnalysisError, match="outside"):
            harvest_history(outside, repo)


class TestBuildTrajectory:
    def test_report_shape(self, bench_repo):
        repo, _, _ = bench_repo
        report = build_trajectory(("BENCH_engine.json",), repo)
        assert report["report"] == "trajectory"
        assert set(report["records"]) == {"BENCH_engine.json"}

    def test_missing_records_are_an_error(self, bench_repo):
        repo, _, _ = bench_repo
        with pytest.raises(AnalysisError, match="no history"):
            build_trajectory(("BENCH_nothing.json",), repo)
        with pytest.raises(AnalysisError, match="at least one"):
            build_trajectory((), repo)


class TestMain:
    def test_cli_prints_movers_and_writes_report(self, bench_repo, capsys):
        repo, _, _ = bench_repo
        out = repo / "TRAJECTORY.json"
        code = trajectory.main(
            [
                "--records", "BENCH_engine.json",
                "--repo-root", str(repo),
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "2 snapshot(s)" in printed
        assert "5000.0 -> 7000.0" in printed
        report = json.loads(out.read_text())
        assert len(report["records"]["BENCH_engine.json"]) == 2

    def test_cli_error_on_missing_record(self, tmp_path, capsys):
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        code = trajectory.main(
            ["--records", "BENCH_none.json", "--repo-root", str(tmp_path)]
        )
        assert code == 2
        assert "trajectory error" in capsys.readouterr().err

    def test_against_this_repository(self):
        # The repo's own committed records must harvest cleanly.
        report = build_trajectory(repo_root=".")
        assert report["records"]
        for history in report["records"].values():
            assert any(s.get("metrics") for s in history)
