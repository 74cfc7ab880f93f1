"""Tests for the sweep harnesses and their bench records."""

import json
from typing import ClassVar

import pytest

from repro.errors import AnalysisError
from repro.experiments import (
    DEFAULT_K_VALUES,
    DEFAULT_TOPOLOGIES,
    bench_engines,
    bench_kernel,
    bench_scale,
    merge_records,
    sweep_broadcast,
    sweep_multimessage,
    write_bench,
)
from repro.experiments.broadcast_bench import main
from repro.experiments.record import SCHEMA_VERSION
from repro.experiments.engine_bench import main as engine_main
from repro.experiments.multimessage_bench import main as multimessage_main
from repro.experiments.kernel_bench import _operand_bytes
from repro.experiments.kernel_bench import main as kernel_main
from repro.experiments.scale_bench import main as scale_main
from repro.sim.core import BitOperand, SparseOperand
from repro.sim.topology import from_spec


class TestSweep:
    @pytest.fixture(scope="class")
    def record(self):
        return sweep_broadcast(
            topologies=("line", "gnp"), n=16, seeds=3, preset="fast"
        )

    def test_record_header(self, record):
        assert record["bench"] == "broadcast"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["paper"] == "conf_podc_GhaffariHK13"
        assert record["n"] == 16
        assert record["seeds"] == 3
        assert record["topologies"] == ["line", "gnp"]
        assert record["protocols"] == ["decay", "ghk"]
        assert "created_utc" in record

    def test_entries_carry_traffic_and_sweep_telemetry(self, record):
        for entry in record["results"]:
            assert entry["sweep_seconds"] >= 0.0
            if "rounds" in entry:
                assert entry["energy_mean"] > 0
                assert entry["collisions_mean"] >= 0

    def test_one_entry_per_family_protocol_pair(self, record):
        keys = {(e["topology"], e["protocol"]) for e in record["results"]}
        assert keys == {(t, p) for t in ("line", "gnp") for p in ("decay", "ghk")}

    def test_entries_aggregate_the_full_batch(self, record):
        for entry in record["results"]:
            assert entry["runs"] == 3
            assert entry["failures"] == 0
            rounds = entry["rounds"]
            assert rounds["min"] <= rounds["median"] <= rounds["max"]
            assert len(entry["rounds_all"]) == 3
            assert entry["transmissions_mean"] > 0

    def test_ghk_entries_carry_speedup(self, record):
        ghk = [e for e in record["results"] if e["protocol"] == "ghk"]
        assert all("speedup_vs_decay" in e for e in ghk)
        line_entry = next(e for e in ghk if e["topology"] == "line")
        assert line_entry["speedup_vs_decay"] > 1

    def test_default_topology_suite_is_the_issue_suite(self):
        assert DEFAULT_TOPOLOGIES == (
            "line",
            "ring",
            "grid",
            "gnp",
            "dumbbell",
            "unit_disk",
        )


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(AnalysisError, match="at least one node"):
            sweep_broadcast(n=0)
        with pytest.raises(AnalysisError, match="at least one seed"):
            sweep_broadcast(seeds=0)

    def test_rejects_unknown_names(self):
        with pytest.raises(AnalysisError, match="unknown topologies"):
            sweep_broadcast(topologies=("moebius",))
        with pytest.raises(AnalysisError, match="unknown protocols"):
            sweep_broadcast(protocols=("gossip",))
        with pytest.raises(AnalysisError, match="unknown preset"):
            sweep_broadcast(preset="slow")

    def test_rejects_unbuildable_family_size(self):
        with pytest.raises(AnalysisError, match="cannot build"):
            sweep_broadcast(topologies=("ring",), n=2, seeds=1)


class TestCLI:
    def test_writes_valid_json_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_broadcast.json"
        rc = main(
            ["--n", "12", "--seeds", "2", "--topologies", "line", "--out", str(out)]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "broadcast"
        assert len(record["results"]) == 2
        stdout = capsys.readouterr().out
        assert "speedup-vs-decay" in stdout
        assert str(out) in stdout

    def test_reports_sweep_errors(self, tmp_path, capsys):
        rc = main(["--n", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "sweep error" in capsys.readouterr().err

    def test_write_bench_roundtrip(self, tmp_path):
        path = write_bench({"bench": "broadcast", "results": []}, tmp_path / "b.json")
        assert json.loads(path.read_text()) == {"bench": "broadcast", "results": []}

    def test_multi_size_sweep_merges_into_one_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_broadcast.json"
        rc = main(
            ["--n", "12", "16", "--seeds", "2", "--topologies", "line", "--out", str(out)]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["n"] == [12, 16]
        assert [e["n"] for e in record["results"]] == [12, 12, 16, 16]
        stdout = capsys.readouterr().out
        assert "n=12" in stdout and "n=16" in stdout


class TestMergeRecords:
    def test_single_record_keeps_scalar_n(self):
        record = {"n": 8, "results": [{"n": 8}]}
        assert merge_records([record])["n"] == 8

    def test_empty_input_rejected(self):
        with pytest.raises(AnalysisError, match="at least one"):
            merge_records([])

    HEADER: ClassVar[dict] = {
        "bench": "broadcast",
        "paper": "conf_podc_GhaffariHK13",
        "preset": "fast",
        "seeds": 2,
        "protocols": ["decay", "ghk"],
        "topologies": ["line"],
    }

    def test_merges_records_with_matching_headers(self):
        a = dict(self.HEADER, n=8, results=[{"n": 8}])
        b = dict(self.HEADER, n=16, results=[{"n": 16}])
        merged = merge_records([a, b])
        assert merged["n"] == [8, 16]
        assert merged["preset"] == "fast"
        assert [entry["n"] for entry in merged["results"]] == [8, 16]

    @pytest.mark.parametrize(
        ("key", "other"),
        [
            ("preset", "paper"),
            ("seeds", 30),
            ("protocols", ["decay"]),
            ("topologies", ["line", "grid"]),
        ],
    )
    def test_mismatched_headers_rejected(self, key, other):
        # Regression: the merged record used to take the first record's
        # header even when sub-records disagreed, silently misdescribing
        # the merged data.
        a = dict(self.HEADER, n=8, results=[])
        b = dict(self.HEADER, n=16, results=[], **{key: other})
        with pytest.raises(AnalysisError, match=f"mismatched {key!r}"):
            merge_records([a, b])

    def test_mismatch_detected_beyond_the_first_pair(self):
        a = dict(self.HEADER, n=8, results=[])
        b = dict(self.HEADER, n=16, results=[])
        c = dict(self.HEADER, n=32, results=[], preset="paper")
        with pytest.raises(AnalysisError, match="record 2"):
            merge_records([a, b, c])

    def test_missing_header_key_counts_as_mismatch(self):
        a = dict(self.HEADER, n=8, results=[])
        b = dict(self.HEADER, n=16, results=[])
        del b["preset"]
        with pytest.raises(AnalysisError, match="mismatched 'preset'"):
            merge_records([a, b])


class TestEngineBench:
    @pytest.fixture(scope="class")
    def record(self):
        return bench_engines(n=16, seeds=2, topology="line", preset="fast")

    def test_record_header(self, record):
        assert record["bench"] == "engine"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["paper"] == "conf_podc_GhaffariHK13"
        assert record["topology"] == "line"
        assert record["protocols"] == ["decay", "ghk"]

    def test_paths_execute_identical_rounds(self, record):
        for entry in record["results"]:
            assert "paths_diverged" not in entry
            assert entry["object"]["rounds"] == entry["array"]["rounds"]
            assert entry["object"]["completed"] == entry["array"]["completed"]
            assert entry["object"]["rounds"] > 0
            assert entry["speedup_rounds_per_sec"] > 0

    def test_array_entries_carry_phase_timers(self, record):
        for entry in record["results"]:
            phases = entry["array"]["phase_seconds"]
            assert set(phases) == {"act", "channel", "feedback"}
            assert all(v >= 0.0 for v in phases.values())

    def test_validation(self):
        with pytest.raises(AnalysisError, match="at least one node"):
            bench_engines(n=0)
        with pytest.raises(AnalysisError, match="at least one seed"):
            bench_engines(seeds=0)
        with pytest.raises(AnalysisError, match="unknown topology"):
            bench_engines(topology="moebius")
        with pytest.raises(AnalysisError, match="unknown protocols"):
            bench_engines(protocols=("gossip",))
        with pytest.raises(AnalysisError, match="unknown preset"):
            bench_engines(preset="slow")
        with pytest.raises(AnalysisError, match="cannot build"):
            bench_engines(n=2, topology="ring")

    def test_cli_writes_record_and_smoke_ceiling_passes(self, tmp_path, capsys):
        out = tmp_path / "BENCH_engine.json"
        rc = engine_main(
            [
                "--n", "12", "--seeds", "2", "--topology", "line",
                "--protocols", "decay", "--out", str(out), "--max-seconds", "120",
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["results"][0]["protocol"] == "decay"
        stdout = capsys.readouterr().out
        assert "smoke OK" in stdout
        assert str(out) in stdout

    def test_cli_smoke_ceiling_failure(self, tmp_path, capsys):
        rc = engine_main(
            [
                "--n", "12", "--seeds", "2", "--topology", "line",
                "--protocols", "decay", "--out", str(tmp_path / "b.json"),
                "--max-seconds", "0",
            ]
        )
        assert rc == 1
        assert "SMOKE FAIL" in capsys.readouterr().err

    def test_cli_reports_bench_errors(self, tmp_path, capsys):
        rc = engine_main(["--n", "0", "--out", str(tmp_path / "b.json")])
        assert rc == 2
        assert "bench error" in capsys.readouterr().err


class TestMultiMessageBench:
    @pytest.fixture(scope="class")
    def record(self):
        return sweep_multimessage(
            topologies=("line", "grid"), k_values=(1, 2), n=16, seeds=3, preset="fast"
        )

    def test_record_header(self, record):
        assert record["bench"] == "multimessage"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["paper"] == "conf_podc_GhaffariHK13"
        assert record["n"] == 16
        assert record["seeds"] == 3
        assert record["k_values"] == [1, 2]
        assert record["protocols"] == ["multimessage"]
        assert record["topologies"] == ["line", "grid"]
        assert "created_utc" in record

    def test_one_entry_per_family_k_pair(self, record):
        keys = {(e["topology"], e["k_messages"]) for e in record["results"]}
        assert keys == {(t, k) for t in ("line", "grid") for k in (1, 2)}

    def test_entries_aggregate_the_full_batch(self, record):
        for entry in record["results"]:
            assert entry["protocol"] == "multimessage"
            assert entry["runs"] == 3
            assert entry["failures"] == 0
            rounds = entry["rounds"]
            assert rounds["min"] <= rounds["median"] <= rounds["max"]
            assert len(entry["rounds_all"]) == 3
            assert entry["transmissions_mean"] > 0

    def test_k_above_one_entries_carry_pipelining_speedup(self, record):
        for entry in record["results"]:
            if entry["k_messages"] == 1:
                assert "pipelining_speedup" not in entry
            else:
                assert entry["pipelining_speedup"] > 0

    def test_default_axes(self):
        assert DEFAULT_K_VALUES == (1, 4, 16)

    def test_validation(self):
        with pytest.raises(AnalysisError, match="at least one node"):
            sweep_multimessage(n=0)
        with pytest.raises(AnalysisError, match="at least one seed"):
            sweep_multimessage(seeds=0)
        with pytest.raises(AnalysisError, match="at least one k"):
            sweep_multimessage(k_values=())
        with pytest.raises(AnalysisError, match="positive integers"):
            sweep_multimessage(k_values=(1, 0))
        with pytest.raises(AnalysisError, match="unknown topologies"):
            sweep_multimessage(topologies=("moebius",))
        with pytest.raises(AnalysisError, match="unknown preset"):
            sweep_multimessage(preset="slow")
        with pytest.raises(AnalysisError, match="cannot build"):
            sweep_multimessage(topologies=("ring",), n=2, seeds=1)

    def test_cli_writes_valid_json_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_multimessage.json"
        rc = multimessage_main(
            ["--n", "12", "--seeds", "2", "--k", "1", "2", "--topologies", "line",
             "--out", str(out)]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "multimessage"
        assert len(record["results"]) == 2
        stdout = capsys.readouterr().out
        assert "pipelining-speedup" in stdout
        assert str(out) in stdout

    def test_cli_multi_size_merges(self, tmp_path, capsys):
        out = tmp_path / "BENCH_multimessage.json"
        rc = multimessage_main(
            ["--n", "12", "16", "--seeds", "2", "--k", "1", "--topologies", "line",
             "--out", str(out)]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["n"] == [12, 16]
        assert [e["n"] for e in record["results"]] == [12, 16]

    def test_cli_reports_sweep_errors(self, tmp_path, capsys):
        rc = multimessage_main(["--n", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "sweep error" in capsys.readouterr().err

    def test_pipelining_speedup_is_k_order_independent(self):
        # Regression: the baseline used to be picked up only if k=1 was
        # processed first, so a reordered --k axis silently dropped the
        # record's headline metric.
        record = sweep_multimessage(
            topologies=("line",), k_values=(2, 1), n=12, seeds=2, preset="fast"
        )
        by_k = {entry["k_messages"]: entry for entry in record["results"]}
        assert "pipelining_speedup" in by_k[2]
        assert "pipelining_speedup" not in by_k[1]


class TestScaleBench:
    @pytest.fixture(scope="class")
    def record(self):
        return bench_scale(
            sizes=(16, 32), topologies=("line", "grid"), seeds=2, preset="fast"
        )

    def test_record_header(self, record):
        assert record["bench"] == "scale"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["paper"] == "conf_podc_GhaffariHK13"
        assert record["sizes"] == [16, 32]
        assert record["backends"] == ["dense", "sparse"]
        assert record["protocol"] == "ghk"

    def test_one_entry_per_family_size_backend(self, record):
        keys = {(e["topology"], e["n"], e["backend"]) for e in record["results"]}
        assert len(keys) == len(record["results"]) == 2 * 2 * 2

    def test_executed_cells_report_throughput_and_memory(self, record):
        for entry in record["results"]:
            assert "skipped" not in entry  # nothing hits ceilings this small
            assert entry["rounds"] > 0
            assert entry["rounds_per_sec"] > 0
            assert entry["peak_mib"] > 0
            assert entry["completed"] == entry["runs"] == 2

    def test_sparse_entries_certify_equivalence_with_dense(self, record):
        sparse = [e for e in record["results"] if e["backend"] == "sparse"]
        assert sparse
        for entry in sparse:
            assert entry["results_match_dense"] is True
            assert "speedup_vs_dense" in entry
            assert "memory_ratio_vs_dense" in entry

    def test_memory_ceiling_skips_dense_cells(self):
        record = bench_scale(
            sizes=(24,),
            topologies=("line",),
            seeds=1,
            max_dense_bytes=0,  # every dense cell exceeds a zero ceiling
        )
        by_backend = {e["backend"]: e for e in record["results"]}
        assert "skipped" in by_backend["dense"]
        assert "MiB ceiling" in by_backend["dense"]["skipped"]
        # The sparse cell still runs — that is the whole point.
        assert by_backend["sparse"]["rounds"] > 0
        assert "results_match_dense" not in by_backend["sparse"]

    def test_bitpacked_entries_certify_equivalence_with_dense(self):
        record = bench_scale(
            sizes=(24,),
            topologies=("grid",),
            seeds=1,
            backends=("dense", "sparse", "bitpacked"),
        )
        by_backend = {e["backend"]: e for e in record["results"]}
        assert by_backend["bitpacked"]["results_match_dense"] is True
        assert "speedup_vs_dense" in by_backend["bitpacked"]
        assert "memory_ratio_vs_dense" in by_backend["bitpacked"]

    def test_memory_ceiling_also_skips_bitpacked_cells(self):
        record = bench_scale(
            sizes=(24,),
            topologies=("line",),
            seeds=1,
            backends=("sparse", "bitpacked"),
            max_dense_bytes=0,  # packed operand also exceeds a zero ceiling
        )
        by_backend = {e["backend"]: e for e in record["results"]}
        assert "MiB ceiling" in by_backend["bitpacked"]["skipped"]
        assert by_backend["sparse"]["rounds"] > 0

    def test_time_ceiling_skips_larger_sizes(self):
        record = bench_scale(
            sizes=(16, 32),
            topologies=("line",),
            seeds=1,
            backends=("sparse",),
            max_cell_seconds=0.0,  # everything exceeds a zero ceiling
        )
        small, large = record["results"]
        assert small["n"] == 16 and "rounds" in small
        assert large["n"] == 32 and "cell ceiling at n=16" in large["skipped"]

    def test_validation(self):
        with pytest.raises(AnalysisError, match="sizes"):
            bench_scale(sizes=(0,))
        with pytest.raises(AnalysisError, match="seed"):
            bench_scale(sizes=(8,), seeds=0)
        with pytest.raises(AnalysisError, match="topologies"):
            bench_scale(sizes=(8,), topologies=("torus",))
        with pytest.raises(AnalysisError, match="backends"):
            bench_scale(sizes=(8,), backends=("csr",))
        with pytest.raises(AnalysisError, match="protocol"):
            bench_scale(sizes=(8,), protocol="gossip")
        with pytest.raises(AnalysisError, match="preset"):
            bench_scale(sizes=(8,), preset="slow")
        with pytest.raises(AnalysisError, match="cannot build"):
            bench_scale(sizes=(2,), topologies=("ring",))

    def test_cli_writes_record_and_smoke_ceiling_passes(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scale.json"
        rc = scale_main(
            [
                "--n", "16",
                "--topologies", "line",
                "--seeds", "1",
                "--max-seconds", "120",
                "--out", str(out),
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "scale"
        stdout = capsys.readouterr().out
        assert "smoke OK" in stdout
        assert "speedup-vs-dense" in stdout

    def test_cli_smoke_ceiling_failure(self, tmp_path, capsys):
        rc = scale_main(
            [
                "--n", "16",
                "--topologies", "line",
                "--seeds", "1",
                "--max-seconds", "0",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 1
        assert "SMOKE FAIL" in capsys.readouterr().err

    def test_cli_reports_bench_errors(self, tmp_path, capsys):
        rc = scale_main(["--n", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "bench error" in capsys.readouterr().err


class TestKernelBench:
    @pytest.fixture(scope="class")
    def record(self):
        return bench_kernel(sizes=(64, 128), topology="gnp", repeats=2, seed=3)

    def test_record_header(self, record):
        assert record["bench"] == "kernel"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["sizes"] == [64, 128]
        assert record["backends"] == ["dense", "sparse", "bitpacked"]
        assert record["tx_fraction"] > 0

    def test_one_entry_per_size_backend(self, record):
        keys = {(e["n"], e["backend"]) for e in record["results"]}
        assert len(keys) == len(record["results"]) == 2 * 3

    def test_executed_cells_report_both_reductions(self, record):
        for entry in record["results"]:
            assert "skipped" not in entry  # nothing hits ceilings this small
            assert entry["counts_seconds"] > 0
            assert entry["senders_seconds"] > 0
            assert entry["counts_per_sec"] > 0
            assert entry["operand_mib"] >= 0
            assert entry["clean_listeners"] >= 0

    def test_non_dense_cells_certify_counts_against_dense(self, record):
        others = [e for e in record["results"] if e["backend"] != "dense"]
        assert others
        for entry in others:
            assert entry["counts_match_dense"] is True
            assert "counts_speedup_vs_dense" in entry

    def test_bitpacked_operand_is_64x_denser_than_dense(self, record):
        bit = [e for e in record["results"] if e["backend"] == "bitpacked"]
        # n=64 and n=128 are word-aligned, so the ratio is exactly 64.
        assert [e["operand_ratio_vs_dense"] for e in bit] == [64.0, 64.0]

    def test_operand_mib_is_the_operands_real_footprint(self):
        # perf_gate compares operand_mib exactly, so the arithmetic must
        # count precisely the arrays each operand holds.
        net = from_spec("gnp", 128, seed=3)
        sparse = SparseOperand(*net.csr())
        bit = BitOperand(*net.csr())
        assert _operand_bytes("sparse", net.n, net.num_edges) == (
            sparse.indptr.nbytes + sparse.indices.nbytes
        )
        assert _operand_bytes("bitpacked", net.n, net.num_edges) == bit.words.nbytes

    def test_operand_ceiling_skips_dense_but_not_bitpacked(self):
        # 8·64² = 32 KiB dense vs 8·64·1 = 512 B packed: a 1 KiB ceiling
        # separates them — the density win the record exists to show.
        record = bench_kernel(
            sizes=(64,), repeats=1, max_operand_bytes=1 << 10
        )
        by_backend = {e["backend"]: e for e in record["results"]}
        assert "MiB ceiling" in by_backend["dense"]["skipped"]
        assert "counts_seconds" in by_backend["bitpacked"]
        # No dense baseline ran, so there is nothing to certify against.
        assert "counts_match_dense" not in by_backend["bitpacked"]

    def test_validation(self):
        with pytest.raises(AnalysisError, match="sizes"):
            bench_kernel(sizes=(0,))
        with pytest.raises(AnalysisError, match="repeat"):
            bench_kernel(sizes=(16,), repeats=0)
        with pytest.raises(AnalysisError, match="topology"):
            bench_kernel(sizes=(16,), topology="torus")
        with pytest.raises(AnalysisError, match="backends"):
            bench_kernel(sizes=(16,), backends=("csr",))
        with pytest.raises(AnalysisError, match="cannot build"):
            bench_kernel(sizes=(2,), topology="ring")

    def test_cli_writes_record_and_smoke_ceiling_passes(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernel.json"
        rc = kernel_main(
            ["--n", "64", "--repeats", "2", "--max-seconds", "60",
             "--out", str(out)]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "kernel"
        stdout = capsys.readouterr().out
        assert "smoke OK" in stdout
        assert "counts-speedup" in stdout

    def test_cli_smoke_ceiling_failure(self, tmp_path, capsys):
        rc = kernel_main(
            ["--n", "64", "--repeats", "1", "--max-seconds", "0",
             "--out", str(tmp_path / "x.json")]
        )
        assert rc == 1
        assert "SMOKE FAIL" in capsys.readouterr().err

    def test_cli_reports_bench_errors(self, tmp_path, capsys):
        rc = kernel_main(["--n", "0", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "bench error" in capsys.readouterr().err
