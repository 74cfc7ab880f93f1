"""Tests for the science sweep, the speed benches and their bench records."""

import itertools
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import AnalysisError
from repro.experiments import (
    bench_kernel,
    bench_scale,
    run_matrix,
    sweep,
    write_bench,
)
from repro.experiments.kernel_bench import _operand_bytes
from repro.experiments.kernel_bench import main as kernel_main
from repro.experiments.record import SCHEMA_VERSION
from repro.experiments import scale_bench
from repro.experiments.scale_bench import batch_outcome
from repro.experiments.scale_bench import main as scale_main
from repro.sim.core import BitOperand, SparseOperand
from repro.sim.runners import run_broadcast_batch
from repro.sim.topology import from_spec

ROOT = Path(__file__).resolve().parent.parent


def block(**overrides) -> dict:
    """A small Decay-vs-GHK sweep block; keyword arguments replace keys."""
    return {
        "protocol": ["decay", "ghk"],
        "topology": ["line", "gnp"],
        "n": [16],
        "k": [1],
        "fault": [["none", 0]],
        "seeds": 3,
        "preset": "fast",
        "baseline": {"protocol": "decay"},
        **overrides,
    }


def mm_block(**overrides) -> dict:
    """A small k-message pipelining block (baseline: k = 1)."""
    return block(
        **{
            "protocol": ["multimessage"],
            "topology": ["line", "grid"],
            "k": [1, 2],
            "baseline": {"k": 1},
            **overrides,
        }
    )


def run_cli(tmp_path, matrix, *flags) -> tuple[int, Path]:
    spec = tmp_path / "matrix.json"
    spec.write_text(json.dumps(matrix))
    out = tmp_path / "BENCH_sweep.json"
    return sweep.main([str(spec), "--out", str(out), *flags]), out


class TestSweep:
    @pytest.fixture(scope="class")
    def record(self):
        return run_matrix([block()])

    def test_record_header(self, record):
        assert record["bench"] == "sweep"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["paper"] == "conf_podc_GhaffariHK13"
        assert record["matrix"] == [block()]
        assert "created_utc" in record

    def test_entries_carry_traffic_means(self, record):
        for entry in record["results"]:
            assert entry["energy_mean"] > 0
            assert entry["collisions_mean"] >= 0
            assert entry["budget_mean"] > 0
            assert entry["source_eccentricity_mean"] > 0
            assert "fault_totals_mean" not in entry

    def test_one_entry_per_family_protocol_pair(self, record):
        keys = {(e["topology"], e["protocol"]) for e in record["results"]}
        assert keys == {(t, p) for t in ("line", "gnp") for p in ("decay", "ghk")}

    def test_entries_aggregate_the_full_batch(self, record):
        for entry in record["results"]:
            assert entry["failures"] == 0
            assert len(entry["rounds"]) == 3
            assert entry["rounds_mean"] == sum(entry["rounds"]) / 3
            assert entry["transmissions_mean"] > 0

    def test_ghk_entries_carry_speedup(self, record):
        by_cell = {(e["topology"], e["protocol"]): e for e in record["results"]}
        for topology in ("line", "gnp"):
            decay, ghk = by_cell[topology, "decay"], by_cell[topology, "ghk"]
            assert decay["speedup_vs_baseline"] == 1.0
            assert ghk["speedup_vs_baseline"] == (
                decay["rounds_mean"] / ghk["rounds_mean"]
            )
        assert by_cell["line", "ghk"]["speedup_vs_baseline"] > 1

    def test_default_topology_suite_is_the_issue_suite(self):
        record = json.loads((ROOT / "BENCH_broadcast.json").read_text())
        assert record["matrix"][0]["topology"] == [
            "line",
            "ring",
            "grid",
            "gnp",
            "dumbbell",
            "unit_disk",
        ]

    def test_speedup_is_protocol_order_independent(self, record):
        reordered = run_matrix([block(protocol=["ghk", "decay"])])
        ratios = {
            (e["topology"], e["protocol"]): e["speedup_vs_baseline"]
            for e in reordered["results"]
        }
        assert ratios == {
            (e["topology"], e["protocol"]): e["speedup_vs_baseline"]
            for e in record["results"]
        }

    def test_failures_are_counted_not_raised(self):
        # Every reception is dropped, so nothing beyond the source is ever
        # informed and every run exhausts its budget.
        record = run_matrix([block(topology=["line"], fault=[["loss", 1.0]])])
        for entry in record["results"]:
            assert entry["failures"] == 3
            assert entry["rounds"] == [None, None, None]
            assert entry["rounds_mean"] is None
            assert entry["energy_mean"] is None
            assert entry["speedup_vs_baseline"] is None
            assert entry["fault_totals_mean"]["dropped_receptions"] > 0

    def test_one_network_set_is_shared_across_a_block(self, monkeypatch):
        built = []

        def counting_from_spec(name, n, *, seed):
            built.append((name, n, seed))
            return from_spec(name, n, seed=seed)

        monkeypatch.setattr(sweep, "from_spec", counting_from_spec)
        run_matrix([block(k=[1], fault=[["none", 0], ["loss", 0.5]])])
        # Two families x three seeds, shared by 2 protocols x 2 fault levels.
        assert sorted(built) == sorted(
            (t, 16, s) for t in ("line", "gnp") for s in range(3)
        )


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(AnalysisError, match="at least one node"):
            run_matrix([block(n=[0])])
        with pytest.raises(AnalysisError, match="at least one seed"):
            run_matrix([block(seeds=0)])
        with pytest.raises(AnalysisError, match="non-empty list"):
            run_matrix([block(topology=[])])
        with pytest.raises(AnalysisError, match="non-empty list of blocks"):
            run_matrix([])

    def test_rejects_unknown_names(self):
        with pytest.raises(AnalysisError, match="unknown topologies"):
            run_matrix([block(topology=["moebius"])])
        with pytest.raises(AnalysisError, match="unknown protocol"):
            run_matrix([block(protocol=["gossip"])])
        with pytest.raises(AnalysisError, match="unknown preset"):
            run_matrix([block(preset="slow")])
        with pytest.raises(AnalysisError, match="unknown block keys"):
            run_matrix([block(backend="dense")])
        with pytest.raises(AnalysisError, match="baseline"):
            run_matrix([block(baseline={"protocol": "multimessage"})])

    def test_rejects_unbuildable_family_size(self):
        with pytest.raises(AnalysisError, match="cannot build"):
            run_matrix([block(topology=["ring"], n=[2], seeds=1)])

    @pytest.mark.parametrize(
        ("fault", "match"),
        [
            (["jam", 1.5], "bad jam level"),
            (["jam", -1], "bad jam level"),
            (["jam", 16], "bad jam level"),
            (["crash", 1.5], "bad crash level"),
            (["loss", -0.1], "bad loss level"),
            (["flip", True], "bad flip level"),
            (["none", 0.5], "bad none level"),
            (["meteor", 1], "not \\[family, level\\]"),
            ("crash", "not \\[family, level\\]"),
        ],
    )
    def test_bad_faults_exit_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, fault, match
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("a simulation ran before validation finished")

        monkeypatch.setattr(sweep, "run_broadcast_batch", no_runs)
        matrix = [block(), block(fault=[["none", 0], fault])]
        rc, out = run_cli(tmp_path, matrix)
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep error" in err
        assert re.search(match, err)
        assert not out.exists()


class TestCLI:
    def test_writes_valid_json_record(self, tmp_path, capsys):
        rc, out = run_cli(tmp_path, [block(topology=["line"], seeds=2)])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "sweep"
        assert len(record["results"]) == 2
        stdout = capsys.readouterr().out
        assert "speedup-vs-baseline" in stdout
        assert str(out) in stdout

    def test_reports_sweep_errors(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, [block(n=[0])])
        assert rc == 2
        assert "sweep error" in capsys.readouterr().err

    def test_write_bench_roundtrip(self, tmp_path):
        record = run_matrix([block(topology=["line"], seeds=2)])
        path = write_bench(record, tmp_path / "b.json")
        assert json.loads(path.read_text()) == record

    def test_multi_size_sweep_merges_into_one_record(self, tmp_path, capsys):
        rc, out = run_cli(tmp_path, [block(topology=["line"], n=[12, 16], seeds=2)])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["matrix"][0]["n"] == [12, 16]
        assert [e["n"] for e in record["results"]] == [12, 12, 16, 16]
        stdout = capsys.readouterr().out
        assert "n=12" in stdout and "n=16" in stdout

    def test_regenerates_a_record_in_place(self, tmp_path):
        rc, out = run_cli(tmp_path, [block(topology=["line"], seeds=2)])
        assert rc == 0
        before = json.loads(out.read_text())
        assert sweep.main([str(out)]) == 0
        assert json.loads(out.read_text())["results"] == before["results"]
        assert sweep.main(["--check", str(out)]) == 0

    def test_check_needs_a_record(self, tmp_path, capsys):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps([block()]))
        assert sweep.main(["--check", str(spec)]) == 2
        assert "needs a record" in capsys.readouterr().err


class TestEngineBench:
    """The engine record: one scale_bench run timing both protocols on the
    dense backend over one family (``BENCH_engine.json``)."""

    @pytest.fixture(scope="class")
    def record(self):
        return bench_scale(
            sizes=(16,), topologies=("line",), protocols=("decay", "ghk"),
            seeds=2, backends=("dense",),
        )

    def test_record_header(self, record):
        assert record["bench"] == "scale"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["paper"] == "conf_podc_GhaffariHK13"
        assert record["topologies"] == ["line"]
        assert record["protocols"] == ["decay", "ghk"]
        assert record["backends"] == ["dense"]

    def test_array_entries_count_executed_rounds(self, record):
        assert [e["protocol"] for e in record["results"]] == ["decay", "ghk"]
        # One network set per (family, n), built once for every protocol.
        assert len({(e["edges"], e["build_seconds"]) for e in record["results"]}) == 1
        for entry in record["results"]:
            assert entry["rounds"] > 0
            assert entry["completed"] == entry["runs"] == 2

    def test_array_entries_carry_phase_timers(self, record):
        for entry in record["results"]:
            phases = entry["phase_seconds"]
            assert set(phases) == {"act", "channel", "feedback"}
            assert all(v >= 0.0 for v in phases.values())

    def test_validation(self):
        engine = dict(topologies=("line",), protocols=("decay", "ghk"),
                      backends=("dense",))
        with pytest.raises(AnalysisError, match="sizes must be positive"):
            bench_scale(sizes=(0,), **engine)
        with pytest.raises(AnalysisError, match="at least one seed"):
            bench_scale(sizes=(8,), seeds=0, **engine)
        with pytest.raises(AnalysisError, match="unknown topologies"):
            bench_scale(sizes=(8,), **{**engine, "topologies": ("moebius",)})
        with pytest.raises(AnalysisError, match="protocols"):
            bench_scale(sizes=(8,), **{**engine, "protocols": ("gossip",)})
        with pytest.raises(AnalysisError, match="preset"):
            bench_scale(sizes=(8,), preset="slow", **engine)
        with pytest.raises(AnalysisError, match="cannot build"):
            bench_scale(sizes=(2,), **{**engine, "topologies": ("ring",)})

    def test_cli_writes_record_and_smoke_ceiling_passes(self, tmp_path, capsys):
        out = tmp_path / "BENCH_engine.json"
        rc = scale_main(
            [
                "--n", "12", "--seeds", "2", "--topologies", "line",
                "--protocols", "decay", "--backends", "dense",
                "--out", str(out), "--max-seconds", "120",
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["results"][0]["protocol"] == "decay"
        stdout = capsys.readouterr().out
        assert "smoke OK" in stdout
        assert str(out) in stdout

    def test_cli_smoke_ceiling_failure(self, tmp_path, capsys):
        rc = scale_main(
            [
                "--n", "12", "--seeds", "2", "--topologies", "line",
                "--protocols", "decay", "--backends", "dense",
                "--out", str(tmp_path / "b.json"), "--max-seconds", "0",
            ]
        )
        assert rc == 1
        assert "SMOKE FAIL" in capsys.readouterr().err

    def test_cli_reports_bench_errors(self, tmp_path, capsys):
        rc = scale_main(
            ["--n", "0", "--protocols", "decay", "ghk", "--backends", "dense",
             "--out", str(tmp_path / "b.json")]
        )
        assert rc == 2
        assert "bench error" in capsys.readouterr().err


class TestMultiMessageBench:
    """The k-message pipelining block of the science sweep."""

    @pytest.fixture(scope="class")
    def record(self):
        return run_matrix([mm_block()])

    def test_record_header(self, record):
        assert record["bench"] == "sweep"
        assert record["schema_version"] == SCHEMA_VERSION
        [matrix_block] = record["matrix"]
        assert matrix_block["k"] == [1, 2]
        assert matrix_block["protocol"] == ["multimessage"]
        assert matrix_block["topology"] == ["line", "grid"]

    def test_one_entry_per_family_k_pair(self, record):
        keys = {(e["topology"], e["k"]) for e in record["results"]}
        assert keys == {(t, k) for t in ("line", "grid") for k in (1, 2)}

    def test_entries_aggregate_the_full_batch(self, record):
        for entry in record["results"]:
            assert entry["protocol"] == "multimessage"
            assert entry["failures"] == 0
            assert len(entry["rounds"]) == 3
            assert min(entry["rounds"]) <= entry["rounds_mean"] <= max(entry["rounds"])
            assert entry["transmissions_mean"] > 0

    def test_k_above_one_entries_carry_pipelining_speedup(self, record):
        by_cell = {(e["topology"], e["k"]): e for e in record["results"]}
        for topology in ("line", "grid"):
            single, double = by_cell[topology, 1], by_cell[topology, 2]
            assert single["speedup_vs_baseline"] == 1.0
            # k x (k=1 mean) / (k mean): > 1 means the pipeline beats k
            # sequential single-message broadcasts.
            assert double["speedup_vs_baseline"] == (
                2 * single["rounds_mean"] / double["rounds_mean"]
            )

    def test_default_axes(self):
        record = json.loads((ROOT / "BENCH_multimessage.json").read_text())
        assert record["matrix"][0]["k"] == [1, 4, 16]
        assert record["matrix"][0]["baseline"] == {"k": 1}

    def test_validation(self):
        with pytest.raises(AnalysisError, match="non-empty list"):
            run_matrix([mm_block(k=[])])
        with pytest.raises(AnalysisError, match="positive integer"):
            run_matrix([mm_block(k=[1, 0])])
        with pytest.raises(AnalysisError, match="cannot take k > 1"):
            run_matrix([block(k=[1, 2], baseline=None)])
        with pytest.raises(AnalysisError, match="unknown topologies"):
            run_matrix([mm_block(topology=["moebius"])])
        with pytest.raises(AnalysisError, match="unknown preset"):
            run_matrix([mm_block(preset="slow")])
        with pytest.raises(AnalysisError, match="cannot build"):
            run_matrix([mm_block(topology=["ring"], n=[2], seeds=1)])

    def test_cli_writes_valid_json_record(self, tmp_path, capsys):
        rc, out = run_cli(tmp_path, [mm_block(topology=["line"], seeds=2)])
        assert rc == 0
        record = json.loads(out.read_text())
        assert [e["k"] for e in record["results"]] == [1, 2]
        stdout = capsys.readouterr().out
        assert "speedup-vs-baseline" in stdout
        assert str(out) in stdout

    def test_cli_multi_size_merges(self, tmp_path):
        rc, out = run_cli(
            tmp_path, [mm_block(topology=["line"], n=[12, 16], k=[1], seeds=2)]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert [e["n"] for e in record["results"]] == [12, 16]

    def test_cli_reports_sweep_errors(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, [mm_block(k=[0])])
        assert rc == 2
        assert "sweep error" in capsys.readouterr().err

    def test_pipelining_speedup_is_k_order_independent(self, record):
        # Regression: the baseline used to be picked up only if k=1 was
        # processed first, so a reordered k axis silently dropped the
        # record's headline metric.
        reordered = run_matrix([mm_block(k=[2, 1])])
        ratios = {
            (e["topology"], e["k"]): e["speedup_vs_baseline"]
            for e in reordered["results"]
        }
        assert ratios == {
            (e["topology"], e["k"]): e["speedup_vs_baseline"]
            for e in record["results"]
        }


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
        assert record["protocols"] == ["ghk"]

    def test_one_entry_per_family_size_backend(self, record):
        keys = {(e["topology"], e["n"], e["backend"]) for e in record["results"]}
        assert len(keys) == len(record["results"]) == 2 * 2 * 2
        assert {e["protocol"] for e in record["results"]} == {"ghk"}

    def test_outcome_counts_the_budget_of_a_failed_run(self):
        nets = [from_spec("line", 24, seed=seed) for seed in range(2)]
        batch = run_broadcast_batch("decay", nets, seeds=range(2), budget=3)
        assert batch_outcome(batch) == {
            "rounds": 6, "completed": 0, "rounds_to_delivery": [None, None],
        }

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

    def test_cells_time_repeated_runs_totalling_the_minimum(self, monkeypatch):
        # On a clock that ticks 0.25 s per reading, each run reads 0.25 s,
        # so a cell repeats until its runs total MIN_TIMED_SECONDS (0.5).
        ticks = itertools.count()
        clock = SimpleNamespace(perf_counter=lambda: 0.25 * next(ticks))
        monkeypatch.setattr(scale_bench, "time", clock)
        record = bench_scale(sizes=(16,), topologies=("line",), seeds=1, backends=("sparse",))
        (entry,) = record["results"]
        assert scale_bench.MIN_TIMED_SECONDS == 0.5
        assert entry["repeats"] == 2 and entry["seconds"] == 0.25
        assert entry["rounds_per_sec"] == round(2 * entry["rounds"] / 0.5, 1)

    def test_validation(self):
        with pytest.raises(AnalysisError, match="sizes"):
            bench_scale(sizes=(0,))
        with pytest.raises(AnalysisError, match="seed"):
            bench_scale(sizes=(8,), seeds=0)
        with pytest.raises(AnalysisError, match="topologies"):
            bench_scale(sizes=(8,), topologies=("torus",))
        with pytest.raises(AnalysisError, match="backends"):
            bench_scale(sizes=(8,), backends=("csr",))
        with pytest.raises(AnalysisError, match="protocols"):
            bench_scale(sizes=(8,), protocols=("gossip",))
        with pytest.raises(AnalysisError, match="protocols"):
            bench_scale(sizes=(8,), protocols=())
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
                "--protocols", "decay", "ghk",
                "--seeds", "1",
                "--max-seconds", "120",
                "--out", str(out),
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "scale"
        assert record["protocols"] == ["decay", "ghk"]
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
        # The committed operand_mib replays exactly (test_sweep_replay), so
        # the arithmetic must count precisely the arrays each operand holds.
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
