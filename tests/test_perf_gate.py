"""The perf gate must pass on healthy records and trip on regressions."""

import json

import pytest

from repro.errors import AnalysisError
from repro.experiments import perf_gate
from repro.experiments.perf_gate import (
    gate_engine,
    gate_kernel,
    gate_scale,
    load_record,
)
from repro.experiments.record import SCHEMA_VERSION, bench_record, write_bench


@pytest.fixture(autouse=True)
def _sanitizer_off(monkeypatch):
    # Records stamp REPRO_SANITIZE, and the gate refuses sanitized records
    # by design; these tests exercise the gate on unsanitized records even
    # when the suite itself runs sanitized.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


def _engine_record(array_rps=8000.0, n=16, **columns):
    return bench_record(
        "engine",
        preset="fast",
        channel_backend="auto",
        topology="grid",
        n=n,
        seeds=4,
        protocols=["ghk"],
        results=[
            {
                "protocol": "ghk",
                "topology": "grid",
                "n": n,
                "array": {"rounds_per_sec": array_rps},
                **columns,
            }
        ],
    )


def _scale_record(rps=5000.0, peak_mib=2.0, n=16, probe_rounds=32, build_seconds=0.05):
    return bench_record(
        "scale",
        preset="fast",
        protocol="ghk",
        seeds=1,
        sizes=[n],
        topologies=["line"],
        backends=["sparse"],
        max_dense_mib=1024,
        probe_rounds=probe_rounds,
        results=[
            {
                "topology": "line",
                "n": n,
                "backend": "sparse",
                "rounds_per_sec": rps,
                "peak_mib": peak_mib,
                "build_seconds": build_seconds,
            }
        ],
    )


def _kernel_record(counts_per_sec=5000.0, operand_mib=0.125, n=16):
    return bench_record(
        "kernel",
        topology="gnp",
        seed=0,
        repeats=3,
        tx_fraction=0.05,
        sizes=[n],
        backends=["bitpacked"],
        max_operand_mib=1024,
        results=[
            {
                "topology": "gnp",
                "n": n,
                "backend": "bitpacked",
                "operand_mib": operand_mib,
                "counts_per_sec": counts_per_sec,
                "counts_seconds": 1.0 / counts_per_sec,
                "senders_seconds": 1.0 / counts_per_sec,
            }
        ],
    )


class TestLoadRecord:
    def test_missing_file(self, tmp_path):
        with pytest.raises(AnalysisError, match="does not exist"):
            load_record(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError, match="not valid JSON"):
            load_record(path)

    def test_schema_version_mismatch(self, tmp_path):
        record = _engine_record()
        record["schema_version"] = SCHEMA_VERSION - 1
        path = write_bench(record, tmp_path / "old.json")
        with pytest.raises(AnalysisError, match="schema_version"):
            load_record(path)

    def test_missing_schema_version(self, tmp_path):
        record = _engine_record()
        del record["schema_version"]
        path = write_bench(record, tmp_path / "v1.json")
        with pytest.raises(AnalysisError, match="schema_version"):
            load_record(path)

    def test_roundtrip(self, tmp_path):
        path = write_bench(_engine_record(), tmp_path / "ok.json")
        assert load_record(path)["bench"] == "engine"

    def test_sanitized_record_rejected(self, tmp_path):
        # Sanitizer-on numbers measure the sanitizer, not the engine.
        record = _engine_record()
        record["sanitized"] = True
        path = write_bench(record, tmp_path / "sanitized.json")
        with pytest.raises(AnalysisError, match="sanitizer"):
            load_record(path)

    def test_legacy_record_without_sanitized_key_accepted(self, tmp_path):
        record = _engine_record()
        record.pop("sanitized", None)
        path = write_bench(record, tmp_path / "legacy.json")
        assert load_record(path)["bench"] == "engine"


class TestGateEngine:
    def test_identical_records_pass(self):
        committed = _engine_record()
        lines, violations = gate_engine(committed, _engine_record())
        assert violations == 0
        assert all(line.startswith("OK") for line in lines)

    def test_throughput_regression_trips(self):
        committed = _engine_record(array_rps=8000.0)
        fresh = _engine_record(array_rps=100.0)  # far below the 0.6 floor
        lines, violations = gate_engine(committed, fresh)
        assert violations == 1
        assert any("REGRESSION" in line and "array" in line for line in lines)

    def test_drop_within_tolerance_passes(self):
        committed = _engine_record(array_rps=8000.0)
        fresh = _engine_record(array_rps=8000.0 * 0.5)  # above the 0.4 floor
        _, violations = gate_engine(committed, fresh)
        assert violations == 0

    def test_only_the_array_column_is_gated(self):
        # Older committed records still carry the retired per-node
        # "object" column; it is ignored, whatever its value.
        committed = _engine_record(array_rps=8000.0, object={"rounds_per_sec": 1000.0})
        fresh = _engine_record(array_rps=10.0)
        lines, violations = gate_engine(committed, fresh)
        assert violations == 1
        assert not any("object" in line for line in lines)

    def test_no_matching_cells_is_an_error(self):
        committed = _engine_record(n=16)
        fresh = _engine_record(n=64)
        with pytest.raises(AnalysisError, match="vacuous"):
            gate_engine(committed, fresh)


class TestGateScale:
    def test_identical_records_pass(self):
        _, violations = gate_scale(_scale_record(), _scale_record())
        assert violations == 0

    def test_memory_regression_trips(self):
        committed = _scale_record(peak_mib=2.0)
        fresh = _scale_record(peak_mib=4.0)  # x2 > the 1.25 ceiling
        lines, violations = gate_scale(committed, fresh)
        assert violations == 1
        assert any("REGRESSION" in line and "MiB" in line for line in lines)

    def test_build_time_regression_trips_with_family_and_n(self):
        committed = _scale_record(build_seconds=0.05)
        fresh = _scale_record(build_seconds=0.2)  # x4 > the 1/(1-0.6) ceiling
        lines, violations = gate_scale(committed, fresh)
        assert violations == 1
        assert [line for line in lines if "REGRESSION" in line] == [
            "REGRESSION scale line/n=16 build: 0.2 s > ceiling 0.125 "
            "(committed 0.05, tolerance 0.6)"
        ]

    def test_build_time_within_floor_passes(self):
        lines, violations = gate_scale(
            _scale_record(build_seconds=0.05), _scale_record(build_seconds=0.1)
        )
        assert violations == 0
        assert any(line.startswith("OK scale line/n=16 build") for line in lines)

    def test_millisecond_builds_are_held_to_the_noise_floor(self):
        # Records round build_seconds to ms; a 1 ms -> 4 ms wobble is noise.
        _, violations = gate_scale(
            _scale_record(build_seconds=0.001), _scale_record(build_seconds=0.004)
        )
        assert violations == 0

    def test_memory_skipped_when_probes_differ(self):
        committed = _scale_record(probe_rounds=32)
        fresh = _scale_record(peak_mib=100.0, probe_rounds=8)
        lines, violations = gate_scale(committed, fresh)
        assert violations == 0
        assert any("probe_rounds differ" in line for line in lines)

    def test_skipped_cells_are_ignored(self):
        committed = _scale_record()
        committed["results"].append(
            {"topology": "line", "n": 99, "backend": "dense", "skipped": "ceiling"}
        )
        _, violations = gate_scale(committed, _scale_record())
        assert violations == 0

    def test_no_matching_cells_is_an_error(self):
        with pytest.raises(AnalysisError, match="vacuous"):
            gate_scale(_scale_record(n=16), _scale_record(n=1024))


class TestGateKernel:
    def test_identical_records_pass(self):
        _, violations = gate_kernel(_kernel_record(), _kernel_record())
        assert violations == 0

    def test_counts_regression_trips(self):
        lines, violations = gate_kernel(
            _kernel_record(counts_per_sec=5000.0),
            _kernel_record(counts_per_sec=100.0),
        )
        assert violations == 1
        assert any("REGRESSION" in line and "counts" in line for line in lines)

    def test_operand_size_drift_trips(self):
        # operand_mib is arithmetic, not a measurement: any change means
        # the operand layout itself changed and must be deliberate.
        lines, violations = gate_kernel(
            _kernel_record(operand_mib=0.125), _kernel_record(operand_mib=0.25)
        )
        assert violations == 1
        assert any("operand_mib changed" in line for line in lines)

    def test_no_matching_cells_is_an_error(self):
        with pytest.raises(AnalysisError, match="vacuous"):
            gate_kernel(_kernel_record(n=16), _kernel_record(n=4096))


class TestMain:
    def _write(self, tmp_path, engine=None, scale=None):
        engine_path = write_bench(
            engine or _engine_record(), tmp_path / "BENCH_engine.json"
        )
        scale_path = write_bench(
            scale or _scale_record(), tmp_path / "BENCH_scale.json"
        )
        return str(engine_path), str(scale_path)

    def _run(self, tmp_path, committed_engine, committed_scale,
             fresh_engine, fresh_scale, extra=()):
        engine_path, scale_path = self._write(
            tmp_path, committed_engine, committed_scale
        )
        fresh_engine_path = write_bench(fresh_engine, tmp_path / "fresh_engine.json")
        fresh_scale_path = write_bench(fresh_scale, tmp_path / "fresh_scale.json")
        return perf_gate.main(
            [
                "--engine-record", engine_path,
                "--scale-record", scale_path,
                "--fresh-engine", str(fresh_engine_path),
                "--fresh-scale", str(fresh_scale_path),
                *extra,
            ]
        )

    def test_passes_on_identical_fresh_records(self, tmp_path, capsys):
        code = self._run(
            tmp_path, _engine_record(), _scale_record(),
            _engine_record(), _scale_record(),
        )
        assert code == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_exits_nonzero_on_synthetic_regression(self, tmp_path, capsys):
        code = self._run(
            tmp_path, _engine_record(array_rps=8000.0), _scale_record(),
            _engine_record(array_rps=50.0), _scale_record(),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "PERF GATE FAIL" in captured.err
        assert "REGRESSION" in captured.out

    def test_exits_two_on_schema_mismatch(self, tmp_path, capsys):
        old = _engine_record()
        old["schema_version"] = 1
        engine_path, scale_path = self._write(tmp_path, old, _scale_record())
        code = perf_gate.main(
            ["--engine-record", engine_path, "--scale-record", scale_path]
        )
        assert code == 2
        assert "schema_version" in capsys.readouterr().err

    def test_exits_two_on_bad_tolerance(self, tmp_path):
        assert perf_gate.main(["--speed-tolerance", "1.5"]) == 2

    def test_kernel_record_is_gated_when_given(self, tmp_path, capsys):
        engine_path, scale_path = self._write(tmp_path)
        fresh_engine = write_bench(_engine_record(), tmp_path / "fe.json")
        fresh_scale = write_bench(_scale_record(), tmp_path / "fs.json")
        kernel_path = write_bench(_kernel_record(), tmp_path / "BENCH_kernel.json")
        fresh_kernel = write_bench(
            _kernel_record(counts_per_sec=10.0), tmp_path / "fk.json"
        )
        code = perf_gate.main(
            [
                "--engine-record", engine_path,
                "--scale-record", scale_path,
                "--fresh-engine", str(fresh_engine),
                "--fresh-scale", str(fresh_scale),
                "--kernel-record", str(kernel_path),
                "--fresh-kernel", str(fresh_kernel),
                "--kernel-n", "16",
            ]
        )
        assert code == 1
        assert "kernel gnp/n=16/bitpacked" in capsys.readouterr().out

    def test_out_dir_writes_fresh_records(self, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = self._run(
            tmp_path, _engine_record(), _scale_record(),
            _engine_record(), _scale_record(),
            extra=["--out-dir", str(out_dir)],
        )
        assert code == 0
        for name in ("BENCH_engine.fresh.json", "BENCH_scale.fresh.json"):
            assert json.loads((out_dir / name).read_text())["schema_version"] == (
                SCHEMA_VERSION
            )

    def test_remeasures_when_no_fresh_injected(self, tmp_path, capsys):
        # End-to-end at toy scale: the gate really re-runs both benches.
        from repro.experiments.engine_bench import bench_engines
        from repro.experiments.scale_bench import bench_scale

        committed_engine = bench_engines(n=16, seeds=2)
        committed_scale = bench_scale(
            sizes=(16,), topologies=("line",), seeds=1, backends=("sparse",)
        )
        engine_path, scale_path = self._write(
            tmp_path, committed_engine, committed_scale
        )
        code = perf_gate.main(
            [
                "--engine-record", engine_path,
                "--scale-record", scale_path,
                "--seeds", "2",
                "--scale-n", "16",
                # Toy cells finish in microseconds, so throughput is pure
                # noise; only the memory gate is meaningful here.
                "--speed-tolerance", "0.99",
            ]
        )
        assert code == 0, capsys.readouterr()

    def test_scale_n_must_be_a_committed_size(self, tmp_path, capsys):
        engine_path, scale_path = self._write(tmp_path)
        fresh_engine = write_bench(_engine_record(), tmp_path / "fe.json")
        code = perf_gate.main(
            [
                "--engine-record", engine_path,
                "--scale-record", scale_path,
                "--fresh-engine", str(fresh_engine),
                "--scale-n", "4096",
            ]
        )
        assert code == 2
        assert "not a committed size" in capsys.readouterr().err
