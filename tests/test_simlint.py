"""Self-tests for the simlint static-analysis suite.

Fixture-driven: every rule (all of them file-local) has a good/bad corpus
under ``tests/fixtures/simlint/`` (laid out with ``sim/`` / ``sim/core/``
path segments so the path-scoped rules engage), plus suppression and
parse-error checks and a smoke run over the real tree.  Oracle coverage
is a test over the protocol table (``tests/test_equivalence.py``), not a
lint rule.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.core import RuleEngine, path_has_segments
from repro.analysis.simlint import DEFAULT_RULES, build_engine, main
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"
REPO = Path(__file__).parent.parent


def rules_hit(*paths):
    report = build_engine().run(paths)
    return sorted({f.rule for f in report.findings}), report


# --------------------------------------------------------------------- #
# Per-rule fixtures: each rule fires on its bad corpus, stays silent on
# its good corpus.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize(
    "rule, corpus",
    [
        ("SL001", "sl001"),
        ("SL002", "sl002"),
        ("SL006", "sl006"),
        ("SL007", "sl007"),
    ],
)
def test_rule_fires_on_bad_and_passes_good(rule, corpus):
    hit_bad, bad_report = rules_hit(FIXTURES / corpus / "bad")
    assert hit_bad == [rule]
    assert not bad_report.clean
    hit_good, good_report = rules_hit(FIXTURES / corpus / "good")
    assert hit_good == []
    assert good_report.clean


def test_sl001_counts_every_violation_flavor():
    # stdlib import, np.random.seed, np.random.rand, seedless default_rng.
    _, report = rules_hit(FIXTURES / "sl001" / "bad")
    assert len(report.findings) == 4


def test_sl002_allowlists_batch_telemetry_timers():
    _, report = rules_hit(FIXTURES / "sl002" / "good")
    assert report.clean  # perf_counter in batch.py is telemetry, allowed
    hit, _ = rules_hit(FIXTURES / "sl002" / "bad")
    assert hit == ["SL002"]


def test_sl007_flags_every_construction_flavor():
    _, report = rules_hit(FIXTURES / "sl007" / "bad")
    # Module-level SparseOperand, in-function DenseOperand, and the
    # module-attribute channel.BitOperand spelling all fire.
    assert len(report.findings) == 3
    messages = " | ".join(f.message for f in report.findings)
    for name in ("SparseOperand", "DenseOperand", "BitOperand"):
        assert name in messages
    assert "select_kernel_operand" in messages


def test_sl007_exempts_factories_kernel_module_and_non_sim_code():
    hit, _ = rules_hit(FIXTURES / "sl007" / "good")
    assert hit == []


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #

def test_inline_and_file_suppressions():
    _, report = rules_hit(FIXTURES / "suppress")
    # Only the file whose disable comment names a *different* rule fires.
    assert [f.path for f in report.findings] == [
        str(FIXTURES / "suppress" / "sim" / "unsuppressed.py")
    ]
    assert report.findings[0].rule == "SL001"


# --------------------------------------------------------------------- #
# Engine mechanics: parse errors, path scoping
# --------------------------------------------------------------------- #

def test_parse_error_becomes_sl000_finding():
    hit, report = rules_hit(FIXTURES / "parse_error")
    assert hit == ["SL000"]
    assert "does not parse" in report.findings[0].message


def test_missing_path_is_a_usage_error():
    with pytest.raises(AnalysisError, match="no such file"):
        build_engine().run([FIXTURES / "does-not-exist"])


def test_fixture_dirs_excluded_from_directory_walks():
    files = RuleEngine.expand_paths([REPO / "tests"])
    assert files, "tests/ must contain python files"
    assert not any("fixtures" in Path(f).parts for f in files)


def test_path_scoping_helper():
    assert path_has_segments("src/repro/sim/core/batch.py", ("sim", "core"))
    assert not path_has_segments("src/repro/simulator/core.py", ("sim",))
    assert path_has_segments("tests/fixtures/simlint/sl001/bad/sim/x.py", ("sim",))


# --------------------------------------------------------------------- #
# CLI contract
# --------------------------------------------------------------------- #

def test_cli_json_output_and_exit_code(capsys):
    code = main([str(FIXTURES / "sl006" / "bad"), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert {f["rule"] for f in payload["findings"]} == {"SL006"}


def test_cli_github_format_emits_error_annotations(capsys):
    code = main([str(FIXTURES / "sl006" / "bad"), "--format", "github"])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines, "findings must produce annotations"
    for line in lines:
        assert line.startswith("::error file=")
        assert "title=simlint SL006" in line
        assert "::" in line.split("title=", 1)[1]
        properties = line[len("::error ") :].split("::", 1)[0]
        fields = dict(part.split("=", 1) for part in properties.split(","))
        assert int(fields["line"]) >= 1
        assert int(fields["col"]) >= 1  # ast columns are 0-based; annotations 1-based


def test_cli_github_format_clean_run_prints_nothing(capsys):
    code = main([str(FIXTURES / "sl006" / "good"), "--format", "github"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_github_escaping():
    from repro.analysis.core import Finding
    from repro.analysis.simlint import _github_annotation

    finding = Finding(
        rule="SL001", path="src/a,b:c.py", line=3, col=0, message="50% bad\nnews"
    )
    line = _github_annotation(finding)
    assert "file=src/a%2Cb%3Ac.py" in line
    assert line.endswith("::50%25 bad%0Anews")


def test_cli_select_filters_rules(capsys):
    code = main(
        [str(FIXTURES / "sl006" / "bad"), "--select", "SL001"]
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_list_rules_and_explain(capsys):
    assert main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for cls in DEFAULT_RULES:
        assert cls.id in listed
    assert main(["--explain", "SL007"]) == 0
    assert "select_kernel_operand" in capsys.readouterr().out


def test_cli_usage_errors_exit_2(capsys):
    assert main(["--explain", "SL999"]) == 2
    assert main([str(FIXTURES / "nope")]) == 2
    assert main(["src", "--select", "SLBOGUS"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    with pytest.raises(SystemExit) as excinfo:
        main(["src", "--no-cache"])  # argparse: unrecognized argument
    assert excinfo.value.code == 2


# --------------------------------------------------------------------- #
# The real tree is clean — the repo's own determinism gate.
# --------------------------------------------------------------------- #

def test_real_tree_is_clean():
    report = build_engine().run([REPO / "src", REPO / "tests"])
    assert report.findings == []
