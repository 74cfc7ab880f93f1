"""simlint CLI: ``python -m repro.analysis.simlint [paths...]``.

Exit codes: **0** clean, **1** findings reported, **2** usage error
(unknown rule, missing path).  ``--format json`` emits a machine-readable
report; ``--format github`` emits one ``::error`` workflow command per
finding so CI findings surface as inline annotations on the pull
request; ``--explain SL00X`` prints a rule's full documentation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.analysis.core import Finding, Rule, RuleEngine
from repro.analysis.rules_contract import OperandConstructionRule
from repro.analysis.rules_order import UnorderedIterationRule
from repro.analysis.rules_registry import RegistryCompletenessRule
from repro.analysis.rules_rng import GlobalRngRule, WallClockRule
from repro.errors import AnalysisError

__all__ = ["DEFAULT_RULES", "build_engine", "main"]

#: rule classes in id order; ``build_engine`` instantiates fresh copies so
#: concurrent engines never share per-file state.
DEFAULT_RULES: tuple[type[Rule], ...] = (
    GlobalRngRule,
    WallClockRule,
    RegistryCompletenessRule,
    UnorderedIterationRule,
    OperandConstructionRule,
)


def build_engine(only: Sequence[str] | None = None) -> RuleEngine:
    """A fresh engine over the default ruleset (optionally id-filtered)."""
    rules = [cls() for cls in DEFAULT_RULES]
    if only is not None:
        wanted = set(only)
        known = {rule.id for rule in rules}
        unknown = wanted - known
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        rules = [rule for rule in rules if rule.id in wanted]
    return RuleEngine(rules)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.simlint",
        description="Determinism & kernel-contract lints for the simulator.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to analyze (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "github"),
        default="human",
        help="report format (default: human); 'github' prints one ::error "
        "workflow command per finding for inline PR annotations",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print one rule's full documentation and exit",
    )
    return parser


def _github_escape(value: str, *, property_value: bool = False) -> str:
    """Escape data for a GitHub Actions workflow command.

    ``%``/CR/LF are meaningful everywhere; property values (file, title)
    additionally reserve ``:`` and ``,`` as delimiters.
    """
    value = value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property_value:
        value = value.replace(":", "%3A").replace(",", "%2C")
    return value


def _github_annotation(finding: Finding) -> str:
    properties = (
        f"file={_github_escape(finding.path, property_value=True)},"
        f"line={finding.line},"
        # simlint columns are 0-based (ast.col_offset); annotations are 1-based.
        f"col={finding.col + 1},"
        f"title={_github_escape('simlint ' + finding.rule, property_value=True)}"
    )
    return f"::error {properties}::{_github_escape(finding.message)}"


def _list_rules() -> str:
    lines = []
    for cls in DEFAULT_RULES:
        lines.append(f"{cls.id}  {cls.title}")
    return "\n".join(lines)


def _explain(rule_id: str) -> str:
    for cls in DEFAULT_RULES:
        if cls.id == rule_id:
            return f"{cls.id} — {cls.title}\n\n{cls.doc}"
    raise AnalysisError(
        f"unknown rule id {rule_id!r}; known: "
        + ", ".join(cls.id for cls in DEFAULT_RULES)
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.list_rules:
            print(_list_rules())
            return 0
        if args.explain:
            print(_explain(args.explain))
            return 0
        engine = build_engine(args.select)
        report = engine.run(args.paths)
    except AnalysisError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    elif args.format == "github":
        for finding in report.findings:
            print(_github_annotation(finding))
    else:
        for finding in report.findings:
            print(finding.render())
        status = "clean" if report.clean else f"{len(report.findings)} finding(s)"
        print(f"simlint: {report.files_checked} files: {status}")
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
