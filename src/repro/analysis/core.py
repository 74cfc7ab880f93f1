"""The simlint rule engine: AST visiting, suppressions, reporting.

The engine is deliberately small and dependency-free (``ast`` +
``tokenize`` from the stdlib): it parses each analyzed file once, walks
the tree a single time dispatching nodes to every applicable rule, and
collects :class:`Finding` records.  Every rule is file-local.

Two engine services every rule gets for free:

* **Suppressions** — a ``# simlint: disable=SL001`` comment suppresses
  findings of that rule on the same physical line, and
  ``# simlint: disable-file=SL001`` (anywhere in the file) suppresses the
  rule for the whole file.  ``all`` is accepted in place of a rule id.
* **Reporting** — deterministic ordering, human and JSON output, and
  the exit-code contract (0 clean, 1 findings, 2 usage error) live in
  :mod:`repro.analysis.simlint`.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Any

from repro.errors import AnalysisError

__all__ = [
    "FileContext",
    "FileResult",
    "Finding",
    "LintReport",
    "Rule",
    "RuleEngine",
    "ast_dfs",
    "attribute_chain",
    "parse_error_finding",
    "path_has_segments",
]

#: Directory names never descended into while expanding a directory
#: argument.  ``fixtures`` keeps the deliberately-violating test corpus
#: out of real-tree runs; explicitly-listed root paths are exempt, so
#: ``simlint tests/fixtures/...`` still analyzes the corpus on purpose.
EXCLUDED_DIR_NAMES = frozenset({"__pycache__", ".git", "fixtures", ".venv", "node_modules"})

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    """The pseudo-finding emitted when an analyzed file fails to parse."""
    return Finding(
        rule="SL000",
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
    )


def path_has_segments(path: str, segments: Sequence[str]) -> bool:
    """Whether ``segments`` occur contiguously in ``path``'s directory parts.

    Rules scope themselves by path shape (``("sim",)`` for the simulator
    tree, ``("sim", "core")`` for the kernel/engine core) so the same
    rule fires on the real tree and on fixture corpora that reproduce the
    layout under ``tests/fixtures/``.
    """
    parts = PurePosixPath(path.replace(os.sep, "/")).parts
    want = tuple(segments)
    span = len(want)
    return any(parts[i : i + span] == want for i in range(len(parts) - span + 1))


def attribute_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-name-rooted chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def ast_dfs(node: ast.AST, *, skip_nested_defs: bool = False) -> Iterator[ast.AST]:
    """Pre-order, field-order DFS (``ast.walk`` is BFS and loses statement order).

    With ``skip_nested_defs`` the traversal yields nested function and
    class definitions but does not descend into them — scope-local rules
    use this so each definition is analyzed exactly once, by its own
    visit.
    """
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        if (
            skip_nested_defs
            and current is not node
            and isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ):
            continue
        children = list(ast.iter_child_nodes(current))
        children.reverse()
        stack.extend(children)


class ImportMap:
    """Local-name → imported-origin resolution for one module.

    ``modules`` maps aliases to dotted module names (``np`` → ``numpy``);
    ``symbols`` maps from-imported names to ``(module, attr)`` pairs
    (``default_rng`` → ``("numpy.random", "default_rng")``).
    """

    def __init__(self, tree: ast.AST) -> None:
        self.modules: dict[str, str] = {}
        self.symbols: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.symbols[alias.asname or alias.name] = (node.module, alias.name)

    def canonical(self, chain: Sequence[str]) -> list[str] | None:
        """Rewrite a name chain to its fully-qualified origin, if imported.

        ``["np", "random", "seed"]`` → ``["numpy", "random", "seed"]``;
        ``["default_rng"]`` → ``["numpy", "random", "default_rng"]``.
        Returns ``None`` when the head is not an import binding.
        """
        head = chain[0]
        if head in self.modules:
            return self.modules[head].split(".") + list(chain[1:])
        if head in self.symbols:
            module, attr = self.symbols[head]
            return module.split(".") + [attr] + list(chain[1:])
        return None


class FileContext:
    """Everything a rule sees while one file is being analyzed."""

    def __init__(self, path: str, source: str, tree: ast.AST) -> None:
        self.path = path
        self.basename = PurePosixPath(path.replace(os.sep, "/")).name
        self.source = source
        self.tree = tree
        self.imports = ImportMap(tree)
        self.findings: list[Finding] = []

    def report(self, rule_id: str, node: ast.AST | int, message: str) -> None:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        self.findings.append(Finding(rule_id, self.path, line, col, message))


class Rule:
    """Base class for simlint rules.

    Subclasses set :attr:`id`, :attr:`title` and :attr:`doc`, scope
    themselves via :meth:`applies_to`, and implement any combination of
    ``visit_<NodeType>(node, ctx)`` methods.  One rule instance is shared
    across all files of a run, so it keeps no per-file state.
    """

    id: str = ""
    title: str = ""
    #: long-form documentation shown by ``--explain`` (what the rule
    #: catches, why it matters for determinism, how to fix or suppress).
    doc: str = ""

    def applies_to(self, path: str) -> bool:
        return True


@dataclass
class FileResult:
    """Analysis of one file: raw findings and suppressions."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    file_disables: set[str] = field(default_factory=set)
    line_disables: dict[int, set[str]] = field(default_factory=dict)

    def suppresses(self, finding: Finding) -> bool:
        disabled = self.file_disables | self.line_disables.get(finding.line, set())
        return "all" in disabled or finding.rule in disabled


def _parse_suppressions(source: str) -> tuple[set[str], dict[int, set[str]]]:
    """Extract ``# simlint: disable[-file]=...`` comments via tokenize."""
    file_disables: set[str] = set()
    line_disables: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return file_disables, line_disables
    for line, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(2).split(",") if part.strip()}
        if match.group(1) == "disable-file":
            file_disables |= rules
        else:
            line_disables.setdefault(line, set()).update(rules)
    return file_disables, line_disables


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: list[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict[str, Any]:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "files_checked": self.files_checked,
            "clean": self.clean,
        }


class RuleEngine:
    """Run a set of rules over a set of paths."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        ids = [rule.id for rule in rules]
        if len(set(ids)) != len(ids):
            raise AnalysisError(f"duplicate rule ids in {ids}")
        self.rules = tuple(rules)
        # Per-rule dispatch tables: node-type name -> bound visitor.
        self._dispatch: dict[str, list[tuple[Rule, Callable[[ast.AST, FileContext], None]]]] = {}
        for rule in self.rules:
            for name in dir(rule):
                if name.startswith("visit_"):
                    self._dispatch.setdefault(name[len("visit_") :], []).append(
                        (rule, getattr(rule, name))
                    )

    # ------------------------------------------------------------------ #
    # File discovery
    # ------------------------------------------------------------------ #
    @staticmethod
    def expand_paths(paths: Iterable[str | Path]) -> list[str]:
        """Python files under the given paths, deterministic order.

        Directory roots are walked recursively; subdirectories named in
        :data:`EXCLUDED_DIR_NAMES` are skipped (the roots themselves are
        never excluded, so a fixture corpus can be analyzed by naming it
        explicitly).  Missing paths raise :class:`AnalysisError`.
        """
        files: list[str] = []
        for raw in paths:
            path = Path(raw)
            if path.is_file():
                files.append(str(path))
            elif path.is_dir():
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames[:] = sorted(
                        d for d in dirnames if d not in EXCLUDED_DIR_NAMES
                    )
                    for name in sorted(filenames):
                        if name.endswith(".py"):
                            files.append(os.path.join(dirpath, name))
            else:
                raise AnalysisError(f"no such file or directory: {path}")
        seen: set[str] = set()
        unique = []
        for f in files:
            if f not in seen:
                seen.add(f)
                unique.append(f)
        return unique

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def analyze_source(self, path: str, source: str) -> FileResult:
        """Analyze one in-memory file."""
        file_disables, line_disables = _parse_suppressions(source)
        result = FileResult(
            path=path,
            file_disables=file_disables,
            line_disables=line_disables,
        )
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            result.findings.append(parse_error_finding(path, exc))
            return result
        ctx = FileContext(path, source, tree)
        active = {id(rule) for rule in self.rules if rule.applies_to(path)}
        for node in ast_dfs(tree):
            for rule, visitor in self._dispatch.get(type(node).__name__, ()):
                if id(rule) in active:
                    visitor(node, ctx)
        # Deduplicate (nested scans may revisit a node) and order findings.
        result.findings = sorted(set(ctx.findings), key=Finding.sort_key)
        return result

    def run(self, paths: Sequence[str | Path]) -> LintReport:
        """Analyze every Python file under ``paths`` and report findings."""
        files = self.expand_paths(paths)
        results: list[FileResult] = []
        for path in files:
            try:
                source = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise AnalysisError(f"cannot read {path}: {exc}") from exc
            results.append(self.analyze_source(path, source))
        kept = [
            f for result in results for f in result.findings if not result.suppresses(f)
        ]
        return LintReport(
            findings=sorted(kept, key=Finding.sort_key),
            files_checked=len(files),
        )
