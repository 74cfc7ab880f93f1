"""Oracle-coverage rule (SL005): every array protocol has an equivalence test.

Each protocol is implemented once, as a whole-network array protocol
(``@register_array_protocol``).  The repo's correctness guarantee is that
it matches a per-node reference implementation (the test suite's oracles)
bit for bit on shared seeds, and that the channel backends agree with one
another.  Those checks live in the equivalence test modules, so a protocol
whose name never shows up in one is unchecked; this rule makes that
lintable.

This is the one cross-file rule: each file contributes *facts* (names it
registers, tokens of equivalence test modules) and the verdicts are
computed in :meth:`RegistryCompletenessRule.finalize` over the whole run.
"""

from __future__ import annotations

import ast
import re
from typing import Any

from repro.analysis.core import FileContext, Finding, Rule, attribute_chain

__all__ = ["RegistryCompletenessRule"]

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def _decorator_registration(node: ast.expr, register_name: str) -> str | None:
    """The registered name if ``node`` is ``@register_name("...")``, else None."""
    if not isinstance(node, ast.Call) or not node.args:
        return None
    chain = attribute_chain(node.func)
    if chain is None or chain[-1] != register_name:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


class RegistryCompletenessRule(Rule):
    """SL005 — every registered array protocol needs an oracle (equivalence) test."""

    id = "SL005"
    title = "protocol oracle coverage"
    doc = (
        "A protocol registered with @register_array_protocol(name) is only\n"
        "covered by the repo's correctness guarantee when the name shows up in\n"
        "at least one equivalence test module (tests/test_*equivalence*.py) —\n"
        "that is where oracle/array and backend bitwise-identity is enforced.\n"
        "This project-level rule fires on the registering line when no such\n"
        "module mentions the name.  The check is skipped when no equivalence\n"
        "module is part of the analyzed set (e.g. linting a single file).\n"
        "Fix: add the protocol to an equivalence test; suppress a deliberately\n"
        "unchecked protocol with  # simlint: disable=SL005"
    )

    def begin_file(self, ctx: FileContext) -> None:
        self._array: dict[str, int] = {}

    def visit_ClassDef(self, node: ast.ClassDef, ctx: FileContext) -> None:
        for decorator in node.decorator_list:
            name = _decorator_registration(decorator, "register_array_protocol")
            if name is not None:
                self._array.setdefault(name, node.lineno)

    def end_file(self, ctx: FileContext) -> None:
        if self._array:
            ctx.facts["array_protocols"] = dict(sorted(self._array.items()))
        if "equivalence" in ctx.basename and ctx.basename.startswith("test"):
            ctx.facts["equivalence_tokens"] = sorted(
                set(_TOKEN_RE.findall(ctx.source.lower()))
            )

    def finalize(self, facts: dict[str, dict[str, Any]]) -> list[Finding]:
        sites: dict[str, tuple[str, int]] = {}
        equivalence_tokens: set[str] = set()
        for path in sorted(facts):
            file_facts = facts[path]
            for name, line in file_facts.get("array_protocols", {}).items():
                sites.setdefault(name, (path, int(line)))
            equivalence_tokens.update(file_facts.get("equivalence_tokens", ()))
        if not equivalence_tokens:
            return []
        return [
            Finding(
                rule=self.id,
                path=path,
                line=line,
                col=0,
                message=(
                    f"protocol {name!r} never appears in an equivalence test "
                    "module; it has no oracle test"
                ),
            )
            for name, (path, line) in sorted(sites.items())
            if not any(name.lower() in token for token in equivalence_tokens)
        ]
