"""Kernel-contract rule: operand-construction routing (SL007).

The channel backend is a policy decision (``select_kernel_operand``), so
simulator code must not build an operand class by hand.  The operand
surface itself is the runtime-checkable
:class:`~repro.sim.core.channel.KernelOperand` protocol, and the cached
topology arrays are frozen by numpy's read-only flags; both are checked
by tests, not here.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    FileContext,
    Rule,
    ast_dfs,
    attribute_chain,
    path_has_segments,
)

__all__ = ["OperandConstructionRule"]

#: the concrete kernel-operand classes (repro.sim.core.channel).
_OPERAND_CLASS_NAMES = frozenset({"BitOperand", "DenseOperand", "SparseOperand"})

#: functions allowed to construct operands directly: the policy factory
#: and the CSR rebuild helper the fault layer uses.
_FACTORY_FUNCTION_NAMES = frozenset({"operand_from_csr", "select_kernel_operand"})


class OperandConstructionRule(Rule):
    """SL007 — sim code builds operands via ``select_kernel_operand`` only."""

    id = "SL007"
    title = "operand construction routed through select_kernel_operand"
    doc = (
        "Code under sim/ may not call DenseOperand / SparseOperand /\n"
        "BitOperand directly: every operand must come from\n"
        "select_kernel_operand (or operand_from_csr for raw CSR input),\n"
        "which owns the backend-selection policy and always builds from\n"
        "the network's frozen cached arrays.  A direct construction\n"
        "bypasses the `backend=\"auto\"` policy, and a hand-built dense\n"
        "matrix or CSR pair can silently disagree with the topology the\n"
        "rest of the run uses.  The defining module\n"
        "(sim/core/channel.py) and the factories themselves are exempt.\n"
        "Tests and tooling outside sim/ (benches, simsan) may construct\n"
        "operands freely.  Suppress a deliberate in-sim construction with\n"
        "  # simlint: disable=SL007"
    )

    def applies_to(self, path: str) -> bool:
        return path_has_segments(path, ("sim",))

    def visit_Module(self, node: ast.Module, ctx: FileContext) -> None:
        self._check_scope(node, ctx)

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        self._check_scope(node, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef, ctx: FileContext) -> None:
        self._check_scope(node, ctx)

    def visit_ClassDef(self, node: ast.ClassDef, ctx: FileContext) -> None:
        # Class-body statements (attribute defaults); methods get their
        # own visit, and skip_nested_defs keeps them out of this scan.
        self._check_scope(node, ctx)

    def _check_scope(
        self,
        scope: ast.Module | ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
    ) -> None:
        if ctx.basename == "channel.py" and path_has_segments(ctx.path, ("sim", "core")):
            return
        if (
            isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            and scope.name in _FACTORY_FUNCTION_NAMES
        ):
            return
        for node in ast_dfs(scope, skip_nested_defs=True):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            canonical = ctx.imports.canonical(chain)
            if canonical is None or canonical[0] != "repro":
                continue
            name = canonical[-1]
            if name in _OPERAND_CLASS_NAMES:
                ctx.report(
                    self.id,
                    node,
                    f"direct {name}(...) construction in sim/ code; go through "
                    "select_kernel_operand (or operand_from_csr) instead",
                )
