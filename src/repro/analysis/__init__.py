"""Static analysis for the simulator: determinism & kernel-contract lints.

``repro.analysis`` hosts **simlint**, an AST-based checker enforcing the
repo's load-bearing invariants at lint time instead of test time:

* seeded-RNG discipline (SL001) and wall-clock independence (SL002),
  which keep runs bitwise-reproducible;
* the kernel-operand contract (SL003) and read-only cache discipline
  (SL004), which keep the dense/sparse/bitpacked backends interchangeable;
* oracle coverage (SL005) and ordered iteration in hot paths
  (SL006), which keep every protocol checked against its per-node oracle
  and its iteration order deterministic.

Run it as ``python -m repro.analysis.simlint src tests``.  Suppress a
single finding with a ``# simlint: disable=SL00X`` comment on the same
line; see ``--explain SL00X`` for per-rule documentation.
"""

from repro.analysis.core import (
    FileContext,
    Finding,
    LintReport,
    Rule,
    RuleEngine,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "RuleEngine",
]
