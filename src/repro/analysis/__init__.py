"""Static analysis for the simulator: determinism & kernel-contract lints.

``repro.analysis`` hosts **simlint**, an AST-based checker enforcing the
repo's load-bearing invariants that no runtime check covers:

* seeded-RNG discipline (SL001) and wall-clock independence (SL002),
  which keep runs bitwise-reproducible;
* oracle coverage (SL005) and ordered iteration in hot paths
  (SL006), which keep every protocol checked against its per-node oracle
  and its iteration order deterministic;
* operand construction through ``select_kernel_operand`` in ``sim/``
  code (SL007), which keeps the channel-backend policy in one place.

The kernel-operand surface is the runtime-checkable
:class:`~repro.sim.core.channel.KernelOperand` protocol and the cached
topology arrays are frozen by numpy's read-only flags; tests, and the
runtime sanitizer in :mod:`repro.analysis.simsan`, check those.

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
