"""simsan: the opt-in runtime invariant sanitizer for simulator runs.

simsan checks the simulator's invariants on a *live run*, every
round: kernel-boundary contracts, traffic/energy
conservation, fault accounting, cache freezing, and a differential
re-execution of the channel kernel against a dense reference operand
(the certification gate for any new backend).

Enablement (all three routes build the same :class:`Sanitizer`):

* ``sanitize=True`` on ``ArrayEngine``/``BatchEngine`` and
  the ``run_broadcast*`` runners;
* ``--sanitize`` on the demo CLI;
* ``REPRO_SANITIZE=1`` in the environment (e.g. for a whole pytest run)
  — consulted whenever ``sanitize`` is left as ``None``.

Violations raise :class:`~repro.errors.SanitizerError`; differential
(``diff.*``) findings can then be localized to their first divergent
round with ``python -m repro.analysis.simsan.bisect``.  Run
``python -m repro.analysis.simsan`` for the registered check table.

This package deliberately never imports the engine modules at import
time (the engines import *it*); only :mod:`repro.analysis.simsan.bisect`
— imported on demand — builds engines.
"""

from repro.analysis.simsan.checks import (
    cache_discipline_violation,
    crashed_plan_violation,
    mask_contract_violation,
)
from repro.analysis.simsan.core import (
    CHECKS,
    CheckInfo,
    Sanitizer,
    SanitizerConfig,
    sanitize_from_env,
)
from repro.analysis.simsan.differential import DifferentialChecker

__all__ = [
    "CHECKS",
    "CheckInfo",
    "DifferentialChecker",
    "Sanitizer",
    "SanitizerConfig",
    "cache_discipline_violation",
    "crashed_plan_violation",
    "mask_contract_violation",
    "sanitize_from_env",
]
