"""Run-time analysis of the simulator.

``repro.analysis`` is the parent package of :mod:`repro.analysis.simsan`,
the opt-in runtime sanitizer and cross-backend divergence bisector.  The
source rules that keep a run a pure function of its seed (no global RNG,
no clock, no set order, operands built only by the factories, no backend
branch outside the kernels) are a test, ``tests/test_source_rules.py``.
"""
