"""Determinism rules: seeded RNG discipline (SL001) and wall-clock bans (SL002).

Every run in this repo must be a pure function of ``(topology, protocol,
seed)``.  That only holds if randomness flows exclusively through
:mod:`repro.sim.rng`'s ``SeedSequence``-derived streams and nothing in
the result path reads the wall clock.  These rules make both properties
checkable without executing anything.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, attribute_chain, path_has_segments

__all__ = ["GlobalRngRule", "WallClockRule"]

#: numpy.random symbols compatible with explicit seeding.
_ALLOWED_NP_RANDOM = frozenset(
    {"SeedSequence", "Generator", "BitGenerator", "PCG64", "default_rng"}
)


def _canonical(ctx: FileContext, node: ast.AST) -> list[str] | None:
    chain = attribute_chain(node)
    if chain is None:
        return None
    return ctx.imports.canonical(chain)


class GlobalRngRule(Rule):
    """SL001 — no global/unseeded RNG anywhere under ``sim/``."""

    id = "SL001"
    title = "no global RNG under sim/"
    doc = (
        "Simulator code must draw randomness only from repro.sim.rng's\n"
        "SeedSequence-derived per-node streams.  Global state — the stdlib\n"
        "`random` module, `np.random.*` module-level functions (np.random.seed,\n"
        "np.random.rand, ...), or `np.random.default_rng()` called without an\n"
        "explicit seed — makes runs depend on interpreter history and breaks\n"
        "bitwise reproducibility across backends and batch shapes.\n"
        "\n"
        "Allowed: numpy.random.SeedSequence / Generator / BitGenerator / PCG64,\n"
        "and default_rng(seed) with an explicit non-None seed.\n"
        "Fix: thread a stream from repro.sim.rng.stream(...) or the run's SeededStreams.\n"
        "Suppress a deliberate exception with  # simlint: disable=SL001"
    )

    def applies_to(self, path: str) -> bool:
        return path_has_segments(path, ("sim",))

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        for alias in node.names:
            if alias.name == "random":
                ctx.report(
                    self.id,
                    node,
                    "stdlib `random` is global-state RNG; use repro.sim.rng streams",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.level != 0 or node.module is None:
            return
        if node.module == "random" or node.module.startswith("random."):
            ctx.report(
                self.id,
                node,
                "stdlib `random` is global-state RNG; use repro.sim.rng streams",
            )
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _ALLOWED_NP_RANDOM:
                    ctx.report(
                        self.id,
                        node,
                        f"numpy.random.{alias.name} uses the global RNG; "
                        "allowed: " + ", ".join(sorted(_ALLOWED_NP_RANDOM)),
                    )

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        canonical = _canonical(ctx, node)
        if (
            canonical is not None
            and len(canonical) == 3
            and canonical[:2] == ["numpy", "random"]
            and canonical[2] not in _ALLOWED_NP_RANDOM
        ):
            ctx.report(
                self.id,
                node,
                f"numpy.random.{canonical[2]} uses the global RNG; "
                "use repro.sim.rng streams",
            )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        canonical = _canonical(ctx, node.func)
        if canonical is None:
            return
        if canonical == ["numpy", "random", "default_rng"]:
            if self._seedless(node):
                ctx.report(
                    self.id,
                    node,
                    "default_rng() without an explicit seed is entropy-seeded "
                    "and irreproducible; pass a seed or SeedSequence",
                )
        elif (
            isinstance(node.func, ast.Name)
            and len(canonical) == 3
            and canonical[:2] == ["numpy", "random"]
            and canonical[2] not in _ALLOWED_NP_RANDOM
        ):
            # `from numpy.random import shuffle; shuffle(...)` — the import
            # is flagged too, but the call site is where the fix happens.
            ctx.report(
                self.id,
                node,
                f"numpy.random.{canonical[2]} uses the global RNG; "
                "use repro.sim.rng streams",
            )

    @staticmethod
    def _seedless(node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for kw in node.keywords:
            if kw.arg == "seed":
                return isinstance(kw.value, ast.Constant) and kw.value.value is None
        return True


#: ``basename -> permitted time symbols``: telemetry timing in the batch
#: engine may use monotonic timers (RunTelemetry is deliberately excluded
#: from equivalence checks), but nothing else in sim/core may touch time.
_TIME_ALLOWLIST: dict[str, frozenset[str]] = {
    "batch.py": frozenset(
        {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
    ),
}

_DATETIME_NOW = frozenset({"now", "today", "utcnow"})


class WallClockRule(Rule):
    """SL002 — no wall-clock/time dependence inside ``sim/core/``."""

    id = "SL002"
    title = "no wall-clock reads in sim/core/"
    doc = (
        "sim/core holds the result types and round loops whose outputs must be\n"
        "bitwise-identical across backends and machines, so nothing there may\n"
        "read `time.*` or `datetime.now/today/utcnow`.  Telemetry modules are\n"
        "allowlisted for monotonic timers only (batch.py: time.perf_counter and\n"
        "friends feed RunTelemetry, which equivalence checks deliberately skip).\n"
        "Fix: move timing into telemetry/observer code outside the result path,\n"
        "or record rounds/events instead of seconds.\n"
        "Suppress a deliberate exception with  # simlint: disable=SL002"
    )

    def applies_to(self, path: str) -> bool:
        return path_has_segments(path, ("sim", "core"))

    def _allowed(self, ctx: FileContext, symbol: str) -> bool:
        return symbol in _TIME_ALLOWLIST.get(ctx.basename, frozenset())

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.level != 0 or node.module != "time":
            return
        for alias in node.names:
            if not self._allowed(ctx, alias.name):
                ctx.report(
                    self.id,
                    node,
                    f"time.{alias.name} imported in sim/core; results must not "
                    "depend on the clock",
                )

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        canonical = _canonical(ctx, node)
        if canonical is None or len(canonical) < 2:
            return
        if canonical[0] == "time":
            if not self._allowed(ctx, canonical[1]):
                ctx.report(
                    self.id,
                    node,
                    f"time.{canonical[1]} in sim/core; results must not depend "
                    "on the clock",
                )
        elif canonical[0] == "datetime" and canonical[-1] in _DATETIME_NOW:
            ctx.report(
                self.id,
                node,
                f"datetime …{canonical[-1]}() in sim/core; results must not "
                "depend on the clock",
            )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not isinstance(node.func, ast.Name):
            return
        canonical = _canonical(ctx, node.func)
        if canonical is None:
            return
        if canonical[0] == "time" and len(canonical) == 2:
            if not self._allowed(ctx, canonical[1]):
                ctx.report(
                    self.id,
                    node,
                    f"time.{canonical[1]} in sim/core; results must not depend "
                    "on the clock",
                )
        elif canonical[0] == "datetime" and canonical[-1] in _DATETIME_NOW:
            ctx.report(
                self.id,
                node,
                f"datetime …{canonical[-1]}() in sim/core; results must not "
                "depend on the clock",
            )
