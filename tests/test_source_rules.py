"""Source rules that keep every simulated run a pure function of its seed.

A run must depend only on (topology, protocol, seed), so the simulator
source under ``src/repro/sim`` obeys six rules, checked here on its AST
with ``import … as`` and ``from … import … as`` aliases resolved:

* global-rng (all of ``sim/``): no stdlib ``random``; ``numpy.random`` only
  in ``rng.py``, and there nothing beyond ``SeedSequence``/``Generator``/
  ``BitGenerator``/``PCG64``/``default_rng``, with ``default_rng`` only
  given an explicit non-``None`` seed.  Randomness flows through
  :mod:`repro.sim.rng`.
* stream-scope (all of ``sim/``): ``rng.stream`` is used only where a
  run's inputs are sampled — ``topology.py`` and
  ``faults.sample_fault_schedule`` — so no stream, and no stream state,
  reaches the round loop; its coins are keyed (``rng.keyed_coins``).
* clock (``sim/core/``): no ``time.*`` and no ``datetime.now/today/utcnow``;
  ``core/batch.py`` may read the monotonic timers that feed its telemetry.
* set-order (``sim/core/``): a set display, set comprehension or
  ``set()``/``frozenset()`` call appears only as an argument of
  ``sorted(...)``, so no hash order reaches the round loop or the kernel.
* operand-build (all of ``sim/``): ``DenseOperand``/``SparseOperand``/
  ``BitOperand`` are called only in ``core/channel.py`` and inside the
  factories ``select_kernel_operand``/``operand_from_csr``, which own the
  channel-backend policy.
* backend-branch (all of ``sim/``): no comparison reads a name or
  attribute ending in ``backend`` (``_backend``, ``channel_backend``)
  outside ``core/channel.py`` and ``core/batch.py``, which hold the
  kernels and the backend policy.  The sanitizer's differential check re-resolves
  every kernel round on the dense reference, and the bisector is one
  sanitized run; a backend branch in fault perception, or in the
  adjacency an edge flip rebuilds, would make backends diverge where
  that check cannot see.
"""

import ast
from pathlib import Path

import pytest

SIM = Path(__file__).resolve().parent.parent / "src" / "repro" / "sim"
SIM_FILES = sorted(path.relative_to(SIM).as_posix() for path in SIM.rglob("*.py"))

SEEDED_NP_RANDOM = {"SeedSequence", "Generator", "BitGenerator", "PCG64", "default_rng"}
TELEMETRY_TIMERS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
OPERANDS = {"DenseOperand", "SparseOperand", "BitOperand"}
FACTORIES = {"select_kernel_operand", "operand_from_csr"}
#: The files that may import ``rng.stream``, and the one function in each
#: that may use it (``None``: any).
STREAM_SCOPES = {"topology.py": None, "faults.py": "sample_fault_schedule"}
STREAM = "repro.sim.rng.stream"
#: The files that may branch on the channel backend.
BACKEND_POLICY = {"core/channel.py", "core/batch.py"}


def _bound(node: ast.Import | ast.ImportFrom, rel: str) -> dict[str, str]:
    """Each name one import statement binds, mapped to its dotted origin."""
    if isinstance(node, ast.Import):
        return {
            alias.asname or alias.name.split(".")[0]: (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            for alias in node.names
        }
    package = ["repro", "sim", *rel.split("/")[:-1]]
    base = package[: len(package) + 1 - node.level] if node.level else []
    module = ".".join([*base, *([node.module] if node.module else [])])
    return {alias.asname or alias.name: f"{module}.{alias.name}" for alias in node.names}


def _origin(node: ast.AST, origins: dict[str, str]) -> str | None:
    """``np.random.rand`` as ``"numpy.random.rand"``; ``None`` unless imported."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in origins:
        return ".".join([origins[node.id], *reversed(attrs)])
    return None


def _seedless(call: ast.Call) -> bool:
    seeds = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "seed"]
    return not seeds or (isinstance(seeds[0], ast.Constant) and seeds[0].value is None)


def _is_set(node: ast.AST) -> bool:
    return isinstance(node, ast.Set | ast.SetComp) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def _names_backend(node: ast.AST) -> bool:
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name.endswith("backend")


def violations(rel: str, source: str) -> list[tuple[str, int, str]]:
    """``(rule, line, what)`` for each rule broken by ``src/repro/sim/<rel>``."""
    tree = ast.parse(source)
    origins = {
        name: origin
        for node in ast.walk(tree)
        if isinstance(node, ast.Import | ast.ImportFrom)
        for name, origin in _bound(node, rel).items()
    }
    core = rel.startswith("core/")
    found = []

    def check_name(name: str, node: ast.AST) -> None:
        parts = name.split(".")
        if parts[0] == "random" or (
            parts[:2] == ["numpy", "random"]
            and (rel != "rng.py" or (len(parts) > 2 and parts[2] not in SEEDED_NP_RANDOM))
        ):
            found.append(("global-rng", node.lineno, name))
        timer = rel == "core/batch.py" and parts[-1] in TELEMETRY_TIMERS
        clock = (parts[0] == "time" and len(parts) > 1 and not timer) or (
            parts[0] == "datetime" and parts[-1] in {"now", "today", "utcnow"}
        )
        if core and clock:
            found.append(("clock", node.lineno, name))

    def visit(node: ast.AST, parent: ast.AST | None, scope: str | None) -> None:
        if isinstance(node, ast.Import | ast.ImportFrom):
            for origin in _bound(node, rel).values():
                check_name(origin, node)
                if origin == STREAM and rel not in STREAM_SCOPES:
                    found.append(("stream-scope", node.lineno, origin))
        elif isinstance(node, ast.Attribute | ast.Name):
            origin = _origin(node, origins)
            if origin is not None and not isinstance(parent, ast.Attribute):
                check_name(origin, node)
                if origin == STREAM and STREAM_SCOPES.get(rel, "") not in (None, scope):
                    found.append(("stream-scope", node.lineno, origin))
        if isinstance(node, ast.Call):
            origin = _origin(node.func, origins) or ast.unparse(node.func)
            if origin == "numpy.random.default_rng" and _seedless(node):
                found.append(("global-rng", node.lineno, "default_rng without a seed"))
            if (
                origin.rsplit(".", 1)[-1] in OPERANDS
                and rel != "core/channel.py"
                and scope not in FACTORIES
            ):
                found.append(("operand-build", node.lineno, origin))
        if (
            isinstance(node, ast.Compare)
            and rel not in BACKEND_POLICY
            and any(_names_backend(part) for part in ast.walk(node))
        ):
            found.append(("backend-branch", node.lineno, ast.unparse(node)))
        if core and _is_set(node) and not (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
            and node in parent.args
        ):
            found.append(("set-order", node.lineno, ast.unparse(node)))
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, node, scope)

    visit(tree, None, None)
    return found


@pytest.mark.parametrize("rel", SIM_FILES)
def test_sim_source_follows_the_rules(rel):
    assert violations(rel, (SIM / rel).read_text(encoding="utf-8")) == []


def test_sim_files_are_found():
    assert {"core/batch.py", "core/channel.py", "decay.py", "rng.py"} <= set(SIM_FILES)


@pytest.mark.parametrize(
    "rel, source, rule",
    [
        ("decay.py", "import random", "global-rng"),
        ("decay.py", "from random import choice", "global-rng"),
        ("decay.py", "import numpy as _np\n_np.random.rand()", "global-rng"),
        ("decay.py", "from numpy import random as r\nr.seed(1)", "global-rng"),
        ("decay.py", "from numpy.random import shuffle", "global-rng"),
        ("rng.py", "import numpy as np\nnp.random.default_rng()", "global-rng"),
        ("rng.py", "from numpy.random import default_rng\ndefault_rng(None)", "global-rng"),
        ("rng.py", "from numpy.random import default_rng\ndefault_rng(seed=None)", "global-rng"),
        ("rng.py", "import numpy as np\nnp.random.default_rng(np.random.SeedSequence(3))", None),
        ("rng.py", "from numpy.random import PCG64, Generator\nGenerator(PCG64(7))", None),
        ("core/stats.py", "import time\ntime.time()", "clock"),
        ("core/batch.py", "import time\ntime.time()", "clock"),
        ("core/stats.py", "from datetime import datetime\ndatetime.now()", "clock"),
        ("core/stats.py", "import datetime as dt\ndt.datetime.utcnow()", "clock"),
        ("core/stats.py", "from time import perf_counter", "clock"),
        ("core/batch.py", "from time import monotonic\nmonotonic()", None),
        ("core/batch.py", "import time\ntime.perf_counter()", None),
        ("demo.py", "import time\ntime.time()", None),
        ("core/batch.py", "for x in set(xs):\n    pass", "set-order"),
        ("core/batch.py", "list({x for x in xs})", "set-order"),
        ("core/batch.py", "t = tuple(frozenset(xs))", "set-order"),
        ("core/channel.py", "sorted({g.n for g in graphs})", None),
        ("faults.py", "for x in set(xs):\n    pass", None),
        (
            "faults.py",
            "from repro.sim.core import channel as _ch\n_ch.SparseOperand(p, i)",
            "operand-build",
        ),
        ("core/stats.py", "from .channel import BitOperand\nBitOperand(p, i)", "operand-build"),
        ("decay.py", "from .core.channel import DenseOperand as D\nD(a)", "operand-build"),
        (
            "core/batch.py",
            "from repro.sim.core.channel import DenseOperand\n"
            "def f(a):\n    return DenseOperand(a)",
            "operand-build",
        ),
        (
            "core/batch.py",
            "from .channel import SparseOperand\n"
            "def select_kernel_operand(network):\n    return SparseOperand(*network.csr())",
            None,
        ),
        ("faults.py", "SparseOperand(*network.csr())", "operand-build"),
        ("core/channel.py", "DenseOperand(a)", None),
        ("faults.py", "from .core.channel import DenseOperand\nisinstance(op, DenseOperand)", None),
        ("decay.py", "from numpy.random import Generator", "global-rng"),
        ("topology.py", "import numpy as np\nx: np.random.Generator", "global-rng"),
        ("decay.py", "from repro.sim.rng import stream\nstream(0, 1)", "stream-scope"),
        ("core/batch.py", "from ..rng import stream", "stream-scope"),
        ("decay.py", "from repro.sim import rng\nrng.stream(0, 1)", "stream-scope"),
        ("topology.py", "from repro.sim import rng\nrng.stream(0, 1)", None),
        ("topology.py", "from .rng import stream\ndef f(seed):\n    return stream(seed, 1)", None),
        ("faults.py", "from .rng import stream\ndef f(seed):\n    return stream(seed, 3)", "stream-scope"),
        (
            "faults.py",
            "from .rng import stream\ndef sample_fault_schedule(seed):\n    return stream(seed, 3)",
            None,
        ),
        ("faults.py", 'if self._backend != "dense":\n    pass', "backend-branch"),
        ("decay.py", 'x = 1 if ctx.params.channel_backend == "sparse" else 0', "backend-branch"),
        ("core/stats.py", 'ok = "bitpacked" in (op.backend,)', "backend-branch"),
        ("core/stats.py", 'ok = backend in ("dense", "bitpacked")', "backend-branch"),
        ("core/batch.py", 'if backend == "sparse":\n    pass', None),
        ("faults.py", "operand = operand_from_csr(self._backend, *self._csr)", None),
    ],
)
def test_rule_fires(rel, source, rule):
    assert {found[0] for found in violations(rel, source)} == ({rule} if rule else set())
