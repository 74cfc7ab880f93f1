"""Tests for the simsan runtime sanitizer and the divergence bisector.

Three layers: clean sanitized runs across backends, engines, and fault
schedules must pass with zero violations; deliberately corrupted engines
must be caught with the right check id and round number; and the
bisector's one sanitized run must localize an injected wrong-feedback
backend to exactly the injected round, at any size, and write the repro
bundle its ``diff.*`` error carries.
"""

import dataclasses
import json

import numpy as np
import pytest

from oracles import run_oracle
from repro.analysis.simsan import (
    CHECKS,
    DifferentialChecker,
    Sanitizer,
    SanitizerConfig,
    cache_discipline_violation,
    crashed_plan_violation,
    mask_contract_violation,
    sanitize_from_env,
)
from repro.analysis.simsan.bisect import (
    ReplaySpec,
    WrongFeedbackOperand,
    bisect_run,
    write_bundle,
)
from repro.analysis.simsan.bisect import main as bisect_main
from repro.errors import BroadcastFailure, SanitizerError
from repro.params import ProtocolParams
from repro.sim.core.array_protocol import RoundPlan
from repro.sim.core.batch import ArrayEngine, select_kernel_operand
from repro.sim.core.channel import pack_mask, resolve_channel
from repro.sim.core.stats import conservation_violation
from repro.sim.faults import sample_fault_schedule
from repro.sim.runners import broadcast_spec, run_broadcast, run_broadcast_batch
from repro.sim.topology import from_spec

BACKENDS = ("dense", "sparse", "bitpacked")


def _params(backend, **overrides):
    return ProtocolParams.fast().with_overrides(channel_backend=backend, **overrides)


def _decay_engine(net, *, seed=0, sanitize=None, backend="dense", **kwargs):
    return ArrayEngine(
        net,
        broadcast_spec("decay").array_factory(),
        seed=seed,
        params=_params(backend),
        sanitize=sanitize,
        **kwargs,
    )


# --------------------------------------------------------------------- #
# Clean sanitized runs: every backend, both engines, every fault family
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ("array", "object"))
def test_sanitized_fault_runs_pass_clean(backend, engine):
    # "object" drives the per-node oracles through the adapter.
    run = run_broadcast if engine == "array" else run_oracle
    net = from_spec("gnp", 60, seed=3, p=0.15)
    for knobs in (
        {"crash_rate": 0.1},
        {"loss_rate": 0.2},
        {"jammers": 2},
        {"edge_flip_rate": 0.02},
    ):
        faults = sample_fault_schedule(net, seed=3, horizon=400, **knobs)
        params = _params(backend)
        budget = 4 * broadcast_spec("ghk").budget_for(params, net, net.n, {})
        result = run("ghk", net, params, seed=3, budget=budget, sanitize=True, faults=faults)
        assert result.sim.rounds_run > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_sanitized_runs_match_unsanitized(backend):
    net = from_spec("grid", 49, seed=1)
    params = _params(backend)
    on = run_broadcast("decay", net, params, seed=5, sanitize=True)
    off = run_broadcast("decay", net, params, seed=5, sanitize=False)
    assert on.rounds_to_delivery == off.rounds_to_delivery
    assert on.sim.total_transmissions == off.sim.total_transmissions
    assert on.informed_rounds == off.informed_rounds


def test_batch_fused_path_is_sanitized_and_clean():
    nets = [from_spec("grid", 36, seed=s) for s in range(3)]
    results = run_broadcast_batch(
        "decay", nets, seeds=[0, 1, 2], params=ProtocolParams.fast(), sanitize=True
    )
    assert len(results) == 3
    assert not any(isinstance(r, BroadcastFailure) for r in results)


def test_sampled_differential_mode_runs_clean():
    # Tiny full_diff_max_n forces the sampled-row path on a small network.
    net = from_spec("grid", 49, seed=2)
    config = SanitizerConfig(full_diff_max_n=8, diff_sample_rows=16)
    engine = _decay_engine(net, seed=2, sanitize=config, backend="bitpacked")
    result = engine.run(500, stop_when=lambda eng: eng.protocol.done())
    assert result.rounds_run > 0


# --------------------------------------------------------------------- #
# Enablement: parameter, environment variable, and the off switch
# --------------------------------------------------------------------- #

def test_sanitize_from_env_parsing():
    assert not sanitize_from_env({})
    for value in ("", "0", "false", "NO", "off"):
        assert not sanitize_from_env({"REPRO_SANITIZE": value})
    for value in ("1", "true", "YES", "on", "anything-else"):
        assert sanitize_from_env({"REPRO_SANITIZE": value})


def test_env_variable_opts_engines_in(monkeypatch):
    net = from_spec("grid", 16, seed=0)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert _decay_engine(net).sanitized
    # An explicit sanitize=False beats the environment.
    assert not _decay_engine(net, sanitize=False).sanitized
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not _decay_engine(net).sanitized
    assert _decay_engine(net, sanitize=True).sanitized


# --------------------------------------------------------------------- #
# Detection: corrupted engines are caught with check id + round number
# --------------------------------------------------------------------- #

class _BadPlanProtocol:
    """Emits one configurable bad plan; honest listening otherwise."""

    def __init__(self, bad_round, make_plan):
        self._bad_round = bad_round
        self._make_plan = make_plan
        self._n = 0

    def setup(self, ctx):
        self._n = ctx.n_nodes

    def act(self, round_index):
        if round_index == self._bad_round:
            return self._make_plan(self._n)
        return RoundPlan(
            transmit=np.zeros(self._n, dtype=bool),
            listen=np.ones(self._n, dtype=bool),
        )

    def on_feedback(self, round_index, channel):
        pass

    def done(self):
        return False


def _engine_with_protocol(protocol, *, n=16, sanitize=True):
    net = from_spec("grid", n, seed=0)
    return ArrayEngine(
        net,
        protocol,
        seed=0,
        params=ProtocolParams.fast(),
        sanitize=sanitize,
    )


def test_overlapping_masks_raise_kernel_disjoint_with_round():
    def overlap(n):
        everyone = np.ones(n, dtype=bool)
        return RoundPlan(transmit=everyone, listen=everyone)

    engine = _engine_with_protocol(_BadPlanProtocol(2, overlap))
    engine.step()
    engine.step()
    with pytest.raises(SanitizerError) as excinfo:
        engine.step()
    err = excinfo.value
    assert err.check == "kernel.disjoint"
    assert err.round_index == 2
    assert err.backend in BACKENDS
    assert "round=2" in str(err)


def test_non_boolean_masks_raise_mask_shape():
    def int_masks(n):
        return RoundPlan(
            transmit=np.zeros(n, dtype=np.int8),
            listen=np.ones(n, dtype=np.int8),
        )

    engine = _engine_with_protocol(_BadPlanProtocol(0, int_masks))
    with pytest.raises(SanitizerError) as excinfo:
        engine.step()
    assert excinfo.value.check == "kernel.mask-shape"
    assert excinfo.value.round_index == 0


def test_skewed_traffic_counter_raises_conserve_traffic():
    net = from_spec("grid", 36, seed=1)
    engine = _decay_engine(net, seed=1, sanitize=True)
    for _ in range(3):
        engine.step()
    engine._traffic[0, 5] += 1  # corrupt node 5's transmissions counter
    with pytest.raises(SanitizerError) as excinfo:
        engine.step()
    err = excinfo.value
    assert err.check == "conserve.traffic"
    assert err.round_index == 3
    assert err.details["node"] == 5
    assert err.details["row"] == "transmissions"


def test_post_resolve_mask_mutation_raises_differential_check():
    net = from_spec("grid", 36, seed=4)
    engine = _decay_engine(net, seed=4, sanitize=True)
    plan = engine.begin_round()
    channel = engine.resolve_round()
    # Corrupt the already-resolved plan: flip a non-listening node's
    # transmit bit, so the dense reference recomputation disagrees with
    # the channel the kernel actually produced.
    victim = int(np.flatnonzero(~plan.listen)[0])
    plan.transmit[victim] = not plan.transmit[victim]
    with pytest.raises(SanitizerError) as excinfo:
        engine.complete_round(channel)
    assert excinfo.value.check.startswith("diff.")
    assert excinfo.value.round_index == 0


def test_wrong_feedback_operand_caught_at_injected_round():
    net = from_spec("grid", 36, seed=2)
    params = _params("sparse")
    operand = WrongFeedbackOperand(select_kernel_operand(net, params), wrong_from=4)
    engine = ArrayEngine(
        net,
        broadcast_spec("ghk").array_factory(),
        seed=2,
        params=params,
        kernel_operand=operand,
        sanitize=True,
    )
    with pytest.raises(SanitizerError) as excinfo:
        engine.run(500, stop_when=lambda eng: eng.protocol.done())
    err = excinfo.value
    assert err.check.startswith("diff.")
    assert err.round_index == 4
    assert err.backend == "sparse"


@pytest.mark.parametrize("full_max_n", [36, 8], ids=["full", "sampled"])
def test_feedback_finding_carries_active_and_reference(full_max_n):
    # Both differential modes report a feedback mismatch alike, so a
    # bundle's finding reads the same whichever mode found it.
    net = from_spec("grid", 36, seed=0)
    transmit = np.zeros(36, dtype=bool)
    transmit[[0, 14]] = True
    channel = resolve_channel(
        select_kernel_operand(net, _params("sparse")), transmit, ~transmit
    )
    node = int(np.flatnonzero(channel.clean)[0])
    clean, silent = channel.clean.copy(), channel.silent.copy()
    clean[node], silent[node] = False, True
    checker = DifferentialChecker(
        *net.csr(), full_max_n=full_max_n, sample_rows=36, rng=np.random.default_rng(0)
    )
    check, _, details = checker.check(
        transmit, ~transmit, dataclasses.replace(channel, clean=clean, silent=silent)
    )
    assert check == "diff.feedback"
    assert details == {"mask": "clean", "node": node, "active": False, "reference": True}


def test_unsanitized_engine_accepts_the_same_corruption():
    # The control: without the sanitizer the skewed counter goes unnoticed,
    # which is exactly why the detection tests above prove anything.
    net = from_spec("grid", 36, seed=1)
    engine = _decay_engine(net, seed=1, sanitize=False)
    assert not engine.sanitized
    for _ in range(3):
        engine.step()
    engine._traffic[0, 5] += 1
    engine.step()  # no error


# --------------------------------------------------------------------- #
# The pure check predicates
# --------------------------------------------------------------------- #

def test_mask_contract_violation_predicate():
    ok_t = np.array([True, False, False])
    ok_l = np.array([False, True, False])
    assert mask_contract_violation(3, ok_t, ok_l) is None
    check, _ = mask_contract_violation(3, ok_t.astype(np.int8), ok_l)
    assert check == "kernel.mask-shape"
    check, _ = mask_contract_violation(4, ok_t, ok_l)
    assert check == "kernel.mask-shape"
    check, message = mask_contract_violation(3, ok_t, np.array([True, True, False]))
    assert check == "kernel.disjoint"
    assert "node 0" in message


def test_crashed_plan_violation_predicate():
    transmit = np.array([True, False, False])
    listen = np.array([False, True, False])
    crashed = np.array([False, False, True])
    assert crashed_plan_violation(transmit, listen, crashed) is None
    problem = crashed_plan_violation(transmit, listen, np.array([True, False, False]))
    assert problem is not None and "node 0" in problem and "transmits" in problem


def test_cache_discipline_detects_thawed_cache():
    net = from_spec("grid", 16, seed=0)
    indptr, _ = net.csr()
    assert cache_discipline_violation(net, check_dense=False) is None
    indptr.setflags(write=True)
    try:
        problem = cache_discipline_violation(net, check_dense=False)
        assert problem is not None and "indptr" in problem
        with pytest.raises(SanitizerError) as excinfo:
            Sanitizer(
                SanitizerConfig(differential=False),
                network=net,
                operand=select_kernel_operand(net, _params("sparse")),
                seed=0,
            )
        assert excinfo.value.check == "cache.readonly"
        assert excinfo.value.round_index == -1
    finally:
        indptr.setflags(write=False)


def test_conservation_violation_predicate():
    net = from_spec("grid", 25, seed=0)
    result = run_broadcast("decay", net, ProtocolParams.fast(), seed=1).sim
    assert conservation_violation(result) is None
    skewed = dataclasses.replace(
        result, total_transmissions=result.total_transmissions + 1
    )
    problem = conservation_violation(skewed)
    assert problem is not None and "total_transmissions" in problem


# --------------------------------------------------------------------- #
# The divergence bisector
# --------------------------------------------------------------------- #

def test_sanitizer_error_carries_the_round_bundle():
    # A diff.* finding holds the repro bundle of its round: the packed
    # plan masks the kernel resolved and the adjacency version it ran on.
    net = from_spec("gnp", 60, seed=3, p=0.15)
    faults = sample_fault_schedule(net, seed=3, horizon=400, edge_flip_rate=0.05)
    params = _params("sparse")
    engine = ArrayEngine(
        net,
        broadcast_spec("ghk").array_factory(),
        seed=3,
        params=params,
        faults=faults,
        sanitize=True,
    )
    state = engine.fault_state
    while state.adjacency_version == 0:
        engine.step()
    while True:
        wrong = WrongFeedbackOperand(state.operand, wrong_from=0)
        state._operand = wrong  # corrupt the current adjacency's operand
        plan = engine.begin_round()
        channel = engine.resolve_round()
        if state.operand is wrong:  # no edge flip rebuilt it this round
            break
        engine.complete_round(channel)
    round_index = engine.round_index
    with pytest.raises(SanitizerError) as excinfo:
        engine.complete_round(channel)
    err = excinfo.value
    assert err.check == "diff.counts"
    assert err.round_index == round_index
    assert err.details["transmit_packed"] == pack_mask(plan.transmit).tolist()
    assert err.details["listen_packed"] == pack_mask(plan.listen).tolist()
    assert err.details["adjacency_version"] == state.adjacency_version > 0
    assert err.details["active"] == err.details["reference"] + 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_clean_bisection_runs_as_long_as_the_dense_reference(backend):
    # No injection, no divergence: the sanitized run on the suspect
    # backend goes to the end, the same rounds an unsanitized dense run takes.
    spec = ReplaySpec(protocol="ghk", topology="grid", n=36, seed=4, backend=backend)
    outcome = bisect_run(spec)
    assert outcome.error is None and outcome.divergent_round is None
    net = from_spec("grid", 36)
    params = _params("dense")
    reference = ArrayEngine(
        net, broadcast_spec("ghk").array_factory(), seed=4, params=params, sanitize=False
    )
    budget = broadcast_spec("ghk").budget_for(params, net, net.n, {})
    reference.run(budget, stop_when=lambda eng: eng.protocol.done())
    assert outcome.rounds == reference.round_index > 0


def test_backends_agree_without_injection():
    spec = ReplaySpec(protocol="decay", topology="gnp", n=60, seed=3, backend="sparse")
    for knobs in (
        {"crash_rate": 0.1},
        {"loss_rate": 0.2},
        {"jammers": 4},
        {"edge_flip_rate": 0.05},
    ):
        outcome = bisect_run(dataclasses.replace(spec, **knobs))
        assert outcome.divergent_round is None
        assert outcome.rounds > 0


@pytest.mark.parametrize(
    "spec, inject_at",
    [
        (ReplaySpec("ghk", "grid", 36, 4, "sparse"), 0),
        (ReplaySpec("ghk", "grid", 36, 4, "sparse"), 5),
        (ReplaySpec("ghk", "grid", 36, 4, "bitpacked"), 3),
        (ReplaySpec("decay", "grid", 25, 1, "bitpacked"), 2),
        (ReplaySpec("ghk", "grid", 49, 2, "bitpacked"), 7),
        # Above the sanitizer's default full-mode size (2048) only sampled
        # rows are compared, which first notice this injection at round
        # 22; the bisector must force the whole-round comparison.
        (ReplaySpec("ghk", "grid", 2500, 0, "sparse"), 3),
    ],
    ids=["0", "5", "grid36-bitpacked-3", "decay-grid25-2", "grid49-7", "grid2500-sparse-3"],
)
def test_bisector_pinpoints_injected_round_exactly(spec, inject_at):
    outcome = bisect_run(spec, inject_wrong_at=inject_at)
    assert outcome.divergent_round == inject_at
    assert outcome.error.check == "diff.counts"
    assert outcome.rounds == inject_at + 1


def test_bundle_contents(tmp_path):
    spec = ReplaySpec(
        protocol="ghk", topology="grid", n=36, seed=4, backend="bitpacked"
    )
    outcome = bisect_run(spec, inject_wrong_at=3)
    assert outcome.divergent_round == 3
    path = write_bundle(spec, outcome.error, tmp_path)
    bundle = json.loads(path.read_text())
    assert bundle["schema"] == "simsan-bundle-2"
    assert bundle["spec"] == dataclasses.asdict(spec)
    assert bundle["reference_backend"] == "dense"
    assert bundle["check"] == "diff.counts"
    assert bundle["divergent_round"] == 3
    assert bundle["adjacency_version"] == 0
    # The corruption lands when round 3 resolves, so round 3's plan is
    # the one an honest dense run makes.
    net = from_spec("grid", 36)
    honest = ArrayEngine(
        net, broadcast_spec("ghk").array_factory(), seed=4, params=_params("dense"),
        sanitize=False,
    )
    for _ in range(3):
        honest.step()
    plan = honest.begin_round()
    assert bundle["transmit_packed"] == pack_mask(plan.transmit).tolist()
    assert bundle["listen_packed"] == pack_mask(plan.listen).tolist()
    finding = bundle["finding"]
    assert finding["node"] == 0
    assert finding["active"] == finding["reference"] + 1


def test_bisect_cli_exit_codes(tmp_path, capsys):
    base = [
        "--protocol", "decay", "--topology", "grid", "--n", "25",
        "--seed", "1", "--backend", "bitpacked", "--out-dir", str(tmp_path),
    ]
    assert bisect_main(base) == 0
    assert "no divergence" in capsys.readouterr().out
    assert bisect_main([*base, "--inject-wrong-at", "2"]) == 1
    out = capsys.readouterr().out
    assert "first divergent round: 2" in out
    name = "simsan-bundle-decay-grid-n25-seed1-bitpacked-round2.json"
    assert name in out
    assert json.loads((tmp_path / name).read_text())["divergent_round"] == 2


def test_bisect_cli_rejects_injection_with_edge_flips(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        bisect_main(
            [
                "--topology", "grid", "--n", "25", "--backend", "sparse",
                "--edge-flip-rate", "0.1", "--inject-wrong-at", "1",
                "--out-dir", str(tmp_path),
            ]
        )
    assert excinfo.value.code == 2


# --------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------- #

def test_simsan_module_main_lists_every_check(capsys):
    from repro.analysis.simsan.__main__ import main as simsan_main

    assert simsan_main([]) == 0
    out = capsys.readouterr().out
    for check in CHECKS:
        assert check.id in out
    assert "REPRO_SANITIZE" in out


def test_demo_cli_sanitize_flag(capsys):
    from repro.sim.demo import main as demo_main

    code = demo_main(
        ["--topology", "grid", "--n", "25", "--protocol", "decay", "--json",
         "--sanitize"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sanitized"] is True
    assert payload["status"] == "delivered"
