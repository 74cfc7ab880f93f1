"""Tests for the simsan runtime sanitizer and the divergence bisector.

Three layers: clean sanitized runs across backends, engines, and fault
schedules must pass with zero violations; deliberately corrupted engines
must be caught with the right check id and round number; and the
bisector must localize an injected wrong-feedback backend to exactly the
injected round, dumping a well-formed repro bundle.
"""

import dataclasses
import json

import numpy as np
import pytest

from oracles import run_oracle
from repro.analysis.simsan import (
    CHECKS,
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
    first_divergent_round,
    replay_digests,
    write_bundle,
)
from repro.analysis.simsan.bisect import main as bisect_main
from repro.errors import BroadcastFailure, SanitizerError
from repro.params import ProtocolParams
from repro.sim.core.array_protocol import RoundPlan
from repro.sim.core.batch import ArrayEngine, select_kernel_operand
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
        broadcast_spec("decay").array_factory(message="broadcast"),
        seed=seed,
        collision_detection=False,
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
        params = _params(backend, fault_budget_slack=4.0)
        result = run("ghk", net, params, seed=3, sanitize=True, faults=faults)
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
        collision_detection=True,
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
        broadcast_spec("ghk").array_factory(message="broadcast"),
        seed=2,
        collision_detection=True,
        params=params,
        kernel_operand=operand,  # type: ignore[arg-type]
        sanitize=True,
    )
    with pytest.raises(SanitizerError) as excinfo:
        engine.run(500, stop_when=lambda eng: eng.protocol.done())
    err = excinfo.value
    assert err.check.startswith("diff.")
    assert err.round_index == 4
    assert err.backend == "sparse"


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
    indptr.setflags(write=True)  # simlint: disable=SL004
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

@pytest.fixture
def sanitizer_env_off(monkeypatch):
    # An injected divergence must reach the bisector's digests; a sanitizer
    # opted in by REPRO_SANITIZE would stop the replay at the corrupted
    # round first.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


def test_first_divergent_round_helper():
    a = [b"a", b"b", b"c"]
    assert first_divergent_round(a, list(a)) is None
    assert first_divergent_round(a, [b"a", b"x", b"c"]) == 1
    assert first_divergent_round(a, [b"x", b"b", b"c"]) == 0
    assert first_divergent_round(a, a[:2]) == 2  # shorter run diverges at its end
    assert first_divergent_round([], []) is None


def test_backends_agree_without_injection():
    spec = ReplaySpec(protocol="ghk", topology="grid", n=36, seed=4, backend="sparse")
    outcome = bisect_run(spec)
    assert outcome.divergent_round is None
    assert outcome.active_rounds == outcome.reference_rounds > 0


@pytest.mark.usefixtures("sanitizer_env_off")
@pytest.mark.parametrize("inject_at", [0, 5])
def test_bisector_pinpoints_injected_round_exactly(inject_at):
    spec = ReplaySpec(protocol="ghk", topology="grid", n=36, seed=4, backend="sparse")
    outcome = bisect_run(spec, inject_wrong_at=inject_at)
    assert outcome.divergent_round == inject_at


@pytest.mark.usefixtures("sanitizer_env_off")
def test_bundle_contents(tmp_path):
    spec = ReplaySpec(
        protocol="ghk", topology="grid", n=36, seed=4, backend="bitpacked"
    )
    outcome = bisect_run(spec, inject_wrong_at=3)
    assert outcome.divergent_round == 3
    path = write_bundle(spec, 3, tmp_path, inject_wrong_at=3)
    bundle = json.loads(path.read_text())
    assert bundle["schema"] == "simsan-bundle-1"
    assert bundle["spec"]["backend"] == "bitpacked"
    assert bundle["reference_backend"] == "dense"
    assert bundle["divergent_round"] == 3
    for side in ("active", "reference"):
        capture = bundle[side]
        assert capture["round"] == 3
        assert capture["transmit_packed"] and capture["listen_packed"]
        assert capture["adjacency_version"] == 0
        assert capture["coin_cursor"]["engine_stream_state"]
        assert capture["coin_cursor"]["node_streams_sha256"]
    # Same seed, same protocol: the divergence is in the channel feedback,
    # visible in the digests, while the round-3 plans still agree (the
    # corruption only lands when round 3 resolves).
    assert bundle["active"]["digest"] != bundle["reference"]["digest"]
    assert bundle["active"]["transmit_packed"] == bundle["reference"]["transmit_packed"]


def test_coin_cursor_moves_with_every_coin_and_agrees_across_backends():
    # Decay draws one coin per transmitter per round; after round 0's first
    # fill no coin buffer is refilled, so only the spent positions move.
    spec = ReplaySpec(protocol="decay", topology="grid", n=36, seed=4, backend="sparse")
    captures = {
        backend: [replay_digests(spec, backend=backend, capture_at=r)[1] for r in range(8)]
        for backend in ("dense", "sparse")
    }
    cursors = {b: [c["coin_cursor"] for c in caps] for b, caps in captures.items()}
    assert cursors["dense"] == cursors["sparse"]
    drew = [any(c["transmit_packed"]) for c in captures["sparse"]]
    digests = [c["node_streams_sha256"] for c in cursors["sparse"]]
    moved = [a != b for a, b in zip(digests, digests[1:])]
    assert moved == drew[1:]
    assert any(moved)


@pytest.mark.usefixtures("sanitizer_env_off")
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
    assert "simsan-bundle-decay-grid-n25-seed1-bitpacked-round2.json" in out


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
