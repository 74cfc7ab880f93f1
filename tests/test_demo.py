"""Tests for the repro.sim.demo smoke-test CLI."""

import json
import re

import pytest

from repro.sim import demo


def _strip_wall_clock(prose: str) -> str:
    """Mask the throughput token: wall-clock legitimately differs between
    two runs that are bitwise-identical in every simulation observable."""
    return re.sub(r"throughput=\S+", "throughput=X", prose)


def test_demo_grid_succeeds(capsys):
    assert demo.main(["--topology", "grid", "--n", "64", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "delivered to all 64 nodes" in out
    assert "within budget" in out


@pytest.mark.parametrize("topology", ["line", "ring", "star", "gnp", "dumbbell", "unit_disk"])
def test_demo_every_topology(topology, capsys):
    assert demo.main(["--topology", topology, "--n", "24", "--seed", "1"]) == 0
    assert "delivered to all 24 nodes" in capsys.readouterr().out


def test_demo_paper_preset_and_collision_detection(capsys):
    rc = demo.main(
        ["--topology", "grid", "--n", "16", "--preset", "paper", "--collision-detection"]
    )
    assert rc == 0
    assert "collisions=" in capsys.readouterr().out


def test_demo_ghk_protocol(capsys):
    assert demo.main(["--topology", "grid", "--n", "64", "--protocol", "ghk"]) == 0
    out = capsys.readouterr().out
    assert "ghk: delivered to all 64 nodes" in out
    assert "wave depth 14" in out


@pytest.mark.parametrize("topology", ["line", "ring", "star", "gnp", "dumbbell", "unit_disk"])
def test_demo_ghk_every_topology(topology, capsys):
    rc = demo.main(["--topology", topology, "--n", "24", "--seed", "1", "--protocol", "ghk"])
    assert rc == 0
    assert "delivered to all 24 nodes" in capsys.readouterr().out


def test_demo_decay_reports_phases(capsys):
    assert demo.main(["--topology", "line", "--n", "8", "--protocol", "decay"]) == 0
    assert "Decay phases of" in capsys.readouterr().out


def test_demo_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        demo.main(["--protocol", "gossip"])


def test_demo_reports_topology_error(capsys):
    rc = demo.main(["--topology", "gnp", "--n", "30", "--p", "0.0"])
    assert rc == 2
    assert "topology error" in capsys.readouterr().err


def test_demo_rejects_unknown_topology():
    with pytest.raises(SystemExit):
        demo.main(["--topology", "moebius"])


#: JSON keys shared by success and failure payloads — the one consumer
#: schema both shapes must satisfy (plus the "status" discriminator).
SHARED_JSON_KEYS = {
    "protocol",
    "topology",
    "n",
    "edges",
    "source_eccentricity",
    "diameter",
    "seed",
    "messages",
    "preset",
    "collision_detection",
    "status",
    "budget",
    "rounds_run",
    "transmissions",
    "deliveries",
    "collisions",
    "traffic",
    "telemetry",
}


def test_demo_json_output_is_machine_readable(capsys):
    rc = demo.main(
        ["--topology", "grid", "--n", "36", "--seed", "3", "--protocol", "ghk", "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "delivered"
    assert payload["protocol"] == "ghk"
    assert payload["n"] == 36
    assert payload["rounds_to_delivery"] <= payload["budget"]
    assert payload["rounds_run"] == payload["rounds_to_delivery"]
    assert len(payload["informed_rounds"]) == 36
    assert payload["wave_spacing"] >= 3
    assert "trace" not in payload
    assert SHARED_JSON_KEYS <= set(payload)


def test_demo_json_payload_shapes_share_one_schema(capsys):
    # One consumer schema must parse both outcomes: the shared keys are
    # present either way and "status" discriminates.
    assert demo.main(["--topology", "line", "--n", "12", "--seed", "0", "--json"]) == 0
    success = json.loads(capsys.readouterr().out)
    rc = demo.main(
        ["--topology", "line", "--n", "12", "--seed", "0", "--json", "--budget", "2"]
    )
    assert rc == 1
    failure = json.loads(capsys.readouterr().out)
    assert success["status"] == "delivered"
    assert failure["status"] == "failed"
    assert SHARED_JSON_KEYS <= set(success)
    assert SHARED_JSON_KEYS <= set(failure)
    assert failure["budget"] == 2
    assert failure["rounds_run"] == 2
    assert failure["undelivered"]
    assert "uninformed" in failure["error"]


def test_demo_json_traffic_sums_to_scalar_totals(capsys):
    rc = demo.main(
        ["--topology", "grid", "--n", "36", "--seed", "3", "--protocol", "ghk", "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    traffic = payload["traffic"]
    for key in ("transmissions", "receptions", "collisions_heard", "awake_slots"):
        assert len(traffic[key]) == payload["n"]
    assert sum(traffic["transmissions"]) == payload["transmissions"]
    assert sum(traffic["receptions"]) == payload["deliveries"]
    assert sum(traffic["collisions_heard"]) == payload["collisions"]
    assert traffic["energy"] == sum(traffic["awake_slots"])
    telemetry = payload["telemetry"]
    assert telemetry["wall_seconds"] >= 0.0
    assert set(telemetry["phase_seconds"]) == {"act", "channel", "feedback"}


def test_demo_budget_override_forces_failure(capsys):
    rc = demo.main(["--topology", "line", "--n", "12", "--seed", "0", "--budget", "2"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err


def test_demo_multimessage_pipelines_k_messages(capsys):
    rc = demo.main(
        ["--topology", "grid", "--n", "25", "--protocol", "multimessage",
         "--messages", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "multimessage: delivered to all 25 nodes" in out
    assert "4 messages pipelined" in out


def test_demo_multimessage_json_reports_k(capsys):
    rc = demo.main(
        ["--topology", "grid", "--n", "25", "--protocol", "multimessage",
         "--messages", "4", "--json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "delivered"
    assert payload["k_messages"] == 4
    assert payload["messages"] == 4
    assert payload["wave_depth"] >= 1
    assert SHARED_JSON_KEYS <= set(payload)


def test_demo_messages_flag_rejected_for_single_message_protocols(capsys):
    rc = demo.main(["--topology", "line", "--n", "8", "--messages", "2"])
    assert rc == 2
    assert "does not support --messages" in capsys.readouterr().err


def test_demo_rejects_non_positive_messages():
    with pytest.raises(SystemExit):
        demo.main(["--messages", "0"])


@pytest.mark.parametrize("budget", ["0", "-7"])
def test_demo_rejects_non_positive_budget_cleanly(capsys, budget):
    # A starving-but-positive budget is a legitimate forced failure; zero
    # or negative is an input error and must say so up front instead of
    # surfacing as a confusing BroadcastFailure.
    rc = demo.main(["--topology", "line", "--n", "8", "--budget", budget])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--budget must be a positive round count" in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_demo_json_budget_error_payload(capsys, budget):
    # Under --json even input errors emit one parseable object with the
    # "error" status discriminator, so scripted consumers never have to
    # scrape stderr.
    rc = demo.main(
        ["--topology", "line", "--n", "8", "--json", "--budget", budget]
    )
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "error"
    assert "--budget must be a positive round count" in payload["error"]
    assert payload["topology"] == "line"
    assert payload["n"] == 8


def test_demo_json_topology_error_payload(capsys):
    rc = demo.main(["--topology", "gnp", "--n", "30", "--p", "0.0", "--json"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "error"
    assert "topology error" in payload["error"]


def test_demo_json_unsupported_messages_error_payload(capsys):
    # Every pre-run input error honours the --json one-object contract,
    # including the protocol-without-k-message-support path.
    rc = demo.main(["--protocol", "decay", "--messages", "4", "--json"])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "error"
    assert "does not support --messages" in payload["error"]


def test_demo_json_decay_reports_phases(capsys):
    rc = demo.main(["--topology", "line", "--n", "8", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["phase_length"] >= 1
    assert payload["phases_to_delivery"] >= 1


def test_demo_trace_prints_every_round(capsys):
    rc = demo.main(["--topology", "line", "--n", "6", "--seed", "0", "--trace"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "round    0: tx=[0]" in out
    # one line per executed round plus the summary lines
    rounds = [line for line in out.splitlines() if line.startswith("round ")]
    assert len(rounds) >= 5


def test_demo_json_trace_embeds_round_records(capsys):
    rc = demo.main(["--topology", "line", "--n", "6", "--seed", "0", "--json", "--trace"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["trace"]) == payload["rounds_to_delivery"]
    assert payload["trace"][0]["transmitters"] == [0]


def test_demo_trace_survives_a_failed_run(monkeypatch, capsys):
    from repro.params import ProtocolParams
    from repro.sim import run_broadcast
    from repro.sim.topology import line

    def starved(*args, **kwargs):
        return run_broadcast(
            "decay", line(8), ProtocolParams.fast(), seed=0, budget=2, trace=True
        )

    monkeypatch.setattr(demo, "run_broadcast", starved)
    rc = demo.main(["--topology", "line", "--n", "8", "--trace", "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "failed"
    assert len(payload["trace"]) == 2  # the rounds that were executed
    rc = demo.main(["--topology", "line", "--n", "8", "--trace"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "round    0:" in captured.out
    assert "FAILED" in captured.err


def test_demo_json_failure_reports_undelivered(monkeypatch, capsys):
    from repro.errors import BroadcastFailure

    def starved(*args, **kwargs):
        raise BroadcastFailure("Decay left 2 of 6 nodes uninformed", (4, 5))

    monkeypatch.setattr(demo, "run_broadcast", starved)
    rc = demo.main(["--topology", "line", "--n", "6", "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "failed"
    assert payload["undelivered"] == [4, 5]
    assert "uninformed" in payload["error"]
    # A raiser without sim/budget still produces the shared keys (as null),
    # so the consumer schema never loses fields.
    assert SHARED_JSON_KEYS <= set(payload)
    assert payload["budget"] is None
    assert payload["rounds_run"] is None
