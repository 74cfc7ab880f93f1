"""Tests for the round-synchronous engine and its channel model.

Scripted per-node protocols (the oracle API of ``tests/oracles``) drive
:class:`~repro.sim.core.batch.ArrayEngine` through the adapter, so every
channel outcome can be checked node by node as feedback.
"""

import pytest

from oracles import Action, Feedback, FeedbackKind, Protocol, oracle_engine
from repro.errors import SimulationError
from repro.sim.rng import Purpose
from repro.sim.topology import line, star


class Scripted(Protocol):
    """Plays a fixed list of actions and records every feedback."""

    def __init__(self, script):
        self.script = list(script)
        self.heard: list[Feedback] = []

    def act(self, round_index):
        if round_index < len(self.script):
            return self.script[round_index]
        return Action.sleep()

    def on_feedback(self, round_index, feedback):
        self.heard.append(feedback)


def test_clean_receipt_delivers_message_and_sender():
    net = line(3, source=0)  # 0 - 1 - 2
    protos = [
        Scripted([Action.transmit("hello")]),
        Scripted([Action.listen()]),
        Scripted([Action.listen()]),
    ]
    engine = oracle_engine(net, protos, trace=True)
    stats = engine.step()
    assert stats.transmitters == (0,)
    assert stats.deliveries == ((1, 0),)
    assert stats.collisions == ()
    (fb,) = protos[1].heard
    assert fb.kind is FeedbackKind.MESSAGE
    assert fb.message == "hello"
    assert fb.sender == 0
    # node 2 is out of range of node 0: hears silence
    (fb2,) = protos[2].heard
    assert fb2.kind is FeedbackKind.SILENCE


def test_collision_with_detection_is_observable():
    net = star(3, source=0)  # hub 0, leaves 1 and 2
    protos = [
        Scripted([Action.listen()]),
        Scripted([Action.transmit("a")]),
        Scripted([Action.transmit("b")]),
    ]
    engine = oracle_engine(net, protos, collision_detection=True, trace=True)
    stats = engine.step()
    assert stats.collisions == (0,)
    assert stats.deliveries == ()
    (fb,) = protos[0].heard
    assert fb.kind is FeedbackKind.COLLISION
    assert fb.message is None


def test_collision_without_detection_reads_as_silence():
    net = star(3, source=0)
    protos = [
        Scripted([Action.listen()]),
        Scripted([Action.transmit("a")]),
        Scripted([Action.transmit("b")]),
    ]
    engine = oracle_engine(net, protos, collision_detection=False, trace=True)
    stats = engine.step()
    # ground truth still records the collision ...
    assert stats.collisions == (0,)
    # ... but the node cannot distinguish it from silence
    (fb,) = protos[0].heard
    assert fb.kind is FeedbackKind.SILENCE


def test_transmitters_are_half_duplex():
    net = line(2, source=0)
    protos = [Scripted([Action.transmit("x")]), Scripted([Action.transmit("y")])]
    engine = oracle_engine(net, protos)
    engine.step()
    assert protos[0].heard == []
    assert protos[1].heard == []


def test_sleeping_nodes_hear_nothing():
    net = line(2, source=0)
    protos = [Scripted([Action.transmit("x")]), Scripted([Action.sleep()])]
    engine = oracle_engine(net, protos, trace=True)
    stats = engine.step()
    assert protos[1].heard == []
    assert stats.deliveries == ()


def test_run_stops_early_and_reports_totals():
    net = line(3, source=0)
    protos = [
        Scripted([Action.transmit("m")] * 5),
        Scripted([Action.listen()] * 5),
        Scripted([Action.listen()] * 5),
    ]
    engine = oracle_engine(net, protos)
    result = engine.run(5, stop_when=lambda eng: len(protos[1].heard) >= 2)
    assert result.stopped_early
    assert result.rounds_run == 2
    assert result.total_deliveries == 2
    assert result.total_transmissions == 2


def test_run_result_covers_only_that_run():
    # A manual step() before run() must not leak into the run's result.
    net = line(2, source=0)
    protos = [Scripted([Action.transmit("m")] * 4), Scripted([Action.listen()] * 4)]
    engine = oracle_engine(net, protos, trace=True)
    engine.step()
    result = engine.run(3)
    assert result.rounds_run == 3
    assert result.total_deliveries == 3
    assert result.total_transmissions == 3
    assert [s.round_index for s in result.history] == [1, 2, 3]


def test_trace_history_collected_only_when_requested():
    net = line(2, source=0)

    def make():
        return [Scripted([Action.transmit("m")]), Scripted([Action.listen()])]

    no_trace = oracle_engine(net, make()).run(1)
    assert no_trace.history == ()
    traced = oracle_engine(net, make(), trace=True).run(1)
    assert len(traced.history) == 1
    assert traced.history[0].deliveries == ((1, 0),)


def test_engine_rejects_wrong_protocol_count():
    with pytest.raises(SimulationError, match="one protocol per node"):
        oracle_engine(line(3), [Scripted([]), Scripted([])])


def test_engine_rejects_shared_protocol_instance():
    proto = Scripted([])
    with pytest.raises(SimulationError, match="same Protocol instance"):
        oracle_engine(line(2), [proto, proto])


def test_engine_rejects_n_bound_below_network_size():
    with pytest.raises(SimulationError, match="n_bound"):
        oracle_engine(line(4), [Scripted([]) for _ in range(4)], n_bound=2)


def test_engine_rejects_invalid_action():
    class Broken(Protocol):
        def act(self, round_index):
            return "transmit"

        def on_feedback(self, round_index, feedback):
            pass

    engine = oracle_engine(line(2), [Broken(), Broken()])
    with pytest.raises(SimulationError, match="expected an Action"):
        engine.step()


def test_action_transmit_requires_message():
    with pytest.raises(SimulationError):
        Action.transmit(None)


def test_node_context_wiring():
    net = star(4, source=0)
    protos = [Scripted([]) for _ in range(4)]
    oracle_engine(net, protos, n_bound=16, seed=5)
    assert protos[0].ctx.is_source
    assert not protos[1].ctx.is_source
    assert protos[2].ctx.n_bound == 16
    assert protos[3].ctx.n_nodes == 4
    # each node draws its own coins
    assert protos[0].ctx.coin(Purpose.BACKOFF, 0) != protos[1].ctx.coin(Purpose.BACKOFF, 0)


def test_determinism_same_seed_same_trace():
    from repro.sim import run_broadcast
    from repro.sim.topology import gnp

    net = gnp(30, 0.2, seed=8)
    a = run_broadcast("decay", net, seed=11, trace=True)
    b = run_broadcast("decay", net, seed=11, trace=True)
    assert a.rounds_to_delivery == b.rounds_to_delivery
    assert a.sim.history == b.sim.history
