"""Tests for the repro.errors hierarchy."""

import pytest

from repro import errors
from repro.sim.core import SimResult

#: The executed rounds a raiser attaches to every failure.
SIM = SimResult(
    rounds_run=3,
    stopped_early=False,
    total_transmissions=0,
    total_deliveries=0,
    total_collisions=0,
)


def test_all_errors_derive_from_repro_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)
        assert issubclass(cls, Exception)


@pytest.mark.parametrize(
    ("child", "parent"),
    [
        (errors.ConfigurationError, errors.ReproError),
        (errors.SimulationError, errors.ReproError),
        (errors.TopologyError, errors.ReproError),
        (errors.BroadcastFailure, errors.ReproError),
    ],
)
def test_specific_parentage(child, parent):
    assert issubclass(child, parent)


def test_broadcast_failure_carries_undelivered_set():
    exc = errors.BroadcastFailure("budget expired", undelivered=[3, 1, 2], sim=SIM, budget=3)
    assert exc.undelivered == (3, 1, 2)
    assert isinstance(exc.undelivered, tuple)
    assert (exc.sim, exc.budget) == (SIM, 3)
    assert "budget expired" in str(exc)


def test_broadcast_failure_default_undelivered_is_empty():
    assert errors.BroadcastFailure("oops", sim=SIM, budget=3).undelivered == ()


def test_broadcast_failure_requires_sim_and_budget():
    with pytest.raises(TypeError, match="sim"):
        errors.BroadcastFailure("oops", budget=3)
    with pytest.raises(TypeError, match="budget"):
        errors.BroadcastFailure("oops", sim=SIM)


def test_catching_base_class_catches_subclasses():
    with pytest.raises(errors.ReproError):
        raise errors.BroadcastFailure("x", (0,), sim=SIM, budget=3)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None, True])
def test_bad_seed_raises_configuration_error(seed):
    # numpy's own SeedSequence error must not leak out of the library.
    from repro.sim import line, run_broadcast, run_broadcast_batch

    with pytest.raises(errors.ConfigurationError, match="seed"):
        run_broadcast("decay", line(4), seed=seed)
    with pytest.raises(errors.ConfigurationError, match="seed"):
        run_broadcast_batch("decay", [line(4)], seeds=[seed])
