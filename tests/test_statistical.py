"""Statistical delivery suite: >= 30 seeds per family for both protocols.

These are the headline acceptance tests of ISSUE 2: with ``fast``
constants, both the Decay baseline and the GHK collision-detection
broadcast must deliver on every topology family across a full seed batch
(the w.h.p. guarantee, checked empirically but deterministically — the
seeds are fixed, so a pass is reproducible), and GHK must beat Decay's
mean rounds-to-delivery on the high-diameter families, where the sync
wave's ``D`` rounds separate from Decay's ``O((D + log n) log n)``.  The
paper's bound for collision-detection broadcast is ``O(D + log^6 n)``; the
implemented GHK is a simplification (one sync beep wave, then per-layer
Decay in mod-3 slots) whose budget is a calibrated formula shaped like
``O(D + log^2 n)``, not a proved bound (ROADMAP item 2 measures
``Θ(D log s)`` on contended clique chains).

Everything here is marked ``statistical`` so CI can run it as a separate
non-blocking job; the fixed-seed design keeps it deterministic anyway.
"""

import statistics

import pytest

from repro.params import ProtocolParams
from repro.sim import run_broadcast
from repro.sim.topology import from_spec

pytestmark = pytest.mark.statistical

FAST = ProtocolParams.fast()
FAMILIES = ("line", "ring", "grid", "gnp", "dumbbell", "unit_disk")
SEEDS = range(30)
N = 64
#: families where the source eccentricity grows with n, so the paper's
#: bound must win; the dense families (gnp, unit_disk) have D <= 4 at
#: n = 64 and the two protocols are expected to be comparable there.
HIGH_DIAMETER = ("line", "ring", "grid", "dumbbell")

PROTOCOLS = ("decay", "ghk")


def batch_rounds(family: str, protocol: str) -> list[int]:
    """Rounds-to-delivery for the full seed batch; failures propagate."""
    rounds = []
    for seed in SEEDS:
        net = from_spec(family, N, seed=seed)
        rounds.append(run_broadcast(protocol, net, FAST, seed=seed).rounds_to_delivery)
    return rounds


@pytest.fixture(scope="module")
def sweep():
    """One shared sweep: {(family, protocol): [rounds per seed]}."""
    return {
        (family, protocol): batch_rounds(family, protocol)
        for family in FAMILIES
        for protocol in PROTOCOLS
    }


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_whp_delivery_across_seed_batch(sweep, family, protocol):
    # batch_rounds raises BroadcastFailure on any failed run, so reaching
    # the assertions means 30/30 deliveries.
    rounds = sweep[(family, protocol)]
    assert len(rounds) == len(SEEDS)
    assert all(r > 0 for r in rounds)


@pytest.mark.parametrize("family", HIGH_DIAMETER)
def test_ghk_beats_decay_on_high_diameter_families(sweep, family):
    ghk = statistics.mean(sweep[(family, "ghk")])
    decay = statistics.mean(sweep[(family, "decay")])
    assert ghk <= decay, f"{family}: GHK mean {ghk} vs Decay mean {decay}"


@pytest.mark.parametrize("family", ("line", "grid"))
def test_ghk_beats_decay_seed_for_seed_on_line_and_grid(sweep, family):
    # The acceptance bar: on line/grid with n >= 64 GHK wins outright, not
    # just in the mean — every seed, strictly.
    pairs = zip(sweep[(family, "ghk")], sweep[(family, "decay")])
    assert all(g < d for g, d in pairs)


def test_ghk_line_matches_the_wave_bound(sweep):
    # On a path the message rides the uncontended wave: exactly D rounds,
    # every seed (the protocol is deterministic there).
    assert set(sweep[("line", "ghk")]) == {N - 1}


def test_dense_families_stay_within_small_factor(sweep):
    # On D <= 4 graphs GHK may lose its slot-period overhead to Decay but
    # must stay within a small constant factor — catches pathological
    # regressions in the slot schedule without over-pinning the constants.
    for family in ("gnp", "unit_disk"):
        ghk = statistics.mean(sweep[(family, "ghk")])
        decay = statistics.mean(sweep[(family, "decay")])
        assert ghk <= 3 * decay, f"{family}: GHK mean {ghk} vs Decay mean {decay}"
