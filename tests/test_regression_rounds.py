"""Regression pins: exact rounds-to-delivery for fixed (topology, seed) pairs.

These values are ground truth for the engine's channel semantics plus both
protocols' coin-consumption order.  Any engine or protocol refactor that
silently changes channel resolution, feedback ordering, or per-node stream
usage will move at least one of these numbers — if a change here is
intentional, update the pins and say why in the commit.
"""

import pytest

from repro.params import ProtocolParams
from repro.sim.runners import run_broadcast
from repro.sim.topology import dumbbell, gnp, grid2d, line, ring, star

FAST = ProtocolParams.fast()

#: (network factory, seed, pinned Decay rounds, pinned GHK rounds)
#: The gnp pins were re-baselined when the generator switched to edge
#: sampling (same G(n, p) distribution, different per-seed graphs); the
#: deterministic and unit-disk families are byte-identical across that
#: change, so their pins still guard the engine/protocol semantics.
PINS = [
    (lambda: line(33), 7, 187, 32),
    (lambda: ring(24), 1, 57, 18),
    (lambda: grid2d(6, 6), 3, 57, 19),
    (lambda: gnp(40, 0.12, seed=5), 5, 37, 17),
    (lambda: dumbbell(20, 3), 9, 31, 6),
]
IDS = ["line-33", "ring-24", "grid-6x6", "gnp-40", "dumbbell-20+3+20"]


@pytest.mark.parametrize("make_net,seed,decay_rounds,ghk_rounds", PINS, ids=IDS)
def test_decay_rounds_to_delivery_is_pinned(make_net, seed, decay_rounds, ghk_rounds):
    result = run_broadcast("decay", make_net(), FAST, seed=seed)
    assert result.rounds_to_delivery == decay_rounds


@pytest.mark.parametrize("make_net,seed,decay_rounds,ghk_rounds", PINS, ids=IDS)
def test_ghk_rounds_to_delivery_is_pinned(make_net, seed, decay_rounds, ghk_rounds):
    result = run_broadcast("ghk", make_net(), FAST, seed=seed)
    assert result.rounds_to_delivery == ghk_rounds


#: (protocol, options, pinned rounds-to-delivery, pinned informed rounds)
SOURCE_ZERO_PINS = [
    ("decay", None, 1, (0,) * 8),
    ("ghk", None, 1, (0,) * 8),
    ("multimessage", {"k_messages": 2}, 4, (0,) + (3,) * 7),
]


@pytest.mark.parametrize(
    "protocol,options,rounds,informed",
    SOURCE_ZERO_PINS,
    ids=[p[0] for p in SOURCE_ZERO_PINS],
)
@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_clean_delivery_from_node_id_zero_is_pinned(
    protocol, options, rounds, informed, backend
):
    # Source = node 0 on a star: every leaf's *only* clean receipt carries
    # sender id 0, the same value `ChannelRound.senders` uses as its
    # outside-the-clean-mask placeholder.  A consumer that read `senders`
    # without masking by `clean` (or treated "senders == 0" as "nothing
    # arrived") would mis-handle exactly this run, so pin it end-to-end
    # for every protocol on both channel backends.
    params = FAST.with_overrides(channel_backend=backend)
    net = star(8, source=0)
    result = run_broadcast(protocol, net, params, seed=4, options=options)
    assert result.rounds_to_delivery == rounds
    assert result.informed_rounds == informed
