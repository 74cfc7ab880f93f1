"""Tests for repro.params: derived quantities, edge cases, validation."""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.params import WAVE_SPACING, ProtocolParams, log2_ceil


class TestLog2Ceil:
    def test_edge_cases(self):
        assert log2_ceil(1) == 1
        assert log2_ceil(2) == 1
        assert log2_ceil(3) == 2

    def test_powers_of_two(self):
        assert log2_ceil(4) == 2
        assert log2_ceil(256) == 8
        assert log2_ceil(257) == 9

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            log2_ceil(0)
        with pytest.raises(ConfigurationError):
            log2_ceil(-5)


DERIVED = [
    "log_n",
    "decay_phase_length",
    "decay_whp_phases",
    "ghk_backoff_slots",
]


class TestDerivedQuantities:
    @pytest.mark.parametrize("method", DERIVED)
    @pytest.mark.parametrize("params", [ProtocolParams.paper(), ProtocolParams.fast()])
    def test_monotone_in_n_bound(self, method, params):
        values = [getattr(params, method)(n) for n in (2, 8, 64, 512, 4096)]
        assert values == sorted(values), f"{method} not monotone: {values}"
        assert all(v >= 1 for v in values)

    def test_budgets_monotone_in_n_bound(self):
        params = ProtocolParams.fast()
        budgets = ("decay_broadcast_rounds", "ghk_broadcast_rounds", "ghk_multi_message_rounds")
        for method in budgets:
            values = [getattr(params, method)(10, n) for n in (2, 8, 64, 512, 4096)]
            assert values == sorted(values), f"{method} not monotone: {values}"

    def test_budgets_monotone_in_diameter(self):
        params = ProtocolParams.fast()
        budgets = ("decay_broadcast_rounds", "ghk_broadcast_rounds", "ghk_multi_message_rounds")
        for method in budgets:
            values = [getattr(params, method)(d, 64) for d in (0, 1, 10, 100)]
            assert values == sorted(values)

    def test_decay_budget_rejects_negative_diameter(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams.fast().decay_broadcast_rounds(-1, 64)

    def test_ghk_backoff_slots_scale_with_log_n(self):
        params = ProtocolParams.paper()
        assert params.ghk_backoff_slots(2) == 1
        assert params.ghk_backoff_slots(64) == 6
        assert params.ghk_backoff_slots(1024) == 10

    def test_ghk_budget_dominates_the_wave(self):
        # The GHK budget must always cover at least the sync wave plus one
        # full backoff cycle per layer slot — sanity floor, not exact form.
        params = ProtocolParams.fast()
        for d, n in ((0, 2), (14, 64), (255, 256)):
            assert params.ghk_broadcast_rounds(d, n) > WAVE_SPACING * d

    def test_ghk_budget_rejects_negative_diameter(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams.fast().ghk_broadcast_rounds(-1, 64)

    def test_multi_message_budget_grows_linearly_in_k(self):
        # O(D + k log n + log^2 n): the k term is linear, everything else
        # fixed, so budget deltas per message are constant.
        params = ProtocolParams.fast()
        budgets = [params.ghk_multi_message_rounds(14, 64, k) for k in (1, 2, 3, 4)]
        assert budgets[0] < budgets[1] < budgets[2] < budgets[3]
        deltas = [b - a for a, b in zip(budgets, budgets[1:])]
        assert len(set(deltas)) == 1

    def test_multi_message_budget_monotone_in_diameter_and_n(self):
        params = ProtocolParams.fast()
        assert params.ghk_multi_message_rounds(20, 64, 4) > params.ghk_multi_message_rounds(
            10, 64, 4
        )
        assert params.ghk_multi_message_rounds(10, 256, 4) > params.ghk_multi_message_rounds(
            10, 64, 4
        )

    def test_multi_message_budget_rejects_bad_arguments(self):
        params = ProtocolParams.fast()
        with pytest.raises(ConfigurationError, match="diameter"):
            params.ghk_multi_message_rounds(-1, 64, 4)
        for bad_k in (0, -1, 1.5, "4"):
            with pytest.raises(ConfigurationError, match="k_messages"):
                params.ghk_multi_message_rounds(10, 64, bad_k)


#: Exact derived quantities per preset and ``n_bound``:
#: ``(decay_phase_length, decay_whp_phases, ghk_backoff_slots)``.
PINNED_PER_N = {
    "paper": {2: (1, 2, 1), 64: (6, 12, 6), 1024: (10, 20, 10), 65536: (16, 32, 16)},
    "fast": {2: (1, 1, 1), 64: (6, 6, 6), 1024: (10, 10, 10), 65536: (16, 16, 16)},
}

#: Exact round budgets per preset, ``n_bound`` and diameter:
#: ``(decay_broadcast_rounds, ghk_broadcast_rounds,
#: ghk_multi_message_rounds at k = 1, at k = 16)``.
PINNED_BUDGETS = {
    "paper": {
        2: {0: (40, 56, 92, 632), 10: (80, 176, 212, 752), 255: (1060, 3116, 3152, 3692)},
        64: {0: (320, 896, 1112, 4352), 10: (560, 1016, 1232, 4472), 255: (6440, 3956, 4172, 7412)},
        1024: {
            0: (832, 2432, 2792, 8192),
            10: (1232, 2552, 2912, 8312),
            255: (11032, 5492, 5852, 11252),
        },
        65536: {
            0: (2080, 6176, 6752, 15392),
            10: (2720, 6296, 6872, 15512),
            255: (18400, 9236, 9812, 18452),
        },
    },
    "fast": {
        2: {0: (27, 33, 60, 465), 10: (57, 123, 150, 555), 255: (792, 2328, 2355, 2760)},
        64: {0: (132, 348, 510, 2940), 10: (312, 438, 600, 3030), 255: (4722, 2643, 2805, 5235)},
        1024: {
            0: (324, 924, 1194, 5244),
            10: (624, 1014, 1284, 5334),
            255: (7974, 3219, 3489, 7539),
        },
        65536: {
            0: (792, 2328, 2760, 9240),
            10: (1272, 2418, 2850, 9330),
            255: (13032, 4623, 5055, 11535),
        },
    },
}


class TestPinnedBudgets:
    """Every preset's phase lengths and budgets, pinned to exact values.

    The committed science records replay only if no budget moves, so a
    refactor of the budget rules must leave this table untouched.
    """

    @pytest.mark.parametrize("preset", sorted(PINNED_PER_N))
    @pytest.mark.parametrize("n", [2, 64, 1024, 65536])
    def test_derived_quantities(self, preset, n):
        params = getattr(ProtocolParams, preset)()
        assert (
            params.decay_phase_length(n),
            params.decay_whp_phases(n),
            params.ghk_backoff_slots(n),
        ) == PINNED_PER_N[preset][n]

    @pytest.mark.parametrize("preset", sorted(PINNED_BUDGETS))
    @pytest.mark.parametrize("n", [2, 64, 1024, 65536])
    def test_budgets(self, preset, n):
        params = getattr(ProtocolParams, preset)()
        for diameter, expected in PINNED_BUDGETS[preset][n].items():
            assert (
                params.decay_broadcast_rounds(diameter, n),
                params.ghk_broadcast_rounds(diameter, n),
                params.ghk_multi_message_rounds(diameter, n, 1),
                params.ghk_multi_message_rounds(diameter, n, 16),
            ) == expected, (preset, n, diameter)


POSITIVE_FIELDS = ["decay_whp_factor", "schedule_slack"]


class TestValidation:
    @pytest.mark.parametrize("name", POSITIVE_FIELDS)
    @pytest.mark.parametrize("bad", [0, -1, math.nan, math.inf, "2", True])
    def test_construction_rejects_non_positive(self, name, bad):
        # Non-finite factors must fail here, not as a raw ValueError or
        # OverflowError inside a budget rule; True is not silently 1.
        with pytest.raises(ConfigurationError, match=name):
            ProtocolParams(**{name: bad})

    def test_construction_rejects_negative_additive_slack(self):
        # A fractional additive slack would give a fractional round budget.
        for bad in (-1, 2.5, 32.0, "32", True):
            with pytest.raises(ConfigurationError, match="schedule_slack_additive"):
                ProtocolParams(schedule_slack_additive=bad)

    def test_fields_are_the_ones_callers_vary(self):
        assert [f.name for f in dataclasses.fields(ProtocolParams)] == [
            "decay_whp_factor",
            "schedule_slack",
            "schedule_slack_additive",
            "channel_backend",
        ]

    def test_with_overrides_validates(self):
        params = ProtocolParams.fast()
        with pytest.raises(ConfigurationError):
            params.with_overrides(schedule_slack=-2.0)

    def test_presets_are_valid(self):
        ProtocolParams.paper().validate()
        ProtocolParams.fast().validate()

    def test_with_overrides_replaces_field(self):
        params = ProtocolParams.paper().with_overrides(schedule_slack=7.5)
        assert params.schedule_slack == 7.5

    @pytest.mark.parametrize("bad", ["csr", "", "Dense", 3])
    def test_construction_rejects_unknown_channel_backend(self, bad):
        with pytest.raises(ConfigurationError, match="channel_backend"):
            ProtocolParams(channel_backend=bad)

    def test_channel_backend_knobs_default_and_override(self):
        params = ProtocolParams.paper()
        assert params.channel_backend == "auto"
        forced = params.with_overrides(channel_backend="sparse")
        assert forced.channel_backend == "sparse"
        assert forced.with_overrides(channel_backend="auto") == params
