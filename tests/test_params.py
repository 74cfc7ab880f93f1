"""Tests for repro.params: derived quantities, edge cases, validation."""

import pytest

from repro.errors import ConfigurationError
from repro.params import ProtocolParams, log2_ceil


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
    "decay_whp_rounds",
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

    def test_decay_whp_rounds_composition(self):
        params = ProtocolParams.paper()
        assert params.decay_whp_rounds(100) == (
            params.decay_whp_phases(100) * params.decay_phase_length(100)
        )

    def test_decay_budget_rejects_negative_diameter(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams.fast().decay_broadcast_rounds(-1, 64)

    def test_beepwave_rounds_is_exact(self):
        # The wave is deterministic: eccentricity + 1 rounds, no slack.
        params = ProtocolParams.fast()
        assert params.beepwave_rounds(0) == 1
        assert params.beepwave_rounds(63) == 64
        with pytest.raises(ConfigurationError):
            params.beepwave_rounds(-1)

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
            assert params.ghk_broadcast_rounds(d, n) > params.wave_spacing * d

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


POSITIVE_FIELDS = [
    "decay_phase_factor",
    "decay_whp_factor",
    "schedule_slack",
    "ghk_backoff_factor",
    "multi_message_pipeline_factor",
]


class TestValidation:
    @pytest.mark.parametrize("name", POSITIVE_FIELDS)
    @pytest.mark.parametrize("bad", [0, -1])
    def test_construction_rejects_non_positive(self, name, bad):
        with pytest.raises(ConfigurationError, match=name):
            ProtocolParams(**{name: bad})

    def test_construction_rejects_negative_additive_slack(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(schedule_slack_additive=-1)

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

    @pytest.mark.parametrize("bad", [0, 1, 2, -3, 3.0, "3"])
    def test_construction_rejects_bad_wave_spacing(self, bad):
        # Below 3 adjacent pipelined waves interfere; non-integers are
        # rejected outright since the value is a round count.
        with pytest.raises(ConfigurationError, match="wave_spacing"):
            ProtocolParams(wave_spacing=bad)

    def test_wave_spacing_accepts_wider_periods(self):
        assert ProtocolParams(wave_spacing=5).wave_spacing == 5

    @pytest.mark.parametrize("bad", ["csr", "", "Dense", 3])
    def test_construction_rejects_unknown_channel_backend(self, bad):
        with pytest.raises(ConfigurationError, match="channel_backend"):
            ProtocolParams(channel_backend=bad)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_construction_rejects_out_of_range_density_threshold(self, bad):
        with pytest.raises(ConfigurationError, match="sparse_density_threshold"):
            ProtocolParams(sparse_density_threshold=bad)

    @pytest.mark.parametrize("bad", [-1, 2.5, "big"])
    def test_construction_rejects_bad_sparse_min_n(self, bad):
        with pytest.raises(ConfigurationError, match="sparse_min_n"):
            ProtocolParams(sparse_min_n=bad)

    def test_channel_backend_knobs_default_and_override(self):
        params = ProtocolParams.paper()
        assert params.channel_backend == "auto"
        assert 0.0 <= params.sparse_density_threshold <= 1.0
        forced = params.with_overrides(
            channel_backend="sparse", sparse_density_threshold=1.0
        )
        assert forced.channel_backend == "sparse"
        assert forced.sparse_density_threshold == 1.0
