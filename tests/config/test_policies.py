"""Tests for policy configuration (Tables 1-4)."""

import pytest

from repro.common.errors import ConfigError
from repro.config.policies import (
    ARBITRATION_LABELS,
    THROTTLE_LABELS,
    ArbitrationKind,
    ContentionLevel,
    ContentionThresholds,
    DynctaParams,
    InCoreThrottleParams,
    LcsParams,
    MshrAwareParams,
    MultiGearParams,
    PolicyConfig,
    ThrottleKind,
)


class TestContentionThresholds:
    """Table 3: contention classification from the stall-cycle proportion."""

    def setup_method(self):
        self.thresholds = ContentionThresholds()

    @pytest.mark.parametrize(
        "ratio,expected",
        [
            (0.0, ContentionLevel.LOW),
            (0.05, ContentionLevel.LOW),
            (0.0999, ContentionLevel.LOW),
            (0.1, ContentionLevel.NORMAL),
            (0.19, ContentionLevel.NORMAL),
            (0.2, ContentionLevel.HIGH),
            (0.374, ContentionLevel.HIGH),
            (0.375, ContentionLevel.EXTREME),
            (1.0, ContentionLevel.EXTREME),
        ],
    )
    def test_table3_boundaries(self, ratio, expected):
        assert self.thresholds.classify(ratio) == expected

    def test_rejects_out_of_range_ratio(self):
        with pytest.raises(ConfigError):
            self.thresholds.classify(1.5)
        with pytest.raises(ConfigError):
            self.thresholds.classify(-0.1)

    def test_rejects_unordered_thresholds(self):
        with pytest.raises(ConfigError):
            ContentionThresholds(0.3, 0.2, 0.5).validate()


class TestMultiGearParams:
    """Tables 1 and 2: gear fractions and the sampling period."""

    def test_defaults_match_paper(self):
        params = MultiGearParams().validate()
        assert params.sampling_period == 2000
        assert params.max_gear == 4
        assert params.gear_fractions == (0.0, 1 / 8, 1 / 4, 1 / 2, 3 / 4)

    def test_gear_fraction_count_must_match_max_gear(self):
        with pytest.raises(ConfigError):
            MultiGearParams(max_gear=3).validate()

    def test_fractions_must_be_monotonic(self):
        with pytest.raises(ConfigError):
            MultiGearParams(gear_fractions=(0.0, 0.5, 0.25, 0.6, 0.75)).validate()


class TestInCoreParams:
    def test_defaults_match_table4(self):
        params = InCoreThrottleParams().validate()
        assert params.sub_period == 400
        assert params.c_idle_upper == 4
        assert params.c_mem_upper == 250
        assert params.c_mem_lower == 180

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigError):
            InCoreThrottleParams(c_mem_upper=100, c_mem_lower=200).validate()


class TestBaselineParams:
    def test_dyncta_defaults_are_valid(self):
        DynctaParams().validate()

    def test_dyncta_rejects_inverted_bounds(self):
        with pytest.raises(ConfigError):
            DynctaParams(c_mem_high=100, c_mem_low=200).validate()

    def test_lcs_rejects_bad_factor(self):
        with pytest.raises(ConfigError):
            LcsParams(target_latency_factor=0.5).validate()

    def test_mshr_aware_sizes_positive(self):
        with pytest.raises(ConfigError):
            MshrAwareParams(hit_buffer_size=0).validate()


#: Every (throttle, arbitration) pair with its paper-legend label.
LEGEND_LABELS = [
    (ThrottleKind.NONE, ArbitrationKind.FCFS, "unopt"),
    (ThrottleKind.DYNMG, ArbitrationKind.FCFS, "dynmg"),
    (ThrottleKind.DYNCTA, ArbitrationKind.FCFS, "dyncta"),
    (ThrottleKind.LCS, ArbitrationKind.FCFS, "lcs"),
    (ThrottleKind.DYNMG, ArbitrationKind.BALANCED, "dynmg+B"),
    (ThrottleKind.DYNMG, ArbitrationKind.MSHR_AWARE, "dynmg+MA"),
    (ThrottleKind.DYNMG, ArbitrationKind.BALANCED_MSHR_AWARE, "dynmg+BMA"),
    (ThrottleKind.NONE, ArbitrationKind.COBRRA, "cobrra"),
    (ThrottleKind.DYNMG, ArbitrationKind.COBRRA, "dynmg+cobrra"),
    (ThrottleKind.NONE, ArbitrationKind.BALANCED, "B"),
    (ThrottleKind.NONE, ArbitrationKind.MSHR_AWARE, "MA"),
    (ThrottleKind.NONE, ArbitrationKind.BALANCED_MSHR_AWARE, "BMA"),
    (ThrottleKind.DYNCTA, ArbitrationKind.BALANCED, "dyncta+B"),
    (ThrottleKind.DYNCTA, ArbitrationKind.MSHR_AWARE, "dyncta+MA"),
    (ThrottleKind.DYNCTA, ArbitrationKind.BALANCED_MSHR_AWARE, "dyncta+BMA"),
    (ThrottleKind.DYNCTA, ArbitrationKind.COBRRA, "dyncta+cobrra"),
    (ThrottleKind.LCS, ArbitrationKind.BALANCED, "lcs+B"),
    (ThrottleKind.LCS, ArbitrationKind.MSHR_AWARE, "lcs+MA"),
    (ThrottleKind.LCS, ArbitrationKind.BALANCED_MSHR_AWARE, "lcs+BMA"),
    (ThrottleKind.LCS, ArbitrationKind.COBRRA, "lcs+cobrra"),
]


class TestPolicyConfigLabels:
    """Labels must match the paper's legends so experiment output reads like the paper."""

    @pytest.mark.parametrize("throttle,arbitration,label", LEGEND_LABELS)
    def test_labels(self, throttle, arbitration, label):
        assert PolicyConfig(throttle=throttle, arbitration=arbitration).label == label

    def test_every_policy_pair_has_a_distinct_label(self):
        pairs = {(throttle, arbitration) for throttle, arbitration, _ in LEGEND_LABELS}
        assert pairs == {(t, a) for t in ThrottleKind for a in ArbitrationKind}
        assert len({label for _, _, label in LEGEND_LABELS}) == len(LEGEND_LABELS) == 20

    def test_label_tables_cover_every_enum_member(self):
        assert set(THROTTLE_LABELS) == set(ThrottleKind)
        assert set(ARBITRATION_LABELS) == set(ArbitrationKind)

    def test_validate_returns_self(self):
        policy = PolicyConfig()
        assert policy.validate() is policy
