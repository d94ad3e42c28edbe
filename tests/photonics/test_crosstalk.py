"""Tests for the WDM crosstalk penalty model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.photonics.crosstalk import DEFAULT_CROSSTALK, CrosstalkModel
from repro.photonics.units import db_to_ratio


class TestAggressorRatio:
    def test_adjacent_channel(self):
        model = CrosstalkModel(suppression_db=25.0, rolloff_db_per_channel=3.0)
        assert model.aggressor_ratio(1) == pytest.approx(db_to_ratio(-25.0))

    def test_rolloff_with_distance(self):
        model = CrosstalkModel(suppression_db=25.0, rolloff_db_per_channel=3.0)
        assert model.aggressor_ratio(2) == pytest.approx(db_to_ratio(-28.0))

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            DEFAULT_CROSSTALK.aggressor_ratio(0)


class TestPenalty:
    def test_single_channel_is_free(self):
        assert DEFAULT_CROSSTALK.penalty_db(1) == 0.0

    def test_two_channels_small_penalty(self):
        penalty = DEFAULT_CROSSTALK.penalty_db(2)
        assert 0.0 < penalty < 0.1

    def test_spacx_24_channel_penalty_modest(self):
        """The evaluated 24-wavelength waveguide must stay well inside
        the feasible regime with Table-III-grade suppression."""
        penalty = DEFAULT_CROSSTALK.penalty_db(24)
        assert 0.0 < penalty < 0.5

    @given(st.integers(min_value=1, max_value=64))
    def test_monotone_in_channel_count(self, n):
        assert DEFAULT_CROSSTALK.penalty_db(n + 1) > DEFAULT_CROSSTALK.penalty_db(
            n
        ) - 1e-12

    def test_weak_suppression_becomes_infeasible(self):
        weak = CrosstalkModel(suppression_db=6.0, rolloff_db_per_channel=0.0)
        with pytest.raises(ValueError):
            weak.penalty_db(16)

    def test_rejects_empty_waveguide(self):
        with pytest.raises(ValueError):
            DEFAULT_CROSSTALK.penalty_db(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrosstalkModel(suppression_db=0.0)
        with pytest.raises(ValueError):
            CrosstalkModel(suppression_db=25.0, rolloff_db_per_channel=-1.0)

    @pytest.mark.parametrize("field", ["suppression_db", "rolloff_db_per_channel"])
    @pytest.mark.parametrize(
        "value",
        [10**400, float("inf"), float("nan"), False, "25"],
        ids=["huge-int", "inf", "nan", "bool", "str"],
    )
    def test_rejects_non_finite_or_non_real(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CrosstalkModel(**{field: value})
